"""Mail size distributions.

The paper's synthetic traces "follow the mail sizes in the Univ trace"
(§3).  The Univ trace itself is not published, so we use the standard
empirical finding that mail sizes are approximately lognormal, with spam
skewing smaller and tighter than ham (spam bodies are short text/URLs; ham
carries attachments in the tail).  The medians are chosen so the overall
mean lands in the few-KB range typical of 2007 departmental mail.
"""

from __future__ import annotations

import math

from ..sim.random import RngStream

__all__ = ["SizeModel", "UNIV_SIZES", "SPAM_SIZES"]


class SizeModel:
    """A lognormal mail-size model with hard floor and ceiling."""

    def __init__(self, median: float, sigma: float,
                 floor: int = 200, ceiling: int = 2 * 1024 * 1024):
        if median <= 0 or sigma <= 0:
            raise ValueError("median and sigma must be positive")
        if floor >= ceiling:
            raise ValueError("floor must be below ceiling")
        self.median = median
        self.sigma = sigma
        self.floor = floor
        self.ceiling = ceiling

    def sample(self, rng: RngStream) -> int:
        value = rng.lognormvariate(math.log(self.median), self.sigma)
        return int(min(self.ceiling, max(self.floor, value)))


#: Ham-dominated departmental mail: median ~4 KB, heavy attachment tail.
UNIV_SIZES = SizeModel(median=4 * 1024, sigma=1.3)

#: Spam: median ~2 KB, tighter spread (§6.3 uses Univ sizes for its
#: controlled runs; the sinkhole generator uses this model).
SPAM_SIZES = SizeModel(median=2 * 1024, sigma=0.9)
