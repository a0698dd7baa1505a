"""Deterministic random-number streams.

Every stochastic component of the reproduction (trace generators, latency
models, workload drivers) draws from a named substream derived from a single
experiment seed, so whole experiments are reproducible bit-for-bit and
components can be re-ordered without perturbing each other's draws.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence

__all__ = ["RngStream", "SeedSequence"]


class RngStream(random.Random):
    """A :class:`random.Random` with a few distribution helpers."""

    def below(self, n: int) -> int:
        """An int in ``[0, n)``: the draw ``randrange(n)`` makes, without
        its argument checks (``n`` must be a positive int).

        ``randint(a, b)`` is ``a + below(b - a + 1)`` draw for draw, so
        hot generator loops can use it and keep every stream unchanged.
        """
        return self._randbelow(n)

    def exponential(self, mean: float) -> float:
        """Draw from Exp(1/mean); mean must be positive."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        return self.expovariate(1.0 / mean)

    def choice_weighted(self, items: Sequence, weights: Sequence[float]):
        """Pick one item with the given relative weights."""
        if len(items) != len(weights):
            raise ValueError("items and weights must have the same length")
        return self.choices(items, weights=weights, k=1)[0]


class SeedSequence:
    """Derives named, independent :class:`RngStream` substreams from a seed.

    >>> seeds = SeedSequence(42)
    >>> a, b = seeds.stream("traffic"), seeds.stream("latency")
    >>> a.random() != b.random()
    True
    >>> seeds.stream("traffic").random() == SeedSequence(42).stream("traffic").random()
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    def stream(self, name: str) -> RngStream:
        """Return a fresh stream for ``name`` (same name ⇒ same stream)."""
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        return RngStream(int.from_bytes(digest[:8], "big"))

    def child(self, name: str) -> "SeedSequence":
        """Return a derived seed sequence for a sub-component."""
        digest = hashlib.sha256(f"{self.seed}/{name}".encode()).digest()
        return SeedSequence(int.from_bytes(digest[:8], "big"))
