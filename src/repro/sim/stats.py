"""Metric collection: kernel counters, time series, and empirical CDFs.

The paper's evaluation reports two kinds of data: *series* (throughput vs.
bounce ratio / recipients / offered load) and *CDFs* (recipients per mail,
DNSBL lookup latency, blacklisted IPs per prefix, interarrival times).  The
classes here collect samples during trace analysis or simulation runs and
summarise them in those two forms.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

__all__ = ["Cdf", "TimeSeries", "KernelStats"]


@dataclass
class KernelStats:
    """Engine throughput counters reported by ``Simulator.kernel_stats()``.

    ``events`` is the number of queue entries processed, ``steps`` the number
    of generator resumes, and ``wall_seconds`` the real time spent inside
    ``Simulator.run``.  The rates make kernel regressions visible without a
    profiler: every figure experiment is bounded by events/sec.
    ``queue_depth_peak`` is the largest number of entries the event heap
    held at once.
    """

    events: int = 0
    steps: int = 0
    wall_seconds: float = 0.0
    pooled_timeouts: int = 0
    queue_depth_peak: int = 0

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def steps_per_sec(self) -> float:
        return self.steps / self.wall_seconds if self.wall_seconds else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "events": float(self.events),
            "steps": float(self.steps),
            "wall_seconds": self.wall_seconds,
            "events_per_sec": self.events_per_sec,
            "steps_per_sec": self.steps_per_sec,
            "pooled_timeouts": float(self.pooled_timeouts),
            "queue_depth_peak": float(self.queue_depth_peak),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"KernelStats(events={self.events}, steps={self.steps}, "
                f"wall={self.wall_seconds:.3f}s, "
                f"{self.events_per_sec:,.0f} ev/s, "
                f"depth_peak={self.queue_depth_peak})")


class Cdf:
    """An empirical cumulative distribution over collected samples.

    Samples are kept exactly (the traces in this reproduction are at most a
    few hundred thousand points) and sorted lazily.
    """

    def __init__(self, samples: Optional[Iterable[float]] = None):
        self._samples: list[float] = list(samples) if samples is not None else []
        self._sorted = False

    def add(self, value: float) -> None:
        self._samples.append(value)
        self._sorted = False

    def extend(self, values: Iterable[float]) -> None:
        self._samples.extend(values)
        self._sorted = False

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self) -> Iterator[float]:
        self._ensure_sorted()
        return iter(self._samples)

    @property
    def n(self) -> int:
        return len(self._samples)

    def fraction_at_or_below(self, x: float) -> float:
        """P[X <= x] under the empirical distribution."""
        if not self._samples:
            raise ValueError("empty CDF")
        self._ensure_sorted()
        return bisect.bisect_right(self._samples, x) / len(self._samples)

    def fraction_above(self, x: float) -> float:
        """P[X > x]."""
        return 1.0 - self.fraction_at_or_below(x)

    def percentile(self, q: float) -> float:
        """The q-th percentile, q in [0, 100], nearest-rank."""
        if not self._samples:
            raise ValueError("empty CDF")
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile out of range: {q!r}")
        self._ensure_sorted()
        if q == 0:
            return self._samples[0]
        rank = math.ceil(q / 100.0 * len(self._samples)) - 1
        return self._samples[max(0, rank)]

    def median(self) -> float:
        return self.percentile(50.0)

    def mean(self) -> float:
        if not self._samples:
            raise ValueError("empty CDF")
        return sum(self._samples) / len(self._samples)

    def min(self) -> float:
        self._ensure_sorted()
        return self._samples[0]

    def max(self) -> float:
        self._ensure_sorted()
        return self._samples[-1]

    def points(self, max_points: int = 200) -> list[tuple[float, float]]:
        """Downsampled ``(x, P[X<=x])`` points suitable for plotting a CDF."""
        if not self._samples:
            return []
        self._ensure_sorted()
        n = len(self._samples)
        step = max(1, n // max_points)
        pts = [(self._samples[i], (i + 1) / n) for i in range(0, n, step)]
        if pts[-1][1] != 1.0:
            pts.append((self._samples[-1], 1.0))
        return pts


@dataclass
class TimeSeries:
    """Ordered ``(t, value)`` samples, e.g. daily bounce ratios (Fig. 3)."""

    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def add(self, t: float, value: float) -> None:
        if self.times and t < self.times[-1]:
            raise ValueError("time series samples must be added in order")
        self.times.append(t)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self.times, self.values))

    def mean(self) -> float:
        if not self.values:
            raise ValueError("empty time series")
        return sum(self.values) / len(self.values)
