"""Per-layer instrumentation that lives in the benchmark, not the program.

:class:`Probe` wraps public entry points of the program for the length of a
``with`` block and restores them afterwards, counting calls and summing the
wall time spent inside them.  The DES layers run as generators, so wrapping
them can count their calls but not time them; :func:`profile_shares` gives
their self time from one cProfile pass instead.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from collections import defaultdict


class Probe:
    """Counts and times calls to patched attributes while active."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.totals: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def time(self, owner, attr: str, key: str, keep_samples: bool = False,
             measure=None) -> None:
        """Time every call of ``owner.attr``.

        ``measure(result)`` optionally adds a number per call to
        ``totals[key]`` (e.g. bytes written), outside the timed interval.
        """
        original = getattr(owner, attr)
        calls, seconds, samples, totals = (self.calls, self.seconds,
                                           self.samples[key], self.totals)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = original(*args, **kwargs)
            elapsed = clock() - t0
            calls[key] += 1
            seconds[key] += elapsed
            if keep_samples:
                samples.append(elapsed)
            if measure is not None:
                totals[key] += measure(result)
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, key: str, measure=None) -> None:
        """Count calls of ``owner.attr`` without timing them (generators)."""
        original = getattr(owner, attr)
        calls, totals = self.calls, self.totals

        def wrapper(*args, **kwargs):
            calls[key] += 1
            result = original(*args, **kwargs)
            if measure is not None:
                totals[key] += measure(result)
            return result

        self._patch(owner, attr, wrapper)

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def peak_rss_mb() -> float:
    """This process's peak resident set since it started, in MB.

    Read from ``VmHWM`` rather than ``getrusage``: after ``exec`` the
    latter still counts the memory of the process that spawned this one.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


#: module prefix -> layer, first match wins
LAYER_MODULES = (
    ("repro/sim/resources", "sim.resources"),
    ("repro/sim/", "sim"),
    ("repro/server/", "server"),
)


def profile_shares(profiler: cProfile.Profile) -> dict[str, float]:
    """Self-time share of each layer in a finished cProfile pass."""
    by_layer: dict[str, float] = defaultdict(float)
    total = 0.0
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, _cl) in \
            pstats.Stats(profiler).stats.items():
        total += tottime
        path = filename.replace("\\", "/")
        for prefix, layer in LAYER_MODULES:
            if prefix in path:
                by_layer[layer] += tottime
                break
    return {layer: t / total for layer, t in by_layer.items()} if total \
        else {}
