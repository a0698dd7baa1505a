"""``run(until=)`` cut-offs on the event heap.

A run stopped at one instant has fired exactly the events due up to and
including it, and resuming the run ends where an uncut run ends.  The
seeded mixed workload (zero delays, colliding due times) is the one the
heap-ordering tests in ``test_sim_core`` use.
"""

from __future__ import annotations

import random

import pytest

from repro.sim import Simulator

from .test_sim_core import _mixed_workload


@pytest.mark.parametrize("seed", [3, 99])
@pytest.mark.parametrize("until", [0.0, 1.0, 2.5, 7.75, 100.0])
def test_run_until_cutoff_equivalence(seed, until):
    whole = Simulator()
    whole_log, _ = _mixed_workload(whole, random.Random(seed))
    whole.run()

    sim = Simulator()
    log, wakes = _mixed_workload(sim, random.Random(seed))
    sim.run(until=until)
    assert sim.now == until
    assert log == [entry for entry in whole_log if entry[0] <= until]
    assert sim.peek() == min(wakes.values(), default=float("inf"))
    sim.run()
    assert log == whole_log
    assert sim.kernel_stats().events == whole.kernel_stats().events
