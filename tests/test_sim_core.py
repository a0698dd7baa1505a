"""Unit tests for the discrete-event engine."""

import itertools
import random

import pytest

from repro.obs import capture
from repro.sim import SimulationError, Simulator


def test_timeouts_fire_in_order(sim):
    log = []

    def proc(name, delay):
        yield sim.timeout(delay)
        log.append((sim.now, name))

    sim.process(proc("late", 5.0))
    sim.process(proc("early", 1.0))
    sim.process(proc("mid", 3.0))
    sim.run()
    assert log == [(1.0, "early"), (3.0, "mid"), (5.0, "late")]


def test_same_time_events_fifo(sim):
    log = []

    def proc(name):
        yield sim.timeout(1.0)
        log.append(name)

    for name in "abc":
        sim.process(proc(name))
    sim.run()
    assert log == ["a", "b", "c"]


def test_timeout_value_passthrough(sim):
    got = []

    def proc():
        value = yield sim.timeout(1.0, value="payload")
        got.append(value)

    sim.process(proc())
    sim.run()
    assert got == ["payload"]


def test_negative_timeout_rejected(sim):
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_run_until_stops_and_advances_clock(sim):
    log = []

    def proc():
        yield sim.timeout(10.0)
        log.append("fired")

    sim.process(proc())
    sim.run(until=5.0)
    assert log == []
    assert sim.now == 5.0
    sim.run()
    assert log == ["fired"]
    assert sim.now == 10.0


def test_process_waits_on_process(sim):
    log = []

    def child():
        yield sim.timeout(2.0)
        return "result"

    def parent():
        value = yield sim.process(child())
        log.append((sim.now, value))

    sim.process(parent())
    sim.run()
    assert log == [(2.0, "result")]


def test_process_exception_propagates_to_waiter(sim):
    log = []

    def child():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as exc:
            log.append(str(exc))

    sim.process(parent())
    sim.run()
    assert log == ["boom"]


def test_unhandled_process_exception_aborts_run(sim):
    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("unobserved")

    sim.process(bad())
    with pytest.raises(SimulationError, match="unhandled"):
        sim.run()


def test_yielding_non_event_fails_process(sim):
    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_event_succeed_once_only(sim):
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_manual_event_wakes_waiter(sim):
    log = []
    event = sim.event()

    def waiter():
        value = yield event
        log.append((sim.now, value))

    def firer():
        yield sim.timeout(3.0)
        event.succeed("go")

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert log == [(3.0, "go")]


def test_peek_reports_next_event_time(sim):
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    assert sim.peek() == 4.0


def test_deterministic_replay(sim):
    """Two identical simulations produce identical logs."""

    def build(simulator):
        log = []

        def proc(name, delay):
            yield simulator.timeout(delay)
            log.append((simulator.now, name))

        for i in range(20):
            simulator.process(proc(f"p{i}", (i * 7) % 5 + 0.5))
        return log

    from repro.sim import Simulator
    sim2 = Simulator()
    log1, log2 = build(sim), build(sim2)
    sim.run()
    sim2.run()
    assert log1 == log2


# -- the event heap: ordering, windowed runs, peek, depth ---------------------

def _mixed_workload(sim, rng, n_procs=25, n_steps=30):
    """Seeded processes sleeping random delays, zero-delay resumes and
    colliding due times included.

    Returns ``(log, wakes)``: ``log`` gets ``(now, push order, value)`` per
    resume; ``wakes`` maps each sleeping process to its pending due time,
    so a test can compute what :meth:`Simulator.peek` must answer.
    """
    log: list = []
    wakes: dict = {}
    pushes = itertools.count()

    def proc(name):
        for step in range(n_steps):
            roll = rng.random()
            if roll < 0.15:
                delay = 0.0                             # same-instant resume
            elif roll < 0.5:
                delay = rng.choice((0.5, 1.0, 2.0))     # equal due times
            else:
                delay = rng.random() * 8.0
            wakes[name] = sim.now + delay
            order = next(pushes)
            value = yield sim.timeout(delay, value=(name, step))
            del wakes[name]
            log.append((sim.now, order, value))

    for p in range(n_procs):
        sim.process(proc(p))
    return log, wakes


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
def test_heap_fires_in_time_then_push_order(seed):
    sim = Simulator()
    log, wakes = _mixed_workload(sim, random.Random(seed))
    sim.run()
    assert len(log) == 25 * 30 and not wakes
    keys = [(now, order) for now, order, _ in log]
    assert keys == sorted(keys)
    assert any(a[0] == b[0] for a, b in zip(log, log[1:]))  # ties occurred


@pytest.mark.parametrize("seed", [3, 11, 99, 600])
def test_windowed_run_matches_uncut_run_and_peek(seed):
    """Cutting a run into ``run(until=t)`` windows changes nothing: same
    log, same event count.  An event due exactly at a cut fires inside
    that window, and after each cut ``peek()`` is the smallest pending due
    time (``inf`` once drained)."""
    whole = Simulator()
    whole_log, _ = _mixed_workload(whole, random.Random(seed))
    whole.run()

    sim = Simulator()
    log, wakes = _mixed_workload(sim, random.Random(seed))
    fired_at_cut = []

    def on_the_cut():
        yield sim.timeout(2.5)
        fired_at_cut.append(sim.now)

    sim.process(on_the_cut())
    for cut in (0.0, 0.25, 1.0, 2.5, 7.75, 30.0):
        sim.run(until=cut)
        assert sim.now == cut
        assert all(now <= cut for now, _, _ in log)
        assert sim.peek() == min(wakes.values(), default=float("inf"))
        if cut == 2.5:
            assert fired_at_cut == [2.5]
    sim.run()
    assert sim.peek() == float("inf") and not wakes
    assert log == whole_log
    # the extra process costs exactly three events: start, wake, finish
    assert (sim.kernel_stats().events
            == whole.kernel_stats().events + 3)


def test_windowed_run_on_a_steady_tick():
    """Cuts landing on and between a 0.25 s tick neither leak nor hold
    back events."""
    sim = Simulator()
    log = []

    def proc():
        for k in range(1, 41):
            yield sim.timeout(0.25, value=k)
            log.append((sim.now, k))

    sim.process(proc())
    for cut in (0.25, 0.5, 1.125, 2.0, 4.75, 10.0):
        sim.run(until=cut)
        k = int(cut // 0.25)
        assert log[-1] == (k * 0.25, k)
        assert sim.peek() == ((k + 1) * 0.25 if k < 40 else float("inf"))
    sim.run()
    assert log == [(0.25 * k, k) for k in range(1, 41)]
    assert sim.peek() == float("inf")


def test_queue_depth_peak_exact():
    """``fan(n)`` parks ``n`` bare timeouts plus its own sleep.  After
    both starts have run the heap holds 4 + 1 + 2 + 1 = 8 entries, the
    most it ever holds, and a later windowed run does not reset the peak."""
    sim = Simulator()

    def fan(n):
        for k in range(n):
            sim.timeout(k + 1.0)
        yield sim.timeout(0.5)

    sim.process(fan(4))
    sim.process(fan(2))
    assert sim.kernel_stats().queue_depth_peak == 0   # measured by run()
    sim.run(until=0.0)
    assert sim.kernel_stats().queue_depth_peak == 8
    sim.run()
    assert sim.kernel_stats().queue_depth_peak == 8


def test_recorded_kernel_steps_count_every_resume():
    """``kernel.run`` reports every resume of its call -- process starts,
    joins and a second subscriber included -- so its steps, summed over
    windowed runs, equal ``kernel_stats().steps``."""
    with capture(record=True) as tr:
        sim = Simulator()
        gate = sim.event()

        def sleeper(k):
            yield sim.timeout(0.5 * k)
            return k

        def gated():
            yield gate

        def joiner(procs):
            total = 0
            for proc in procs:
                total += yield proc
            gate.succeed(total)

        procs = [sim.process(sleeper(k)) for k in range(3)]
        sim.process(gated())
        sim.process(gated())
        sim.process(joiner(procs))
        sim.run(until=0.75)
        sim.run()
    steps = [r["attrs"]["steps"] for r in tr.record_records()
             if r["type"] == "event" and r["kind"] == "kernel.run"]
    # sleepers 3 x (start + wake), gated 2 x (start + gate), joiner
    # start + 3 joins
    assert len(steps) == 2
    assert sum(steps) == sim.kernel_stats().steps == 6 + 4 + 4
