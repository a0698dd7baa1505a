"""Determinism guarantees of the fast-path kernel and the new harness.

The kernel's timeout pool, the waiter-slot inline resume, the parallel
runner and the result cache are all pure optimisations: every one of them
must leave simulation results byte-identical.  These tests pin that down.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.core as sim_core
from repro.harness import EXPERIMENTS, WHOLE, ResultCache, run_experiments
from repro.sim import SimulationError, Simulator
from repro.sim.resources import CPU, Disk, Resource, Store


def _scenario(sim):
    """A workload touching timeouts, resources, CPU slices and stores."""
    log = []
    cpu = CPU(sim)
    store = Store(sim, capacity=4)
    lock = Resource(sim, capacity=2)

    def producer(pid):
        for i in range(20):
            yield from cpu.compute(pid, 1e-4)
            yield store.put((pid, i))
            log.append(("put", sim.now, pid, i))

    def consumer(pid):
        for _ in range(20):
            item = yield store.get()
            req = lock.request()
            yield req
            yield sim.timeout(2e-4)
            lock.release(req)
            log.append(("got", sim.now, pid, item))

    for pid in range(4):
        sim.process(producer(pid))
    for pid in range(4):
        sim.process(consumer(100 + pid))
    sim.run()
    return log


def test_pool_on_off_event_log_identical():
    """The timeout pool must not change ordering or values anywhere."""
    log_pooled = _scenario(Simulator())
    log_unpooled = _scenario(Simulator(timeout_pool=0))
    assert log_pooled == log_unpooled
    assert len(log_pooled) > 100


def test_pool_on_off_experiment_identical(monkeypatch):
    """A full server experiment is byte-identical with pooling disabled."""
    fresh = EXPERIMENTS["mfs-sinkhole"]().run(scale="quick")
    monkeypatch.setattr(sim_core, "DEFAULT_TIMEOUT_POOL", 0)
    unpooled = EXPERIMENTS["mfs-sinkhole"]().run(scale="quick")
    assert fresh.rows == unpooled.rows
    assert fresh.anchors == unpooled.anchors
    assert fresh.columns == unpooled.columns


def test_jobs_serial_vs_parallel_identical():
    """--jobs N fans out but returns results identical to a serial run."""
    ids = ["fig3", "fig4"]
    serial = run_experiments(ids, "quick", jobs=1, cache=None)
    fanned = run_experiments(ids, "quick", jobs=4, cache=None)
    assert [o.result for o in serial] == [o.result for o in fanned]
    assert not any(o.cached for o in serial + fanned)


def test_cache_hit_vs_miss_identical(tmp_path):
    """A cache round-trip reproduces the result exactly."""
    cache = ResultCache(cache_dir=tmp_path, src_hash="pinned")
    first = run_experiments(["fig4"], "quick", jobs=1, cache=cache)
    second = run_experiments(["fig4"], "quick", jobs=1, cache=cache)
    assert not first[0].cached
    assert second[0].cached
    assert first[0].result == second[0].result
    assert cache.hits == 1 and cache.misses == 1


def test_cache_source_hash_invalidates(tmp_path):
    cache_a = ResultCache(cache_dir=tmp_path, src_hash="aaaa")
    run_experiments(["fig3"], "quick", jobs=1, cache=cache_a)
    cache_b = ResultCache(cache_dir=tmp_path, src_hash="bbbb")
    assert cache_b.get("fig3", "quick", WHOLE) is None
    assert cache_a.get("fig3", "quick", WHOLE) is not None


def test_cache_clear(tmp_path):
    cache = ResultCache(cache_dir=tmp_path, src_hash="pinned")
    run_experiments(["fig3"], "quick", jobs=1, cache=cache)
    assert cache.clear() == 1
    assert cache.get("fig3", "quick", WHOLE) is None


# -- timeouts held outside the run loop vs the pool ------------------------

def test_shared_timeout_waiter_plus_callback():
    """Two processes yielding one timeout both resume (waiter + callback)."""
    sim = Simulator()
    resumed = []
    shared = sim.timeout(2.0, value="tick")

    def a():
        value = yield shared
        resumed.append(("a", sim.now, value))

    def b():
        value = yield shared
        resumed.append(("b", sim.now, value))

    sim.process(a())
    sim.process(b())
    sim.run()
    assert sorted(resumed) == [("a", 2.0, "tick"), ("b", 2.0, "tick")]


def test_user_held_timeout_survives_churn():
    """A timeout the user keeps a reference to is never pooled and reused."""
    sim = Simulator(timeout_pool=8)
    held = []

    def keeper():
        for i in range(50):
            timeout = sim.timeout(0.01, value=i)
            held.append(timeout)
            yield timeout

    sim.process(keeper())
    sim.run()
    assert [t.value for t in held] == list(range(50))
    assert len({id(t) for t in held}) == 50


# -- pooled vs unpooled kernel over random process mixes ---------------------

_OP = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from((0.0, 0.5, 1.0, 1.25))),
    st.tuples(st.just("wait"), st.integers(0, 2)),
    st.tuples(st.just("fire"), st.integers(0, 2)),
    st.tuples(st.just("put"), st.integers(0, 9)),
    st.tuples(st.just("get"), st.just(0)),
    st.tuples(st.just("cpu"), st.sampled_from((0.25, 0.5)),
              st.sampled_from((-1, 0, 1))),
    st.tuples(st.just("disk"), st.sampled_from((0.0, 0.75))),
    st.tuples(st.just("join"), st.integers(0, 5)),
    st.tuples(st.just("shared"), st.integers(0, 1)),
    st.tuples(st.just("raise"), st.just(0)),
)


def _process_mix(sim, programs):
    """Run ``programs`` (one op list per process) on ``sim``.

    Covers every way a process waits: timeouts (fresh and shared between
    processes), manually triggered events, a bounded store, CPU slices at
    three priorities, disk operations, and joins on other processes, whose
    failures the joiner catches.  Returns the resume log; an unhandled
    failure ends the log with the run's error message.
    """
    log = []
    cpu = CPU(sim, context_switch_cost=0.125)
    disk = Disk(sim)
    store = Store(sim, capacity=2)
    events = [sim.event() for _ in range(3)]
    shared = [sim.timeout(0.5, value="s0"), sim.timeout(2.0, value="s1")]
    procs = []

    def body(pid, ops):
        for n, op in enumerate(ops):
            kind, arg = op[0], op[1]
            value = None
            if kind == "sleep":
                value = yield sim.timeout(arg, value=(pid, n))
            elif kind == "wait":
                value = yield events[arg]
            elif kind == "fire":
                if not events[arg].triggered:
                    events[arg].succeed((pid, n))
            elif kind == "put":
                yield store.put(arg)
            elif kind == "get":
                value = yield store.get()
            elif kind == "cpu":
                yield from cpu.compute(pid, arg, priority=op[2])
            elif kind == "disk":
                yield from disk.io(arg, nbytes=1)
            elif kind == "join":
                if arg < len(procs) and procs[arg] is not procs[pid]:
                    try:
                        value = yield procs[arg]
                    except ValueError as error:
                        value = ("caught", str(error))
            elif kind == "shared":
                value = yield shared[arg]
            elif kind == "raise":
                raise ValueError(f"p{pid} op{n}")
            log.append((sim.now, pid, n, kind, value))
        return pid

    for pid, ops in enumerate(programs):
        procs.append(sim.process(body(pid, ops)))
    try:
        sim.run()
    except SimulationError as error:
        log.append(("aborted", sim.now, str(error)))
    return log


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_OP, max_size=8), min_size=1, max_size=6))
def test_pool_on_off_random_process_mix(programs):
    """Pooling is invisible over any mix of waits: same log, same kernel
    event and step counts, same final clock."""
    pooled, unpooled = Simulator(), Simulator(timeout_pool=0)
    assert _process_mix(pooled, programs) == _process_mix(unpooled, programs)
    a, b = pooled.kernel_stats(), unpooled.kernel_stats()
    assert (a.events, a.steps) == (b.events, b.steps)
    assert pooled.now == unpooled.now
