"""Determinism guarantees of the fast-path kernel and the new harness.

The kernel's timeout pool, the waiter-slot inline resume, the parallel
runner and the result cache are all pure optimisations: every one of them
must leave simulation results byte-identical.  These tests pin that down.
"""

import repro.sim.core as sim_core
from repro.harness import EXPERIMENTS, ResultCache, run_experiments
from repro.sim import AllOf, AnyOf, Interrupt, Simulator
from repro.sim.resources import CPU, Resource, Store


def _scenario(sim):
    """A workload touching timeouts, resources, stores and interrupts."""
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

    def sleeper():
        try:
            yield sim.timeout(1.0)
        except Interrupt as interrupt:
            log.append(("interrupted", sim.now, interrupt.cause))

    def interrupter(victim):
        yield sim.timeout(5e-3)
        victim.interrupt("wake")

    for pid in range(4):
        sim.process(producer(pid))
    for pid in range(4):
        sim.process(consumer(100 + pid))
    victim = sim.process(sleeper())
    sim.process(interrupter(victim))
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
    assert cache_b.get("fig3", "quick") is None
    assert cache_a.get("fig3", "quick") is not None


def test_cache_clear(tmp_path):
    cache = ResultCache(cache_dir=tmp_path, src_hash="pinned")
    run_experiments(["fig3"], "quick", jobs=1, cache=cache)
    assert cache.clear() == 1
    assert cache.get("fig3", "quick") is None


# -- conditions vs the pooled fast path ------------------------------------

def test_anyof_late_child_not_recycled():
    """A timeout still held by AnyOf must not be recycled and aliased."""
    sim = Simulator()
    seen = {}

    def waiter():
        short = sim.timeout(1.0, value="short")
        long = sim.timeout(5.0, value="long")
        result = yield AnyOf(sim, [short, long])
        seen["any"] = list(result.values())
        seen["long_value_after_any"] = long._value
        # churn the pool hard while the long timeout is still in the heap
        for _ in range(200):
            yield sim.timeout(0.001)
        seen["long_value_after_churn"] = long.value
        seen["long_ok"] = long.ok

    sim.process(waiter())
    sim.run()
    assert seen["any"] == ["short"]
    assert seen["long_value_after_any"] == "long"
    assert seen["long_value_after_churn"] == "long"
    assert seen["long_ok"] is True


def test_allof_values_with_pool_churn():
    sim = Simulator()
    seen = {}

    def churn():
        for _ in range(500):
            yield sim.timeout(0.001)

    def waiter():
        events = [sim.timeout(float(i), value=i) for i in (3, 1, 2)]
        result = yield AllOf(sim, events)
        seen["values"] = [result[e] for e in events]

    sim.process(churn())
    sim.process(waiter())
    sim.run()
    assert seen["values"] == [3, 1, 2]


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
