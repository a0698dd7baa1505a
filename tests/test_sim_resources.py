"""Unit tests for resources: Resource, Store, CPU, Disk."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (CPU, Disk, Resource, SimulationError, Simulator,
                       Store)


class TestResource:
    def test_fifo_granting(self, sim):
        res = Resource(sim, capacity=1)
        log = []

        def user(name, hold):
            req = res.request()
            yield req
            log.append((sim.now, name, "got"))
            yield sim.timeout(hold)
            res.release(req)

        for i, name in enumerate("abc"):
            sim.process(user(name, 1.0))
        sim.run()
        assert [entry[1] for entry in log] == ["a", "b", "c"]
        assert log[-1][0] == 2.0

    def test_capacity_allows_parallelism(self, sim):
        res = Resource(sim, capacity=2)
        done = []

        def user(name):
            req = res.request()
            yield req
            yield sim.timeout(1.0)
            res.release(req)
            done.append((sim.now, name))

        for name in "abcd":
            sim.process(user(name))
        sim.run()
        assert sim.now == 2.0  # two waves of two
        assert len(done) == 4

    def test_priority_served_first(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def holder():
            req = res.request()
            yield req
            yield sim.timeout(1.0)
            res.release(req)

        def user(name, priority, delay):
            yield sim.timeout(delay)
            req = res.request(priority=priority)
            yield req
            order.append(name)
            res.release(req)

        sim.process(holder())
        sim.process(user("normal", 0, 0.1))
        sim.process(user("urgent", -1, 0.2))  # arrives later, served first
        sim.run()
        assert order == ["urgent", "normal"]

    def test_double_release_detected(self, sim):
        res = Resource(sim, capacity=1)

        def user():
            req = res.request()
            yield req
            res.release(req)
            res.release(req)

        sim.process(user())
        with pytest.raises(SimulationError):
            sim.run()

    def test_release_ungranted_request_rejected(self, sim):
        res = Resource(sim, capacity=1)
        held = res.request()
        queued = res.request()
        with pytest.raises(SimulationError):
            res.release(queued)
        res.release(held)

    def test_cancelled_request_skipped(self, sim):
        res = Resource(sim, capacity=1)
        first = res.request()
        second = res.request()
        third = res.request()
        second.cancel()
        res.release(first)
        sim.run()
        assert third.triggered
        assert not second.triggered

    def test_stats(self, sim):
        res = Resource(sim, capacity=1)
        a = res.request()
        res.request()
        assert res.total_requests == 2
        assert res.total_waits == 1
        assert res.peak_in_use == 1
        assert res.queue_length == 1
        res.release(a)

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)


class TestStore:
    def test_put_get_fifo(self, sim):
        store = Store(sim)
        got = []

        def consumer():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        def producer():
            for i in range(3):
                yield sim.timeout(1.0)
                store.put(i)

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [0, 1, 2]

    def test_bounded_put_blocks(self, sim):
        store = Store(sim, capacity=1)
        log = []

        def producer():
            yield store.put("a")
            log.append((sim.now, "put-a"))
            yield store.put("b")
            log.append((sim.now, "put-b"))

        def consumer():
            yield sim.timeout(5.0)
            item = yield store.get()
            log.append((sim.now, f"got-{item}"))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert ("put-a" in [e[1] for e in log])
        # put-b completed only after the consumer drained at t=5
        put_b_time = next(t for t, e in log if e == "put-b")
        assert put_b_time == 5.0

    def test_try_put_on_full_store(self, sim):
        store = Store(sim, capacity=2)
        assert store.try_put(1) and store.try_put(2)
        assert not store.try_put(3)
        ok, item = store.try_get()
        assert ok and item == 1
        assert store.try_put(3)

    def test_try_get_empty(self, sim):
        store = Store(sim)
        ok, item = store.try_get()
        assert not ok and item is None

    def test_direct_handoff_to_waiting_getter(self, sim):
        store = Store(sim)
        got = []

        def consumer():
            item = yield store.get()
            got.append((sim.now, item))

        def producer():
            yield sim.timeout(2.0)
            store.put("x")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(2.0, "x")]
        assert len(store) == 0

    def test_peak_level_tracked(self, sim):
        store = Store(sim)
        for i in range(5):
            store.put(i)
        assert store.peak_level == 5


class TestCpu:
    def test_context_switch_counted_on_pid_change(self, sim):
        cpu = CPU(sim, context_switch_cost=0.1)

        def work(pid, n):
            for _ in range(n):
                yield from cpu.compute(pid, 1.0)

        sim.process(work(1, 2))
        sim.run()
        # single pid: one switch onto the cpu, then none
        assert cpu.context_switches == 1

    def test_alternating_pids_switch_every_slice(self, sim):
        cpu = CPU(sim)

        def one_slice(pid, start):
            yield sim.timeout(start)
            yield from cpu.compute(pid, 1.0)

        sim.process(one_slice(1, 0.0))
        sim.process(one_slice(2, 0.1))
        sim.process(one_slice(1, 0.2))
        sim.run()
        assert cpu.context_switches == 3

    def test_fork_accounting(self, sim):
        cpu = CPU(sim, fork_cost=0.5)

        def forker():
            yield from cpu.fork(0)
            yield from cpu.fork(0)

        sim.process(forker())
        sim.run()
        assert cpu.forks == 2
        assert cpu.busy_time == pytest.approx(1.0 + cpu.context_switch_cost)

    def test_utilisation(self, sim):
        cpu = CPU(sim, context_switch_cost=0.0)

        def work():
            yield from cpu.compute(1, 2.0)
            yield sim.timeout(2.0)

        sim.process(work())
        sim.run()
        assert cpu.utilisation == pytest.approx(0.5)


class TestDisk:
    def test_serialised_io(self, sim):
        disk = Disk(sim)
        done = []

        def writer(name):
            yield from disk.io(1.0, nbytes=100)
            done.append((sim.now, name))

        sim.process(writer("a"))
        sim.process(writer("b"))
        sim.run()
        assert done == [(1.0, "a"), (2.0, "b")]
        assert disk.ops == 2
        assert disk.bytes_written == 200

    def test_negative_service_time_rejected(self, sim):
        disk = Disk(sim)

        def bad():
            yield from disk.io(-1.0)

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()


class TestSliceOrder:
    def test_priority_overtakes_and_fifo_within_class(self, sim):
        cpu = CPU(sim, context_switch_cost=0.0)
        order = []

        def user(name, start, priority):
            yield sim.timeout(start)
            yield from cpu.compute(name, 1.0, priority)
            order.append((sim.now, name))

        sim.process(user("holder", 0.0, 0))
        for i, name in enumerate(("n1", "n2", "n3")):
            sim.process(user(name, 0.1 * (i + 1), 0))
        sim.process(user("urgent", 0.5, -1))  # queued last, served first
        sim.run()
        assert order == [(1.0, "holder"), (2.0, "urgent"), (3.0, "n1"),
                         (4.0, "n2"), (5.0, "n3")]

    def test_one_event_per_slice(self):
        """The Fig. 8 microbench costs exactly two events per step: the
        slice's completion and the idle timeout, plus each client's start
        and finish."""
        n_clients, steps = 400, 60
        sim = Simulator()
        cpu = CPU(sim)

        def client(pid):
            for _ in range(steps):
                yield from cpu.compute(pid, 1e-4)
                yield sim.timeout(1e-3)

        for pid in range(n_clients):
            sim.process(client(pid))
        sim.run()
        stats = sim.kernel_stats()
        assert stats.events == n_clients * (2 * steps + 2) == 48_800
        assert stats.steps == n_clients * (2 * steps + 1)


# -- equivalence with the request/grant/release model -------------------------
#
# The reference servers below run each slice as a Resource request: charged
# when the grant fires, then a timeout, then release.  The single-server
# queues must reproduce that model exactly -- same completion times and
# order, same accounting.

class _ResourceCPU:
    def __init__(self, sim, context_switch_cost):
        self.sim = sim
        self.context_switch_cost = context_switch_cost
        self._res = Resource(sim, capacity=1)
        self._last_pid = None
        self.context_switches = 0
        self.busy_time = 0.0

    def compute(self, pid, work, priority=0):
        req = self._res.request(priority)
        yield req
        if self._last_pid != pid:
            work += self.context_switch_cost
            self.context_switches += 1
            self._last_pid = pid
        self.busy_time += work
        yield self.sim.timeout(work)
        self._res.release(req)


class _ResourceDisk:
    def __init__(self, sim):
        self.sim = sim
        self._res = Resource(sim, capacity=1)
        self.ops = 0
        self.bytes_written = 0
        self.busy_time = 0.0

    def io(self, service_time, nbytes=0):
        req = self._res.request()
        yield req
        self.ops += 1
        self.bytes_written += nbytes
        self.busy_time += service_time
        yield self.sim.timeout(service_time)
        self._res.release(req)


# few distinct values so that start and completion times often tie
_starts = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 3.0)
_works = st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)


def _replay(sim, processes, run):
    """Run each process's slices after its start offset; log completions."""
    log = []

    def body(index, start, slices):
        yield sim.timeout(start)
        for k, args in enumerate(slices):
            yield from run(*args)
            log.append((sim.now, index, k))

    for index, (start, slices) in enumerate(processes):
        sim.process(body(index, start, slices))
    sim.run()
    return log


class TestEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(_starts, st.lists(
        st.tuples(st.integers(0, 3), _works, st.integers(-2, 2)),
        min_size=1, max_size=3)), min_size=1, max_size=24))
    def test_cpu_matches_resource_model(self, processes):
        """Up to 24 processes over five priority classes, so several
        classes are queued at once."""
        def run_with(make):
            sim = Simulator()
            cpu = make(sim)
            log = _replay(sim, processes, cpu.compute)
            return log, cpu.context_switches, cpu.busy_time

        assert (run_with(lambda sim: CPU(sim, context_switch_cost=0.01))
                == run_with(lambda sim: _ResourceCPU(sim, 0.01)))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(_starts, st.lists(
        st.tuples(_works, st.integers(0, 4096)), min_size=1, max_size=3)),
        min_size=1, max_size=12))
    def test_disk_matches_resource_model(self, processes):
        def run_with(make):
            sim = Simulator()
            disk = make(sim)
            log = _replay(sim, processes, disk.io)
            return log, disk.ops, disk.bytes_written, disk.busy_time

        assert run_with(Disk) == run_with(_ResourceDisk)
