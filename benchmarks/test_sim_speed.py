"""Kernel microbenchmark: DES engine events/sec on a Figure-8-shaped load.

Figure 8 is the paper's canonical server experiment — many concurrent
closed-loop clients contending on a shared CPU — and its shape (one CPU
slice then an idle timeout per step) exercises every kernel fast path at
once: the timeout pool, the waiter-slot inline resume, and the CPU's
hand-over from one slice to the next.  The reported events/sec is the
number every figure experiment is ultimately bounded by; watch it in BENCH
output to track the perf trajectory across PRs.
"""

import statistics
import time

from repro.obs import capture, tracer
from repro.sim import Simulator
from repro.sim.resources import CPU

N_CLIENTS = 400
STEPS = 60
#: interleaved plain/watched pairs behind the watchdog overhead gate
WATCHDOG_PAIRS = 9


def _fig8_workload():
    """Run the Figure-8-shaped load and return the simulator for stats."""
    sim = Simulator()
    cpu = CPU(sim)

    def client(pid):
        for _ in range(STEPS):
            yield from cpu.compute(pid, 1e-4)
            yield sim.timeout(1e-3)

    for pid in range(N_CLIENTS):
        sim.process(client(pid))
    sim.run()
    return sim


def test_fig8_shaped_event_rate(benchmark):
    """Events/sec with resource contention (the figure-experiment shape)."""
    sim = benchmark(_fig8_workload)
    stats = sim.kernel_stats()
    # one event per compute slice + 1 idle timeout per step per client
    assert stats.events >= N_CLIENTS * STEPS
    assert stats.steps >= N_CLIENTS * STEPS
    assert stats.events_per_sec > 0
    benchmark.extra_info["events_per_sec"] = round(stats.events_per_sec)
    benchmark.extra_info["steps_per_sec"] = round(stats.steps_per_sec)


def test_pure_timeout_event_rate(benchmark):
    """Events/sec with nothing but pooled timeouts (kernel ceiling)."""

    def run():
        sim = Simulator()

        def ticker():
            for _ in range(500):
                yield sim.timeout(1.0)

        for _ in range(200):
            sim.process(ticker())
        sim.run()
        return sim

    sim = benchmark(run)
    stats = sim.kernel_stats()
    assert stats.events >= 100_000
    benchmark.extra_info["events_per_sec"] = round(stats.events_per_sec)


# -- observability overhead ---------------------------------------------------
#
# The tracing layer promises to be free when disabled: constructors check
# the runtime once, hot paths carry a single attribute test.  The structural
# assertions pin the mechanism; the timing assertion pins the outcome.

def test_disabled_tracer_is_structurally_noop():
    """With no capture active, nothing observable attaches anywhere."""
    assert not tracer().enabled
    sim = _fig8_workload()
    assert sim._obs is None          # kernel holds no tracer reference
    assert sim._series is None       # no series cursor either
    assert tracer().span_count == 0
    assert tracer().sample_count == 0
    assert list(tracer().records()) == []
    assert list(tracer().series_records()) == []


def test_kernel_publishes_once_per_run_when_enabled():
    """Enabled tracing costs one counter update per run(), not per event."""
    with capture() as tr:
        sim = _fig8_workload()
    stats = sim.kernel_stats()
    assert tr.registry.counter("kernel.events").value == stats.events
    # each client's generator takes its first step at sim.process() time,
    # outside run(), so the run loop publishes exactly N_CLIENTS fewer
    assert tr.registry.counter("kernel.steps").value == stats.steps - N_CLIENTS
    assert tr.span_count == 0        # the kernel itself emits no spans


def _best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_disabled_tracer_overhead_under_3_percent():
    """The instrumented kernel must not slow down when tracing is off.

    Compares the min-of-N wall time of the Fig. 8 workload with tracing
    disabled against the same workload traced *and sampled*
    (``series_interval``) — the series hook costs the kernel one float
    comparison per event when off, and that must stay inside the same
    bound; since the kernel publishes once per run, the two must agree
    within the 3% acceptance bound (retry a few times — min-of-N on a
    quiet machine is stable, but not perfectly).
    """
    def traced():
        with capture(series_interval=0.25):
            _fig8_workload()

    _fig8_workload()  # warm up allocators and code paths
    traced()
    for attempt in range(4):
        disabled = _best_of(_fig8_workload, 5)
        enabled = _best_of(traced, 5)
        # the claim under test is the *disabled* cost: disabled must not
        # exceed the traced+sampled run by more than the acceptance bound
        if disabled <= enabled * 1.03:
            return
    assert disabled <= enabled * 1.03, (
        f"disabled-tracer run {disabled:.4f}s vs traced {enabled:.4f}s")


def test_watchdog_overhead_under_5_percent():
    """Always-on invariant watchdogs must cost under ~5% on a server load.

    Compares a traced Figure-8-shaped *server* run (the workload that
    actually emits flight-recorder events — connections, SMTP phases,
    forks, deliveries) against the same run with the ring recorder and
    the invariant engine attached.  ``--watchdogs`` is the CLI default,
    so this bound is what every ``repro-experiments`` run pays.  The gate
    is the median of interleaved pairs, not the first attempt to get under
    the bound, so one slow plain run cannot pass it.
    """
    from repro.clients import run_closed
    from repro.server import MailServerSim, ServerConfig
    from repro.traces import bounce_sweep_trace

    trace = bounce_sweep_trace(0.4, n_connections=600, unfinished_ratio=0.1)

    def run(**kwargs):
        with capture(keep_spans=False, **kwargs) as tr:
            run_closed(trace,
                       lambda s: MailServerSim(s, ServerConfig.hybrid()),
                       concurrency=150)
        return tr

    def plain():
        run()

    def watched():
        tr = run(watchdogs=True)
        assert tr.invariants.finish() == []

    def timed(fn):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    plain()
    watched()  # warm up
    # interleaved pairs, alternating which run goes first, so a drift in
    # machine speed lands on both sides; the gate is the median ratio
    ratios = []
    for pair in range(WATCHDOG_PAIRS):
        if pair % 2:
            on, off = timed(watched), timed(plain)
        else:
            off, on = timed(plain), timed(watched)
        ratios.append(on / off)
        print(f"pair {pair}: watchdog run {on:.4f}s / plain run "
              f"{off:.4f}s = {on / off:.3f}")
    median = statistics.median(ratios)
    assert median <= 1.05, (
        f"median watchdog/plain ratio {median:.3f} over "
        f"{WATCHDOG_PAIRS} pairs: {[round(r, 3) for r in ratios]}")
