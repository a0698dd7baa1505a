"""The repository's benchmark: three seeded workloads, end to end, by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload closed-bounce --seed 1 --trace 0
    python3 perfbench/run.py --all --seed 1      # every workload, both modes
    python3 perfbench/run.py --list              # every metric, with its unit

``--trace 0`` reports the end-to-end metrics with the benchmark's own
tracing off; ``--trace 1`` makes the separate traced run and reports the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is nonzero
when any output check fails.  NOTES.md says what each workload and metric
is for and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("closed-bounce", "open-spam", "loopback-smtp")
DES_WORKLOADS = WORKLOADS[:2]
#: DES rounds per run, at least, however short ``--seconds`` is
MIN_ROUNDS = 3

#: (name, unit, better) — the end-to-end metrics, measured untraced
END_TO_END = (
    ("conn_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("session_p50_ms", "ms", "lower"),
    ("session_p99_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) — the per-layer metrics of the traced run
PER_LAYER = (
    ("sim.events_per_conn", "count", "lower"),
    ("sim.steps_per_conn", "count", "lower"),
    ("sim.cpu_slices_per_conn", "count", "lower"),
    ("sim.disk_ios_per_conn", "count", "lower"),
    ("sim.queue_depth_peak", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.self_share", "ratio", "lower"),
    ("sim.resources.self_share", "ratio", "lower"),
    ("server.self_share", "ratio", "lower"),
    ("server.delivery_ops_per_mail", "count", "lower"),
    ("obs.overhead_pct", "%", "lower"),
    ("obs.recorder_events_per_conn", "count", "lower"),
    ("dnsbl.lookups_per_conn", "count", "lower"),
    ("dnsbl.lookup_us", "us", "lower"),
    ("dnsbl.lookup_share", "ratio", "lower"),
    ("dnsbl.cache_hit_ratio", "ratio", "higher"),
    ("dnsbl.wire_queries_per_lookup", "count", "lower"),
    ("dnsbl.zone_build_s", "s", "lower"),
    ("traces.generate_s", "s", "lower"),
    ("smtp.fsm_us_per_session", "us", "lower"),
    ("smtp.fsm_calls_per_session", "count", "lower"),
    ("smtp.client_fsm_us_per_session", "us", "lower"),
    ("mfs.deliver_us", "us", "lower"),
    ("mfs.deliver_p99_us", "us", "lower"),
    ("mfs.deliver_share", "ratio", "lower"),
    ("mfs.shared_fraction", "ratio", "higher"),
    ("mfs.bytes_per_mail", "bytes", "lower"),
    ("net.server_cpu_ms_per_conn", "ms", "lower"),
    ("net.client_cpu_ms_per_conn", "ms", "lower"),
    ("net.handoff_ratio", "ratio", "lower"),
    ("tracing.untraced_conn_per_s", "1/s", "higher"),
    ("tracing.traced_conn_per_s", "1/s", "higher"),
    ("tracing.overhead_pct", "%", "lower"),
    ("session.samples", "count", "higher"),
)

#: per-layer metrics that are exact counts: the same seed must give the
#: same value on every run
EXACT_COUNTS = (
    "sim.events_per_conn", "sim.steps_per_conn", "sim.cpu_slices_per_conn",
    "sim.disk_ios_per_conn", "sim.queue_depth_peak",
    "dnsbl.cache_hit_ratio", "dnsbl.wire_queries_per_lookup",
    "obs.recorder_events_per_conn", "net.handoff_ratio",
    "mfs.shared_fraction",
)

class Outcome:
    """Output checks of one run: what was attempted and what failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)


def upper_quartile(rates: list) -> float:
    """The rate at least a quarter of the rounds reached.

    Every round does the same deterministic work, and on a shared host
    interference only ever slows a round down, so the faster rounds
    estimate the program's own speed; the median tracks the neighbours'
    load, and on the reference box moved twice as much between runs.
    """
    return statistics.quantiles(rates, n=4)[2]


def _ms_percentiles(seconds: list) -> tuple[float, float]:
    from layers import percentile
    return (percentile(seconds, 50) * 1e3, percentile(seconds, 99) * 1e3)


def _record_inputs(workload: str, seed: int) -> None:
    """Print the seed, the digest of the generated inputs and their shape."""
    import workloads
    inputs = workloads.INPUTS[workload](seed)
    shape = ", ".join(f"{k}={v:.4g}" for k, v in
                      workloads.shape(inputs).items())
    print(f"# {workload} seed={seed} "
          f"inputs_sha256={workloads.digest(inputs)} {shape}")


# -- DES workloads -----------------------------------------------------------

def _check_round(workload, rnd, outcome: Outcome) -> None:
    import des
    for label, ok in des.checks(workload, rnd):
        outcome.check(label, ok)


def des_end_to_end(workload: str, seed: int, seconds: float,
                   outcome: Outcome) -> dict:
    import des
    from layers import peak_rss_mb
    # keep each round's figures, not the round, so memory does not grow
    # with the number of rounds a faster program fits in
    conn_rates, setups, latencies, measured = [], [], None, 0.0
    while measured < seconds or len(conn_rates) < MIN_ROUNDS:
        rnd = des.run_round(workload, seed)
        _check_round(workload, rnd, outcome)
        conn_rates.append(rnd.conn_per_s)
        setups.append(rnd.setup_s)
        measured += rnd.timed_s
        if latencies is None:
            # simulated latency of the vanilla baseline, which is deep in
            # saturation on both workloads and so steady across seeds;
            # the optimised variant runs near its knee, where a seed's
            # arrivals move its percentiles by a quarter
            latencies = rnd.variants[0].latencies
            connections = rnd.connections
        del rnd
    p50, p99 = _ms_percentiles(latencies)
    print(f"# {len(conn_rates)} rounds; {connections} connections per "
          f"round; simulated vanilla session latency from {len(latencies)} "
          "sessions")
    return {"conn_per_s": upper_quartile(conn_rates),
            "setup_s": statistics.median(setups),
            "session_p50_ms": p50, "session_p99_ms": p99,
            "peak_rss_mb": peak_rss_mb()}


def des_layer_counts(workload: str, seed: int, outcome: Outcome) -> dict:
    """Per-layer figures of one round with the layer entry points wrapped;
    the exact counts among them depend on the seed alone."""
    import des
    traced, probe = des.traced_round(workload, seed)
    _check_round(workload, traced, outcome)
    conns = traced.connections
    stats = [v.sim.kernel_stats() for v in traced.variants]
    calls, secs = probe.calls, probe.seconds
    out = {
        "sim.events_per_conn": sum(s.events for s in stats) / conns,
        "sim.steps_per_conn": sum(s.steps for s in stats) / conns,
        "sim.cpu_slices_per_conn": calls["cpu.compute"] / conns,
        "sim.disk_ios_per_conn": calls["disk.io"] / conns,
        "sim.queue_depth_peak": max(s.queue_depth_peak for s in stats),
        "server.delivery_ops_per_mail":
            probe.totals["plan_delivery"] / max(1, calls["plan_delivery"]),
        "obs.recorder_events_per_conn": traced.recorder_events / conns,
        "traces.generate_s": secs["traces.generate"],
        "tracing.traced_conn_per_s": traced.conn_per_s,
        "session.samples": len(traced.variants[0].latencies),
    }
    lookups = calls["dnsbl.lookup"]
    if lookups:
        resolvers = [r for v in traced.variants
                     for r in v.server.resolver.resolvers]
        hits = sum(r.cache_stats.hits for r in resolvers)
        out.update({
            "dnsbl.lookups_per_conn": lookups / conns,
            "dnsbl.lookup_us": secs["dnsbl.lookup"] / lookups * 1e6,
            "dnsbl.lookup_share": secs["dnsbl.lookup"] / secs["sim.run"],
            "dnsbl.cache_hit_ratio":
                hits / sum(r.cache_stats.lookups for r in resolvers),
            "dnsbl.wire_queries_per_lookup": calls["dnsbl.wire"] / lookups,
            "dnsbl.zone_build_s": secs["dnsbl.zone"],
        })
    return out


def des_per_layer(workload: str, seed: int, seconds: float,
                  outcome: Outcome) -> dict:
    import des
    from layers import profile_shares
    # untraced rounds, alternating with and without the watchdog capture
    timed = {True: [], False: []}
    rates, events_per_s = [], []
    while sum(timed[True] + timed[False]) < seconds / 2 or \
            len(timed[False]) < 2:
        for watchdogs in (True, False):
            rnd = des.run_round(workload, seed, watchdogs=watchdogs)
            timed[watchdogs].append(rnd.timed_s)
            if watchdogs:
                _check_round(workload, rnd, outcome)
                rates.append(rnd.conn_per_s)
                stats = [v.sim.kernel_stats() for v in rnd.variants]
                events_per_s.append(sum(s.events for s in stats)
                                    / sum(s.wall_seconds for s in stats))
            del rnd
    out = des_layer_counts(workload, seed, outcome)
    profiler = cProfile.Profile()
    _check_round(workload, des.run_round(workload, seed, profiler=profiler),
                 outcome)
    shares = profile_shares(profiler)
    untraced = upper_quartile(rates)
    out.update({
        "sim.events_per_s": statistics.median(events_per_s),
        "sim.self_share": shares.get("sim", 0.0),
        "sim.resources.self_share": shares.get("sim.resources", 0.0),
        "server.self_share": shares.get("server", 0.0),
        "obs.overhead_pct": (statistics.median(timed[True])
                             / statistics.median(timed[False]) - 1) * 100,
        "tracing.untraced_conn_per_s": untraced,
        "tracing.overhead_pct":
            (untraced / out["tracing.traced_conn_per_s"] - 1) * 100,
    })
    return out


# -- loopback workload -------------------------------------------------------

@contextlib.contextmanager
def _workdir():
    """A scratch directory inside the checkout, removed afterwards."""
    path = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def _check_loopback(run, outcome: Outcome) -> None:
    for index, reason in run.ledger.failed:
        outcome.failures.append(f"session {index}: {reason}")
    outcome.attempted += run.ledger.sessions
    # the server's tally (2 checks), every mailbox, the shared mailbox (2)
    outcome.attempted += 2 + len(run.setup.inputs.valid_mailboxes) + 2
    outcome.failures.extend(run.problems)


def loopback_end_to_end(seed: int, seconds: float, outcome: Outcome) -> dict:
    import loopback
    with _workdir() as workdir:
        run = loopback.run(seed, workdir, seconds=seconds)
    _check_loopback(run, outcome)
    p50, p99 = _ms_percentiles(run.latencies)
    print(f"# {len(run.latencies)} timed sessions "
          f"(+{loopback.WARMUP_SESSIONS} warm-up) in {run.window_s:.3f} s")
    return {"conn_per_s": len(run.latencies) / run.window_s,
            "setup_s": statistics.median(run.setup.seconds),
            "session_p50_ms": p50, "session_p99_ms": p99,
            "peak_rss_mb": run.report["peak_rss_mb"]}


def loopback_layer_counts(seed: int, outcome: Outcome) -> dict:
    """Per-layer figures of a fixed-length run with the SMTP state
    machines and the store wrapped; its exact counts repeat per seed."""
    import loopback
    with _workdir() as workdir:
        traced = loopback.run(seed, workdir, traced=True, setup_repeats=1)
    _check_loopback(traced, outcome)
    server = traced.report["probe"]
    calls, secs = server["calls"], server["seconds"]
    sessions = traced.ledger.sessions
    delivered = calls["mfs.deliver"]
    ledger = traced.ledger
    return {
        "smtp.fsm_us_per_session": secs["smtp.fsm"] / sessions * 1e6,
        "smtp.fsm_calls_per_session": calls["smtp.fsm"] / sessions,
        "smtp.client_fsm_us_per_session":
            traced.client_probe.seconds["smtp.client_fsm"] / sessions * 1e6,
        "mfs.deliver_us": secs["mfs.deliver"] / delivered * 1e6,
        "mfs.deliver_p99_us": server["deliver_p99_s"] * 1e6,
        "mfs.deliver_share": secs["mfs.deliver"] / traced.window_s,
        "mfs.shared_fraction": len(ledger.multi_ids)
        / (len(ledger.multi_ids) + len(ledger.single_ids)),
        "mfs.bytes_per_mail": server["totals"]["mfs.deliver"] / delivered,
        "net.handoff_ratio": traced.report["handoffs"]
        / traced.report["connections"],
        "tracing.traced_conn_per_s": len(traced.latencies) / traced.window_s,
    }


def loopback_per_layer(seed: int, seconds: float, outcome: Outcome) -> dict:
    import loopback
    with _workdir() as workdir:
        plain = loopback.run(seed, workdir, seconds=seconds / 2,
                             setup_repeats=1)
    _check_loopback(plain, outcome)
    out = loopback_layer_counts(seed, outcome)
    untraced = len(plain.latencies) / plain.window_s
    out.update({
        "traces.generate_s": plain.setup.generate_seconds[0],
        "net.server_cpu_ms_per_conn":
            plain.server_cpu_s / len(plain.latencies) * 1e3,
        "net.client_cpu_ms_per_conn":
            plain.client_cpu_s / len(plain.latencies) * 1e3,
        "tracing.untraced_conn_per_s": untraced,
        "tracing.overhead_pct":
            (untraced / out["tracing.traced_conn_per_s"] - 1) * 100,
        "session.samples": len(plain.latencies),
    })
    return out


def exact_counts(workload: str, seed: int) -> dict:
    """The exact-count per-layer metrics of one workload and seed."""
    outcome = Outcome()
    values = (des_layer_counts(workload, seed, outcome)
              if workload in DES_WORKLOADS
              else loopback_layer_counts(seed, outcome))
    if outcome.failures:
        raise RuntimeError(f"checks failed: {outcome.failures}")
    return {name: values.get(name, 0.0) for name in EXACT_COUNTS}


# -- command line ------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """One run; returns ``(outcome, metrics)`` with metrics by name."""
    outcome = Outcome()
    _record_inputs(workload, seed)
    if workload in DES_WORKLOADS:
        fn = des_per_layer if trace else des_end_to_end
        values = fn(workload, seed, seconds, outcome)
    else:
        fn = loopback_per_layer if trace else loopback_end_to_end
        values = fn(seed, seconds, outcome)
    names = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit, _ in names}
    return outcome, metrics


def print_metrics(workload: str, metrics: dict) -> None:
    for name, entry in metrics.items():
        print(f"{workload:<14} {name:<32} {entry['value']:>16.6g} "
              f"{entry['unit']}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload in a fresh process, untraced then traced."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT)
            sys.stderr.write(proc.stderr)
            # everything but the JSON result line
            print(proc.stdout.rstrip().rpartition("\n")[0])
            if proc.returncode != 0:
                status = 1
                print(f"{workload} --trace {trace}: FAILED "
                      f"(exit {proc.returncode})")
    return status


def list_metrics() -> None:
    print("end-to-end metrics (--trace 0):")
    for name, unit, better in END_TO_END:
        print(f"  {name:<32} {unit:<6} {better} is better")
    print("  failed_frac                      ratio  lower is better "
          "(failed / attempted in the result line)")
    print("per-layer metrics (--trace 1):")
    for name, unit, better in PER_LAYER:
        exact = "  exact count" if name in EXACT_COUNTS else ""
        print(f"  {name:<32} {unit:<6} {better} is better{exact}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Seeded end-to-end and per-layer benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--list", action="store_true",
                        help="print every metric with its unit")
    args = parser.parse_args(argv)
    if args.list:
        list_metrics()
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required without --all or --list")
    started = time.perf_counter()
    outcome, metrics = run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    print_metrics(args.workload, metrics)
    for failure in outcome.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    failed = len(outcome.failures)
    print(f"{args.workload:<14} {'failed_frac':<32} "
          f"{failed / outcome.attempted:>16.6g} ratio "
          f"({failed} of {outcome.attempted} checks)")
    print(f"# run took {time.perf_counter() - started:.1f} s")
    print(json.dumps({"correct": not failed, "attempted": outcome.attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
