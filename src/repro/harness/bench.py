"""``repro-bench``: the continuous-benchmark pipeline.

Runs the DES-kernel microbenchmark (the Figure-8-shaped workload from
``benchmarks/test_sim_speed.py``) and a fixed subset of the figure
experiments, and writes one schema-versioned ``BENCH_<runstamp>.json``
artifact per invocation — the repo's perf trajectory.  ``compare`` diffs
two artifacts and exits nonzero on regression, so CI can watch the
PR 1 kernel speedup (and everything since) without gating merges::

    repro-bench --quick
    repro-bench --out artifacts/
    repro-bench compare BENCH_OLD.json BENCH_NEW.json --threshold 10

Artifact field names are fixed by ``BENCH_FIELDS`` in
:mod:`repro.obs.contract` and documented in ``docs/OBSERVABILITY.md``;
:func:`run_bench` refuses to write an artifact whose keys differ.
"""

from __future__ import annotations

import argparse
import json
import platform as _platform
import resource
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

from ..obs.contract import BENCH_FIELDS
from ..obs.metrics import ObsError
from ..obs.trace import capture
from ..sim.core import Simulator
from ..sim.resources import CPU
from .figures import EXPERIMENTS

__all__ = ["main", "run_bench", "compare", "kernel_microbench",
           "SUBCOMMANDS", "SCHEMA"]

# /2 added ``sched`` and ``kernel_timeout_churn_per_sec``, /3 dropped them
# again with the timing-wheel backend; ``compare`` lines old and new
# revisions up on their shared fields
SCHEMA = "repro-bench/3"

#: subcommands dispatched before option parsing (see ``tools/check_docs.py``)
SUBCOMMANDS = {
    "compare": "diff two BENCH_*.json artifacts; exit 1 on regression",
}

#: the fixed figure subset: one per major subsystem — workload models +
#: storage costs (table1), MFS refcounts (fig4), the server architectures
#: under load (fig8), the DNSBL cache (fig15)
FIGURES = ("table1", "fig4", "fig8", "fig15")
FIGURES_QUICK = ("table1", "fig4")

#: higher-is-better / lower-is-better artifact entries ``compare`` checks
_HIGHER_BETTER = ("kernel_events_per_sec", "kernel_steps_per_sec")


def _fig8_shaped(n_clients: int, steps: int) -> Simulator:
    """The kernel microbench workload (see ``benchmarks/test_sim_speed.py``)."""
    sim = Simulator()
    cpu = CPU(sim)

    def client(pid):
        for _ in range(steps):
            yield from cpu.compute(pid, 1e-4)
            yield sim.timeout(1e-3)

    for pid in range(n_clients):
        sim.process(client(pid))
    sim.run()
    return sim


def kernel_microbench(quick: bool = False) -> dict:
    """Best-of-N kernel events/sec and steps/sec on the Fig. 8 shape."""
    n_clients, steps, repeats = (200, 30, 2) if quick else (400, 60, 4)
    best = None
    for _ in range(repeats):
        stats = _fig8_shaped(n_clients, steps).kernel_stats()
        if best is None or stats.events_per_sec > best.events_per_sec:
            best = stats
    return {"kernel_events_per_sec": round(best.events_per_sec),
            "kernel_steps_per_sec": round(best.steps_per_sec)}


def _tracing_overhead_pct(quick: bool = False) -> float:
    """Wall-time cost of capture(series) vs untraced, on the microbench."""
    n_clients, steps, repeats = (200, 30, 2) if quick else (400, 60, 3)

    def best_of(fn):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    def traced():
        with capture(series_interval=0.25):
            _fig8_shaped(n_clients, steps)

    _fig8_shaped(n_clients, steps)  # warm up
    plain = best_of(lambda: _fig8_shaped(n_clients, steps))
    enabled = best_of(traced)
    return round((enabled - plain) / plain * 100.0, 1)


def run_bench(quick: bool = False, out_dir: str = ".",
              figures: Optional[tuple] = None) -> tuple[dict, Path]:
    """Run the full bench and write ``BENCH_<runstamp>.json``.

    Returns ``(artifact, path)``.  The artifact's keys must match
    ``BENCH_FIELDS`` exactly — a drifted field set raises instead of
    silently writing an artifact ``compare`` cannot line up.
    """
    start = time.perf_counter()
    runstamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    if figures is None:
        figures = FIGURES_QUICK if quick else FIGURES
    print(f"repro-bench: kernel microbench "
          f"({'quick' if quick else 'full'} scale)...")
    kernel = kernel_microbench(quick)
    figure_walls = {}
    for exp_id in figures:
        print(f"repro-bench: {exp_id}...")
        t0 = time.perf_counter()
        EXPERIMENTS[exp_id]().run(scale="quick")
        figure_walls[exp_id] = round(time.perf_counter() - t0, 3)
    print("repro-bench: tracing overhead...")
    overhead = _tracing_overhead_pct(quick)
    artifact = {
        "schema": SCHEMA,
        "runstamp": runstamp,
        "python": _platform.python_version(),
        "platform": _platform.platform(),
        "scale": "quick" if quick else "full",
        **kernel,
        "figures": figure_walls,
        "tracing_overhead_pct": overhead,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "total_wall_seconds": round(time.perf_counter() - start, 3),
    }
    drift = set(artifact) ^ set(BENCH_FIELDS)
    if drift:
        raise ObsError(f"bench artifact fields {sorted(drift)} disagree "
                       "with repro.obs.contract.BENCH_FIELDS")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{runstamp}.json"
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    return artifact, path


def compare(old_path: str, new_path: str,
            threshold: float = 10.0) -> tuple[str, list[str]]:
    """Diff two artifacts; returns ``(report text, regressions)``.

    A regression is a higher-is-better entry (kernel events/sec,
    steps/sec) dropping by ``threshold`` percent or more, or a per-figure
    wall time growing by that much.  Informational entries (tracing
    overhead, RSS) are reported but never flagged — they are too noisy to
    gate on.

    Artifacts from different schema revisions line up on the
    *intersection* of their fields: an entry present in only one artifact
    is reported as a warning and skipped, never compared against a
    made-up zero, so an old baseline stays usable after new fields join
    the schema.
    """
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    lines = [f"repro-bench compare (threshold {threshold:g}%)",
             f"{'entry':<28}{'old':>14}{'new':>14}{'delta':>9}"]
    regressions: list[str] = []
    warnings: list[str] = []
    if old.get("schema") != new.get("schema"):
        warnings.append(f"schema {old.get('schema')!r} vs "
                        f"{new.get('schema')!r} — comparing shared "
                        "fields only")
    for side, extra in (("old", sorted(set(old) - set(new))),
                        ("new", sorted(set(new) - set(old)))):
        if extra:
            warnings.append(f"only in {side} artifact (skipped): "
                            + ", ".join(extra))
    fig_old = set(old.get("figures", {}))
    fig_new = set(new.get("figures", {}))
    for exp_id in sorted(fig_old ^ fig_new):
        side = "old" if exp_id in fig_old else "new"
        warnings.append(f"figures.{exp_id} only in {side} artifact "
                        "(skipped)")

    def row(name, old_v, new_v, flag):
        delta = (new_v - old_v) / old_v * 100.0 if old_v else 0.0
        marker = "  REGRESSION" if flag else ""
        lines.append(f"{name:<28}{old_v:>14g}{new_v:>14g}"
                     f"{delta:>8.1f}%{marker}")
        if flag:
            regressions.append(name)

    for name in _HIGHER_BETTER:
        if name not in old or name not in new:
            continue               # covered by the asymmetry warnings
        old_v, new_v = old[name], new[name]
        row(name, old_v, new_v,
            bool(old_v) and new_v < old_v * (1 - threshold / 100.0))
    for exp_id in sorted(fig_old & fig_new):
        old_v = old["figures"][exp_id]
        new_v = new["figures"][exp_id]
        row(f"figures.{exp_id} (s)", old_v, new_v,
            bool(old_v) and new_v > old_v * (1 + threshold / 100.0))
    for name in ("tracing_overhead_pct", "peak_rss_kb"):
        if name in old and name in new:
            row(name, old[name], new[name], False)
    for warning in warnings:
        lines.append(f"warning: {warning}")
    if regressions:
        lines.append(f"{len(regressions)} regression(s): "
                     + ", ".join(regressions))
    else:
        lines.append("no regressions")
    return "\n".join(lines), regressions


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Continuous benchmark: kernel events/sec, figure wall "
                    "times, tracing overhead, peak RSS — one schema-"
                    "versioned BENCH_<runstamp>.json per run.")
    parser.add_argument("--quick", action="store_true",
                        help="smaller microbench and figure subset (CI)")
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="directory for the artifact (default: .)")
    return parser


def build_compare_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench compare",
        description="Diff two BENCH_*.json artifacts; exit 1 on regression.")
    parser.add_argument("old", help="baseline BENCH_*.json")
    parser.add_argument("new", help="candidate BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=10.0,
                        metavar="PCT",
                        help="regression threshold in percent (default: 10)")
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "compare":
        args = build_compare_parser().parse_args(argv[1:])
        try:
            text, regressions = compare(args.old, args.new, args.threshold)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot compare artifacts: {exc}", file=sys.stderr)
            return 2
        print(text)
        return 1 if regressions else 0
    args = build_parser().parse_args(argv)
    artifact, path = run_bench(quick=args.quick, out_dir=args.out)
    print(json.dumps(artifact, indent=2, sort_keys=True))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
