"""``repro-experiments``: run the paper's experiments from the shell.

Examples::

    repro-experiments --list
    repro-experiments fig8 fig15
    repro-experiments --scale full --jobs 4 --write-md EXPERIMENTS.md
    repro-experiments --clear-cache
    repro-experiments fig8 --profile
    repro-experiments fig8 --trace fig8.jsonl --series fig8.series
    repro-experiments fig8 --record fig8.events.jsonl.gz
    repro-experiments fig8 --live
    repro-experiments trace-report fig8.jsonl
    repro-experiments series-report fig8.series
    repro-experiments diff-report good.events.jsonl bad.events.jsonl
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..obs.diff import DEFAULT_CONTEXT, diff_report
from ..obs.export import TraceFormatError, read_trace, write_trace
from ..obs.flightrec import format_event
from ..obs.invariants import violation_report
from ..obs.report import trace_report
from ..obs.timeseries import LiveDashboard, series_report
from .cache import ResultCache
from .experiment import Scale
from .figures import EXPERIMENTS
from .parallel import ExperimentFailure, run_experiments
from .report import render_result, write_experiments_md

__all__ = ["main", "SUBCOMMANDS"]

#: subcommands dispatched before option parsing; ``tools/check_docs.py``
#: validates the fenced shell examples in the docs against this registry
SUBCOMMANDS = {
    "trace-report": "summarise a trace file (latency, blame table, "
                    "reconciliation)",
    "series-report": "summarise a time-series file (goodput over time, "
                     "warm-up detection)",
    "diff-report": "align two flight recordings and name the first "
                   "diverging event per connection",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of the spam-aware "
                    "mail server paper (ICDCS 2009).")
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids to run (default: all), or "
                             "'trace-report FILE' / 'series-report FILE' "
                             "to summarise a previous capture")
    parser.add_argument("--scale", choices=(Scale.QUICK, Scale.FULL),
                        default=Scale.QUICK,
                        help="quick smoke runs or full published-number runs")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    parser.add_argument("--write-md", metavar="PATH", default=None,
                        help="also write an EXPERIMENTS.md-style report")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="run experiments across N worker processes "
                             "(default: 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not update the on-disk result "
                             "cache")
    parser.add_argument("--clear-cache", action="store_true",
                        help="delete all cached results and exit")
    parser.add_argument("--profile", action="store_true",
                        help="run one experiment under cProfile and dump "
                             "<id>-<scale>.prof (implies --jobs 1, no cache)")
    parser.add_argument("--trace", metavar="OUT", default=None,
                        help="capture spans + metrics while running and "
                             "write them to OUT (.jsonl or .csv; bypasses "
                             "the result cache)")
    parser.add_argument("--series", metavar="OUT", default=None,
                        help="sample every metric per simulated-time window "
                             "and write the series to OUT (.jsonl or .csv; "
                             "bypasses the result cache)")
    parser.add_argument("--series-interval", type=float, default=1.0,
                        metavar="SECONDS",
                        help="sampling window in simulated seconds for "
                             "--series/--live (default: 1.0)")
    parser.add_argument("--record", metavar="OUT", default=None,
                        help="flight-record every structured event while "
                             "running and write the stream to OUT (.jsonl "
                             "or .csv, optionally .gz; bypasses the result "
                             "cache)")
    parser.add_argument("--watchdogs", default=True,
                        action=argparse.BooleanOptionalAction,
                        help="run the online invariant watchdogs over a "
                             "bounded event ring (default: on; violations "
                             "are reported and fail the run)")
    parser.add_argument("--live", action="store_true",
                        help="render a live per-window dashboard while "
                             "running (needs --jobs 1)")
    parser.add_argument("--force", action="store_true",
                        help="overwrite existing --trace/--series output "
                             "files instead of refusing")
    return parser


def _profile_one(exp_id: str, scale: str) -> int:
    import cProfile
    import pstats

    from ..obs.trace import capture

    dump = f"{exp_id}-{scale}.prof"
    profiler = cProfile.Profile()
    profiler.enable()
    # a span-less capture collects the kernel counters so the profile can
    # be read next to the kernel's workload shape
    with capture(keep_spans=False) as tr:
        result = EXPERIMENTS[exp_id]().run(scale=scale)
    profiler.disable()
    profiler.dump_stats(dump)
    print(render_result(result))
    print()
    print("kernel:")
    for name in ("kernel.events", "kernel.steps", "kernel.queue_depth_peak"):
        metric = tr.registry.get(name)
        if metric is not None:
            print(f"  {name:<24} {metric.dump()}")
    print()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(20)
    print(f"wrote {dump}")
    return 0 if result.all_anchors_hold else 1


def _trace_report_cmd(argv: list[str]) -> int:
    """``repro-experiments trace-report FILE``: summarise a trace file."""
    if len(argv) != 1:
        print("usage: repro-experiments trace-report FILE", file=sys.stderr)
        return 2
    try:
        records = read_trace(argv[0])
    except (OSError, TraceFormatError) as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 2
    text, all_ok = trace_report(records)
    print(text)
    if not all_ok:
        print("trace does not reconcile with its metrics", file=sys.stderr)
        return 1
    return 0


def _series_report_cmd(argv: list[str]) -> int:
    """``repro-experiments series-report FILE``: summarise a series file."""
    if len(argv) != 1:
        print("usage: repro-experiments series-report FILE", file=sys.stderr)
        return 2
    try:
        records = read_trace(argv[0])
    except (OSError, TraceFormatError) as exc:
        print(f"cannot read series: {exc}", file=sys.stderr)
        return 2
    print(series_report(records))
    return 0


def _diff_report_cmd(argv: list[str]) -> int:
    """``repro-experiments diff-report A B``: first divergence per stream.

    Exit status: 0 when the recordings agree, 1 when they diverge, 2 when
    either file cannot be read.
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiments diff-report",
        description="Align two flight recordings by (experiment, run, "
                    "connection) and report the first diverging event of "
                    "each stream.")
    parser.add_argument("a", metavar="A", help="baseline recording")
    parser.add_argument("b", metavar="B", help="recording to compare")
    parser.add_argument("--context", type=int, default=DEFAULT_CONTEXT,
                        metavar="K",
                        help="events of context around each divergence "
                             f"(default: {DEFAULT_CONTEXT})")
    args = parser.parse_args(argv)
    try:
        a_records = read_trace(args.a)
        b_records = read_trace(args.b)
    except (OSError, TraceFormatError) as exc:
        print(f"cannot read recording: {exc}", file=sys.stderr)
        return 2
    text, n_diverging = diff_report(a_records, b_records,
                                    a_name=args.a, b_name=args.b,
                                    context=args.context)
    print(text)
    return 1 if n_diverging else 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace-report":
        return _trace_report_cmd(list(argv[1:]))
    if argv and argv[0] == "series-report":
        return _series_report_cmd(list(argv[1:]))
    if argv and argv[0] == "diff-report":
        return _diff_report_cmd(list(argv[1:]))
    args = build_parser().parse_args(argv)
    if args.list:
        for exp_id, cls in EXPERIMENTS.items():
            print(f"{exp_id:14s} {cls.title}")
        return 0
    if args.clear_cache:
        removed = ResultCache().clear()
        print(f"removed {removed} cached result(s)")
        return 0
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    if args.live and args.jobs != 1:
        print("--live needs --jobs 1 (samples arrive in worker processes)",
              file=sys.stderr)
        return 2
    # refuse to silently clobber a previous capture — with --jobs N it is
    # too easy to overwrite the file another invocation is still reading
    for out in (args.trace, args.series, args.record):
        if out and Path(out).exists() and not args.force:
            print(f"refusing to overwrite existing {out!r}; move it away "
                  "or pass --force", file=sys.stderr)
            return 2
    chosen = args.experiments or list(EXPERIMENTS)
    unknown = [e for e in chosen if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    if args.profile:
        if len(chosen) != 1:
            print("--profile needs exactly one experiment id",
                  file=sys.stderr)
            return 2
        return _profile_one(chosen[0], args.scale)

    series_on = args.series is not None or args.live
    dashboard = LiveDashboard(sys.stdout, interval=args.series_interval) \
        if args.live else None
    # a cached result carries no spans, samples or events, so capturing
    # runs fresh
    cache = None if (args.no_cache or args.trace or series_on
                     or args.record) else ResultCache()
    try:
        outcomes = run_experiments(
            chosen, args.scale, jobs=args.jobs, cache=cache,
            traced=args.trace is not None,
            series_interval=args.series_interval if series_on else None,
            on_sample=dashboard.on_sample if dashboard else None,
            record=args.record is not None,
            watchdogs=args.watchdogs)
    except ExperimentFailure as exc:
        if dashboard:
            dashboard.close()
        print(f"error: {exc}", file=sys.stderr)
        print("--- worker traceback ---", file=sys.stderr)
        print(exc.worker_traceback.rstrip(), file=sys.stderr)
        if exc.recorder_tail:
            print(f"--- flight recorder: last {len(exc.recorder_tail)} "
                  "event(s) before the crash ---", file=sys.stderr)
            for record in exc.recorder_tail:
                print(f"  {format_event(record)}", file=sys.stderr)
        return 1
    if dashboard:
        dashboard.close()
    results = []
    failures = 0
    for outcome in outcomes:
        result = outcome.result
        suffix = "(cached)" if outcome.cached else \
            f"(ran in {outcome.elapsed:.1f}s)"
        result.notes = (result.notes + " " if result.notes else "") + suffix
        results.append(result)
        print(render_result(result))
        print()
        failures += sum(1 for a in result.anchors if not a.holds)
    if args.trace:
        n = write_trace(args.trace,
                        (r for o in outcomes for r in o.records))
        print(f"wrote {n} trace record(s) to {args.trace}")
    if args.series:
        n = write_trace(args.series,
                        (r for o in outcomes for r in o.series))
        print(f"wrote {n} series record(s) to {args.series}")
    if args.record:
        n = write_trace(args.record,
                        (r for o in outcomes for r in o.events))
        print(f"wrote {n} event record(s) to {args.record}")
    violations = [v for o in outcomes for v in o.violations]
    if violations:
        print(violation_report(violations), file=sys.stderr)
    if args.write_md:
        write_experiments_md(results, args.write_md)
        print(f"wrote {args.write_md}")
    if failures:
        print(f"{failures} anchor(s) did not hold", file=sys.stderr)
        return 1
    if violations:
        print(f"{len(violations)} invariant violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
