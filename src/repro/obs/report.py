"""``repro-experiments trace-report``: summarise a raw trace file.

Five sections:

* **per-phase latency** — count, total simulated time and exact
  nearest-rank percentiles for every span phase, per experiment;
* **fork-avoidance breakdown** — per architecture: connection outcomes,
  forks and delegations, and how many sessions never cost a worker
  process (the paper's §5 claim made visible per connection);
* **critical-path blame** — each connection's end-to-end latency
  attributed to exclusive envelope/dnsbl/fork/delegate/data/other
  segments, plus the top-K slowest-connection exemplars and its own
  blamed-vs-raw reconciliation (:mod:`repro.obs.critical_path`);
* **kernel scheduler** — per experiment: events processed, generator
  resumes and the peak event-heap depth, from the capture-level metric
  dumps — scheduler regressions stay diagnosable from the trace alone;
* **reconciliation** — span-derived totals checked against the metrics
  registry dumps embedded in the same trace (the per-phase sums must
  agree with the aggregates the figures report to within 1%).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Optional

from .critical_path import critical_path_report

__all__ = ["trace_report", "reconcile"]

#: (label, span-derived total, metric name) pairs the trace must satisfy.
#: Exact by construction — spans and counters are written at the same
#: simulation instant — so the 1% tolerance only absorbs sessions that a
#: hard ``run(until=...)`` cutoff caught mid-phase.
_RECONCILIATIONS = (
    ("finished connections", "connection", None, "server.connections.finished"),
    ("accepted mails", "data", None, "server.mails.accepted"),
    ("dnsbl checks", "dnsbl", None, "server.dnsbl.lookups"),
    ("mailbox writes", "delivery", "rcpts", "server.mailbox.writes"),
    ("forks", "fork", None, "server.cpu.forks"),
)

_TOLERANCE = 0.01


def _percentile(ordered: list[float], q: float) -> float:
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _metric_value(dump) -> float:
    if isinstance(dump, dict):          # gauge or histogram dump
        if "count" in dump:
            return float(dump["count"])
        return float(dump.get("value", 0.0))
    return float(dump)


class _Reconciliation:
    __slots__ = ("exp", "run", "label", "spans", "metric", "ok")

    def __init__(self, exp, run, label, spans, metric):
        self.exp = exp
        self.run = run
        self.label = label
        self.spans = spans
        self.metric = metric
        if metric == 0:
            self.ok = spans == 0
        else:
            self.ok = abs(spans - metric) / metric <= _TOLERANCE


def reconcile(records: Iterable[dict]) -> list[_Reconciliation]:
    """Check span-derived totals against the embedded metrics dumps.

    Returns one entry per ``(experiment, run, invariant)`` for every
    invariant whose metric appears in that run's dump.
    """
    span_totals: dict[tuple, float] = defaultdict(float)
    metric_dumps: dict[tuple, dict] = {}
    for record in records:
        exp = record.get("exp", "")
        if record["type"] == "span":
            attrs = record.get("attrs") or {}
            for _, phase, attr, _ in _RECONCILIATIONS:
                if record["phase"] == phase:
                    amount = attrs.get(attr, 1) if attr else 1
                    span_totals[(exp, record["run"], phase, attr)] += amount
        elif record["type"] == "metrics" and record.get("run", 0) != 0:
            metric_dumps[(exp, record["run"])] = record["metrics"]
    results = []
    for (exp, run), dump in sorted(metric_dumps.items()):
        for label, phase, attr, metric_name in _RECONCILIATIONS:
            if metric_name not in dump:
                continue
            metric = _metric_value(dump[metric_name])
            spans = span_totals.get((exp, run, phase, attr), 0.0)
            if metric == 0 and spans == 0:
                continue
            results.append(_Reconciliation(exp, run, label, spans, metric))
    return results


def trace_report(records: list[dict]) -> tuple[str, bool]:
    """Render the report; returns ``(text, all_reconciliations_hold)``."""
    lines: list[str] = []
    spans_by_phase: dict[tuple, list[float]] = defaultdict(list)
    run_attrs: dict[tuple, dict] = {}
    outcome_by_arch: dict[tuple, dict] = defaultdict(
        lambda: defaultdict(int))
    counts_by_arch: dict[tuple, dict] = defaultdict(
        lambda: defaultdict(int))

    kernel_by_exp: dict[str, dict] = defaultdict(lambda: defaultdict(float))

    for record in records:
        exp = record.get("exp", "")
        if record["type"] == "run":
            run_attrs[(exp, record["run"])] = record.get("attrs", {})
        elif record["type"] == "metrics" and record.get("run", 0) == 0:
            # capture-level dump: kernel totals for this experiment (one
            # record per shard; counters sum, the depth gauge takes max)
            bucket = kernel_by_exp[exp]
            for name, dump in record["metrics"].items():
                if not name.startswith("kernel."):
                    continue
                value = _metric_value(dump)
                if name == "kernel.queue_depth_peak":
                    bucket[name] = max(bucket[name], value)
                else:
                    bucket[name] += value
        elif record["type"] == "span":
            phase = record["phase"]
            spans_by_phase[(exp, phase)].append(record["t1"] - record["t0"])
            arch = run_attrs.get((exp, record["run"]), {}).get("arch", "?")
            key = (exp, arch)
            if phase == "connection":
                outcome = (record.get("attrs") or {}).get("outcome", "?")
                outcome_by_arch[key][outcome] += 1
                counts_by_arch[key]["connections"] += 1
            elif phase in ("fork", "delegate"):
                counts_by_arch[key][phase + "s"] += 1

    lines.append("per-phase latency (simulated seconds)")
    lines.append(f"{'experiment':<14}{'phase':<12}{'count':>8}"
                 f"{'total':>12}{'p50':>10}{'p90':>10}{'p99':>10}")
    for (exp, phase), durations in sorted(spans_by_phase.items()):
        durations.sort()
        lines.append(
            f"{exp:<14}{phase:<12}{len(durations):>8}"
            f"{sum(durations):>12.3f}"
            f"{_percentile(durations, 50):>10.4f}"
            f"{_percentile(durations, 90):>10.4f}"
            f"{_percentile(durations, 99):>10.4f}")
    if not spans_by_phase:
        lines.append("(no spans in trace)")

    lines.append("")
    lines.append("fork-avoidance breakdown")
    lines.append(f"{'experiment':<14}{'arch':<10}{'conns':>7}{'forks':>7}"
                 f"{'deleg':>7}{'accept':>8}{'bounce':>8}{'unfin':>7}"
                 f"{'reject':>8}{'no-worker':>10}")
    for key in sorted(counts_by_arch):
        exp, arch = key
        outcomes = outcome_by_arch[key]
        counts = counts_by_arch[key]
        conns = counts["connections"]
        # sessions that finished without ever occupying a worker process:
        # under fork-after-trust every non-accepted outcome stays in the
        # master's event loop (the paper's avoided forks)
        no_worker = (conns - outcomes.get("accepted", 0)
                     if arch == "hybrid" else 0)
        lines.append(
            f"{exp:<14}{arch:<10}{conns:>7}{counts['forks']:>7}"
            f"{counts['delegates']:>7}{outcomes.get('accepted', 0):>8}"
            f"{outcomes.get('bounce', 0):>8}"
            f"{outcomes.get('unfinished', 0):>7}"
            f"{outcomes.get('rejected', 0):>8}{no_worker:>10}")
    if not counts_by_arch:
        lines.append("(no connection spans in trace)")

    lines.append("")
    cp_text, cp_ok = critical_path_report(records)
    lines.append(cp_text)

    lines.append("")
    lines.append("kernel scheduler")
    lines.append(f"{'experiment':<14}{'events':>12}{'steps':>12}"
                 f"{'depth-peak':>12}")
    for exp in sorted(kernel_by_exp):
        kernel = kernel_by_exp[exp]
        lines.append(
            f"{exp:<14}{kernel['kernel.events']:>12.0f}"
            f"{kernel['kernel.steps']:>12.0f}"
            f"{kernel['kernel.queue_depth_peak']:>12.0f}")
    if not kernel_by_exp:
        lines.append("(no kernel metrics in trace)")

    lines.append("")
    lines.append("reconciliation: spans vs metrics registry (tolerance 1%)")
    checks = reconcile(records)
    lines.append(f"{'experiment':<14}{'run':>4} {'invariant':<24}"
                 f"{'spans':>10}{'metrics':>10}  ok")
    all_ok = True
    for check in checks:
        all_ok = all_ok and check.ok
        lines.append(
            f"{check.exp:<14}{check.run:>4} {check.label:<24}"
            f"{check.spans:>10.0f}{check.metric:>10.0f}  "
            f"{'yes' if check.ok else 'NO'}")
    if not checks:
        lines.append("(no per-run metrics records in trace)")
    return "\n".join(lines), all_ok and cp_ok
