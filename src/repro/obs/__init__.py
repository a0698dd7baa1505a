"""``repro.obs`` — the unified observability layer.

A flight-recorder event stream, the spans derived from it, and a typed
metrics registry, threaded through every hot path of the reproduction: the
DES kernel, the simulated mail server's connection lifecycle (accept →
envelope → trust → fork/delegate → DATA → close), the MFS write/refcount
paths, the DNSBL cache, and the asyncio server's task queues.  The set of
events and metrics that may ever be emitted is fixed by the contract in
:mod:`repro.obs.contract` and
documented name-for-name in ``docs/OBSERVABILITY.md`` (a test diffs the
two).

Tracing is off by default and adds nothing to the hot paths when off;
enable it with :func:`capture` (or ``repro-experiments --trace OUT``):

>>> from repro.obs import MetricsRegistry, capture, tracer
>>> reg = MetricsRegistry()
>>> reg.counter("demo.connections").inc(3)
>>> reg.counter("demo.connections").value
3
>>> tracer().enabled                    # disabled outside capture()
False
>>> with capture(context={"exp": "demo"}) as tr:
...     run = tr.begin_run(arch="hybrid")
...     tr.recorder.emit("envelope.done", 1.5, run, conn=1,
...                      attrs=(0.0, "event", "trusted"))
...     tr.span_count
1
>>> [r["attrs"] for r in tr.records() if r["type"] == "span"]
[{'mode': 'event', 'outcome': 'trusted'}]
"""

from .contract import EVENTS, INVARIANTS, METRICS, SERIES_FIELDS, declare
from .critical_path import (CriticalPathAnalysis, analyze_critical_path,
                            critical_path_report)
from .diff import Divergence, diff_records, diff_report
from .export import TraceFormatError, read_trace, write_trace
from .flightrec import RECORD_VERSION, FlightRecorder
from .invariants import (InvariantEngine, InvariantViolation, check_events,
                         violation_report)
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry, ObsError)
from .report import reconcile, trace_report
from .timeseries import LiveDashboard, SeriesCursor, series_report
from .trace import (NULL_TRACER, NullTracer, Tracer, active_registry,
                    capture, tracer)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "ObsError",
    "METRICS", "EVENTS", "INVARIANTS", "SERIES_FIELDS", "declare",
    "Tracer", "NullTracer", "NULL_TRACER", "tracer", "active_registry",
    "capture",
    "write_trace", "read_trace", "TraceFormatError",
    "trace_report", "reconcile",
    "SeriesCursor", "LiveDashboard", "series_report",
    "CriticalPathAnalysis", "analyze_critical_path", "critical_path_report",
    "FlightRecorder", "RECORD_VERSION",
    "Divergence", "diff_records", "diff_report",
    "InvariantEngine", "InvariantViolation", "check_events",
    "violation_report",
]
