"""Span tracer and the process-wide observability runtime.

Tracing is **off by default and zero-overhead when off**: instrumented
modules look the runtime up once at construction time (``tracer()`` /
``active_registry()``) and store ``None`` when it is disabled, so their
hot paths carry nothing but an ``is not None`` test that always fails.
The DES kernel goes further — it publishes its counters once per
``Simulator.run`` call, never per event, so even an *enabled* tracer adds
no per-event work.

Instrumented code emits flight-recorder events only; the tracer derives
each span ``(t0, t)`` from the closing event (an ``EVENTS`` entry with a
``span`` phase) that ends it, which carries the phase's start as ``t0``.

Enable tracing with the :func:`capture` context manager; the harness does
this around each experiment for ``repro-experiments --trace``:

>>> with capture(context={"exp": "demo"}) as tr:
...     run = tr.begin_run(arch="hybrid")
...     tr.recorder.emit("envelope.done", 1.5, run, 1,
...                      {"t0": 0.0, "mode": "event", "outcome": "trusted"})
>>> [(r["phase"], r["t0"], r["t1"]) for r in tr.records()
...  if r["type"] == "span"]
[('envelope', 0.0, 1.5)]
>>> tracer() is NULL_TRACER
True
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

from .contract import EVENTS, METRICS, SERIES_FIELDS, declare
from .metrics import MetricsRegistry, ObsError

#: raw sample-record fields (context keys like ``exp`` merge in later)
_SERIES_KEYS = frozenset(SERIES_FIELDS)

#: closing event kind -> the span phase it ends
_SPAN_OF = {kind: spec.span for kind, spec in EVENTS.items() if spec.span}

__all__ = ["Tracer", "NullTracer", "NULL_TRACER", "tracer",
           "active_registry", "capture"]

#: trace file format version, stamped into every meta record
TRACE_VERSION = 1


class Tracer:
    """Collects span, run and metrics records for one capture.

    A *run* is one instrumented server instance; experiments that build
    several servers (e.g. the Figure 8 bounce-ratio sweep) produce one run
    per server, numbered in construction order, so merged traces are
    deterministic.  ``registry`` is the capture-level registry that
    process-wide instruments (kernel, DNSBL cache, MFS, net) attach to.
    """

    enabled = True

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 context: Optional[dict] = None,
                 series_interval: Optional[float] = None,
                 on_sample=None, record: bool = False,
                 watchdogs: bool = False, keep_spans: bool = True,
                 run_base: int = 0):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.context = dict(context or {})
        self._runs: list[tuple[int, dict]] = []
        self._spans: list[tuple] = []
        self._metrics: list[tuple[int, dict]] = []
        self._samples: list[dict] = []
        # run_base offsets run and simulator ids — the harness gives each
        # intra-experiment shard its own base so ids stay globally unique
        # when shard captures are merged into one trace/series/recording
        self._next_run = run_base
        self._next_sim = run_base
        self.series_interval = series_interval
        self._on_sample = on_sample
        # flight recorder: ``record`` keeps the full stream (for --record
        # dumps); watchdogs alone bound memory with a ring, keeping only
        # violation/crash context; spans alone store nothing and only feed
        # the span sink
        self.recorder = None
        self.invariants = None
        if record or watchdogs or keep_spans:
            from .flightrec import DEFAULT_RING, FlightRecorder
            self.recorder = FlightRecorder(
                maxlen=None if record else DEFAULT_RING if watchdogs else 0)
            sinks = []
            if watchdogs:
                from .invariants import InvariantEngine
                self.invariants = InvariantEngine(self.recorder)
                sinks.append(self.invariants.observe)
            if keep_spans:
                sinks.append(self._close_span)
            self.recorder.on_event = _fan_out(sinks)
        self._kernel_events = declare(self.registry, "kernel.events")
        self._kernel_steps = declare(self.registry, "kernel.steps")
        self._kernel_wall = declare(self.registry, "kernel.wall_seconds")
        self._kernel_depth = declare(self.registry,
                                     "kernel.queue_depth_peak")

    def begin_run(self, **attrs: Any) -> int:
        """Open a new run (one server instance); returns its id."""
        self._next_run += 1
        self._runs.append((self._next_run, attrs))
        return self._next_run

    def _close_span(self, event: tuple) -> None:
        """Recorder sink: keep the span each closing event ends."""
        _, t, run, conn, kind, attrs = event
        phase = _SPAN_OF.get(kind)
        if phase is None:
            return
        attrs = dict(attrs or ())
        t0 = attrs.pop("t0", None)
        if t0 is None:
            raise ObsError(f"closing event {kind!r} carries no t0 attr")
        self._spans.append((run, conn, phase, t0, t, attrs))

    def emit_metrics(self, run: int, dump: dict) -> None:
        """Attach a metrics-registry dump to ``run``."""
        self._metrics.append((run, dump))

    def note_kernel(self, events: int, steps: int, wall: float,
                    depth_peak: int = 0) -> None:
        """Called by ``Simulator.run`` (once per call) with its totals."""
        self._kernel_events.inc(events)
        self._kernel_steps.inc(steps)
        self._kernel_wall.inc(wall)
        if depth_peak > self._kernel_depth.value:
            self._kernel_depth.set(depth_peak)

    def series_cursor(self):
        """A sampling cursor for a newly built simulator, or ``None``.

        Called by ``Simulator.__init__``; returns ``None`` unless this
        capture asked for time-series sampling, so the kernel's run loop
        keeps its next-sample boundary at ``inf`` and sampling costs one
        always-false float comparison per event.
        """
        if self.series_interval is None:
            return None
        from .timeseries import SeriesCursor
        self._next_sim += 1
        return SeriesCursor(self, self._next_sim, self.series_interval,
                            self.registry)

    def _emit_sample(self, record: dict) -> None:
        """Store one sample record (called by :class:`SeriesCursor`)."""
        undeclared = set(record) - _SERIES_KEYS
        if undeclared:
            raise ObsError(f"sample fields {sorted(undeclared)} are not in "
                           "the series contract (repro.obs.contract."
                           "SERIES_FIELDS)")
        self._samples.append(record)
        if self._on_sample is not None:
            self._on_sample({**record, **self.context})

    @property
    def span_count(self) -> int:
        return len(self._spans)

    @property
    def sample_count(self) -> int:
        return len(self._samples)

    def series_records(self) -> Iterator[dict]:
        """Yield the time series as JSON-ready dicts: meta, then samples.

        Samples appear in emission order — simulator construction order,
        then window order within a simulator — which is simulation-derived
        and hence deterministic at any ``--jobs``.
        """
        yield {"type": "meta", "version": TRACE_VERSION,
               "interval": self.series_interval, **self.context}
        for record in self._samples:
            yield {**record, **self.context}

    def record_records(self) -> Iterator[dict]:
        """Yield the flight recording as JSON-ready dicts (meta + events).

        Event order is emission order — simulation order — so recordings,
        like traces and series, are byte-identical at any ``--jobs``.
        """
        if self.recorder is None or self.recorder.maxlen == 0:
            return iter(())
        return self.recorder.records(self.context)

    def records(self) -> Iterator[dict]:
        """Yield the capture as JSON-ready dicts, deterministically ordered.

        Order: one ``meta`` header, the ``run`` records in id order, every
        ``span`` in emission order (simulation order, hence deterministic),
        per-run ``metrics`` dumps, and the capture-level registry dump as a
        final ``metrics`` record with ``run = 0``.  Metrics whose contract
        entry is marked non-deterministic (wall-clock readings) are
        excluded so serial and ``--jobs N`` traces are byte-identical.
        """
        yield {"type": "meta", "version": TRACE_VERSION, **self.context}
        for run, attrs in self._runs:
            yield {"type": "run", "run": run, "attrs": attrs, **self.context}
        for run, conn, phase, t0, t1, attrs in self._spans:
            record = {"type": "span", "run": run, "conn": conn,
                      "phase": phase, "t0": t0, "t1": t1, **self.context}
            if attrs:
                record["attrs"] = attrs
            yield record
        nondet = tuple(name for name, spec in METRICS.items()
                       if not spec.deterministic)
        for run, dump in self._metrics:
            yield {"type": "metrics", "run": run, "metrics": dump,
                   **self.context}
        capture_dump = self.registry.as_dict(skip=nondet)
        if any(_nonzero(v) for v in capture_dump.values()):
            yield {"type": "metrics", "run": 0, "metrics": capture_dump,
                   **self.context}


def _fan_out(sinks: list):
    """One recorder sink feeding every sink in ``sinks``, or ``None``."""
    if len(sinks) < 2:
        return sinks[0] if sinks else None

    def emit(event: tuple) -> None:
        for sink in sinks:
            sink(event)
    return emit


def _nonzero(dump_value) -> bool:
    if isinstance(dump_value, dict):
        return bool(dump_value.get("count") or dump_value.get("value")
                    or dump_value.get("peak"))
    return bool(dump_value)


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Instrumented modules never call it on their hot paths (they store
    ``None`` instead), but user code holding ``tracer()`` from a disabled
    period can still call it safely.
    """

    enabled = False
    registry = None
    series_interval = None
    recorder = None
    invariants = None

    def begin_run(self, **attrs: Any) -> int:
        return 0

    def emit_metrics(self, run: int, dump: dict) -> None:
        pass

    def note_kernel(self, events: int, steps: int, wall: float,
                    depth_peak: int = 0) -> None:
        pass

    def series_cursor(self) -> None:
        return None

    @property
    def span_count(self) -> int:
        return 0

    @property
    def sample_count(self) -> int:
        return 0

    def records(self) -> Iterator[dict]:
        return iter(())

    def series_records(self) -> Iterator[dict]:
        return iter(())

    def record_records(self) -> Iterator[dict]:
        return iter(())


NULL_TRACER = NullTracer()

_active: Optional[Tracer] = None


def tracer():
    """The active :class:`Tracer`, or :data:`NULL_TRACER` when disabled.

    Instrumented constructors call this once and keep the result (or
    ``None``) — never per operation.
    """
    return _active if _active is not None else NULL_TRACER


def active_registry() -> Optional[MetricsRegistry]:
    """The capture-level registry, or ``None`` when tracing is disabled."""
    return _active.registry if _active is not None else None


@contextmanager
def capture(context: Optional[dict] = None,
            series_interval: Optional[float] = None,
            on_sample=None, record: bool = False, watchdogs: bool = False,
            keep_spans: bool = True, run_base: int = 0):
    """Enable tracing for the duration of the ``with`` block.

    Captures nest (the inner capture shadows the outer one); objects
    constructed inside the block attach to the innermost tracer.

    ``series_interval`` additionally samples every visible metrics
    registry at that simulated-time interval (see
    :mod:`repro.obs.timeseries`); ``on_sample`` is called with each sample
    record as it is emitted (the ``--live`` dashboard).

    ``record=True`` keeps the full flight-recorder event stream
    (``tr.record_records()`` / ``--record OUT``); ``watchdogs=True`` runs
    the online invariant engine over the stream, bounding memory with a
    ring of ``DEFAULT_RING`` events when the full stream is not kept.
    ``keep_spans=False`` derives no spans — the harness uses it when only
    watchdogs are wanted, so an always-on run does not accumulate an
    unbounded span list; with neither ``record`` nor ``watchdogs`` either,
    no recorder is built and instrumented code emits nothing.
    ``run_base`` offsets run/simulator ids (see :class:`Tracer`) — the
    harness uses it to keep ids unique across intra-experiment shards.
    """
    global _active
    previous = _active
    _active = Tracer(context=context, series_interval=series_interval,
                     on_sample=on_sample, record=record, watchdogs=watchdogs,
                     keep_spans=keep_spans, run_base=run_base)
    try:
        yield _active
    finally:
        _active = previous
