"""The instrumentation contract: every event and metric the repo may emit.

This module is the machine-readable half of ``docs/OBSERVABILITY.md``.  The
flight recorder refuses to emit an event kind that is not declared here,
span phases are the ``span`` names of the closing events declared here,
metric registration helpers pull units and help strings from here, and
``tests/test_obs.py`` diffs the tables in the doc against these dicts —
so an instrument cannot be added, renamed or dropped without the
documentation moving in lockstep.

Units follow a small closed vocabulary: ``count`` (monotonic totals),
``seconds``, ``bytes`` and ``tasks`` (queue depths).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .metrics import MetricsRegistry, ObsError

__all__ = ["MetricSpec", "EventSpec", "InvariantSpec", "METRICS", "EVENTS",
           "INVARIANTS", "SERIES_FIELDS", "BENCH_FIELDS", "declare"]


@dataclass(frozen=True)
class EventSpec:
    """One flight-recorder event kind: its attribute names and meaning.

    A *closing* event ends the lifecycle phase ``span``: its span is
    ``(t0, t)`` with every other attr as a span attr.
    """

    help: str
    attrs: tuple[str, ...] = ()
    span: str = ""


@dataclass(frozen=True)
class InvariantSpec:
    """One online invariant watchdog: the law it checks."""

    help: str


@dataclass(frozen=True)
class MetricSpec:
    """One metric: kind, unit, and (for histograms) bucket parameters."""

    kind: str                      # "counter" | "gauge" | "histogram"
    unit: str
    help: str
    #: histogram bucket parameters (ignored for counters/gauges)
    buckets: dict = field(default_factory=dict)
    #: wall-clock-derived values are excluded from exported traces so that
    #: serial and ``--jobs N`` runs stay byte-identical
    deterministic: bool = True


#: Flight-recorder event kinds (see :mod:`repro.obs.flightrec`).  Every
#: event record carries ``(seq, t, run, conn, kind, attrs)``: ``seq`` is a
#: per-capture monotonic counter, ``t`` is simulated seconds on the emitting
#: clock (0.0 for clock-less subsystems such as the real-filesystem MFS
#: store), ``run`` is the server run id (0 for capture-level subsystems) and
#: ``conn`` is the per-server connection id — except for ``mfs.*`` events,
#: where ``conn`` carries the store instance number instead.
EVENTS: dict[str, EventSpec] = {
    "run.begin": EventSpec(
        "One MailServerSim came up; anchors the run id to its architecture "
        "so the invariant engine can apply per-architecture fork rules.",
        attrs=("arch", "storage")),
    "conn.open": EventSpec(
        "The master accepted a connection.", attrs=("ip",)),
    "conn.close": EventSpec(
        "The session finished; closes the connection span, master accept "
        "to close.  In-flight sessions at the end of a run have no span, "
        "matching the connections.finished counter exactly.",
        attrs=("t0", "outcome"),    # accepted | bounce | unfinished | rejected
        span="connection"),
    "smtp.mail": EventSpec(
        "MAIL FROM processed; the FSM entered a new envelope.",
        attrs=("rcpts",)),
    "smtp.rcpt": EventSpec(
        "RCPT TO answered (250 or bounce).", attrs=("valid",)),
    "envelope.done": EventSpec(
        "The envelope phase ended: banner -> HELO -> (DNSBL) -> MAIL/RCPT "
        "until the first valid recipient (trusted sessions continue into "
        "DATA), a bounce, or an unfinished/rejected end.",
        attrs=("t0", "mode", "outcome"),    # mode: event | process
        span="envelope"),
    "dnsbl.check": EventSpec(
        "One blacklist check at connect time finished, including the wait "
        "for the DNS answer on a cache miss.",
        attrs=("t0", "cache_hit", "listed"), span="dnsbl"),
    "dnsbl.lookup": EventSpec(
        "One provider resolved a client IP (cache hit or DNS query).",
        attrs=("ip", "key", "hit", "listed")),
    "dnsbl.fill": EventSpec(
        "A cache miss filled the cache: the authoritative value now cached "
        "under ``key`` (an int bitmap for the prefix strategy, 0/1 for ip).",
        attrs=("key", "value", "strategy")),
    "dnsbl.drop": EventSpec(
        "A cache entry was dropped (TTL expiry or LRU eviction).",
        attrs=("key", "reason")),
    "fork": EventSpec(
        "The master forked a fresh smtpd (vanilla architecture only; "
        "fork-after-trust reuses its long-lived pool).",
        attrs=("t0", "pid"), span="fork"),
    "delegate": EventSpec(
        "Fork-after-trust handoff to a pooled worker (hybrid): delegation "
        "cost plus any blocking on the bounded master->worker task socket "
        "(section 5.3).",
        attrs=("t0", "queue_depth"), span="delegate"),
    "data": EventSpec(
        "One DATA transaction accepted and queued: command, body transfer, "
        "queue-file write, 250 reply.  One event per accepted mail.",
        attrs=("t0", "bytes"), span="data"),
    "delivery": EventSpec(
        "Queue manager + local delivery of one accepted mail to all its "
        "recipient mailboxes.",
        attrs=("t0", "rcpts", "bytes"), span="delivery"),
    "mfs.open": EventSpec(
        "mail_open: a mailbox handle was created (real-filesystem MFS).",
        attrs=("mailbox",)),
    "mfs.write": EventSpec(
        "Single-recipient mail_write into a private mailbox.",
        attrs=("mailbox", "bytes")),
    "mfs.nwrite": EventSpec(
        "mail_nwrite: one shared copy, ``rcpts`` key-file pointers; "
        "``refcount`` and ``store_bytes`` are the authoritative post-state.",
        attrs=("mail_id", "rcpts", "bytes", "dedup", "refcount",
               "store_bytes")),
    "mfs.refcount": EventSpec(
        "The shared refcount moved by ``delta``; ``refcount`` is the "
        "authoritative value after the change.",
        attrs=("mail_id", "delta", "refcount")),
    "mfs.delete": EventSpec(
        "mail_delete tombstoned a mail in one mailbox.",
        attrs=("mailbox", "mail_id", "shared")),
    "kernel.run": EventSpec(
        "One Simulator.run call drained (deterministic totals only).",
        attrs=("events", "steps")),
}


#: Online invariant watchdogs (see :mod:`repro.obs.invariants`).  Each key
#: names a typed :class:`~repro.obs.invariants.InvariantViolation` family;
#: the engine evaluates them incrementally from the flight-recorder event
#: stream, so a corrupted run is caught at (or near) the corrupting event.
INVARIANTS: dict[str, InvariantSpec] = {
    "mfs-refcount": InvariantSpec(
        "Shared-store conservation: the authoritative refcount equals the "
        "live key-file pointers created by nwrites minus shared deletes, "
        "never negative, and shared store bytes equal the sum of the "
        "non-dedup shared payloads (headers included)."),
    "fork-ledger": InvariantSpec(
        "Fork-after-trust bookkeeping: a hybrid connection is delegated "
        "exactly once iff it was accepted (bounce/unfinished/rejected "
        "sessions never leave the master and never fork); vanilla "
        "connections are never delegated and fork at most once."),
    "dnsbl-coherence": InvariantSpec(
        "Cache coherence: a cache-hit lookup's listed verdict matches the "
        "authoritative value recorded when that cache line was filled "
        "(bitmap bit for the prefix strategy, listing code for ip)."),
    "queue-conservation": InvariantSpec(
        "Flow conservation (Little's-law balance): closes never exceed "
        "opens, deliveries never exceed queued mails, and in-flight "
        "counts are never negative at any point in the stream."),
}


METRICS: dict[str, MetricSpec] = {
    # -- simulated server (one registry per MailServerSim run) -------------
    "server.connections.started": MetricSpec(
        "counter", "count", "Connections the master accepted."),
    "server.connections.finished": MetricSpec(
        "counter", "count", "Connections that ran to completion."),
    "server.connections.rejected": MetricSpec(
        "counter", "count", "Connections rejected at connect (DNSBL)."),
    "server.connections.bounce": MetricSpec(
        "counter", "count", "Connections whose every recipient bounced."),
    "server.connections.unfinished": MetricSpec(
        "counter", "count", "Connections abandoned before any MAIL FROM."),
    "server.mails.accepted": MetricSpec(
        "counter", "count", "Good mails queued — the goodput unit (5.4)."),
    "server.mailbox.writes": MetricSpec(
        "counter", "count",
        "Per-recipient mailbox deliveries completed (Figs. 10/11 unit)."),
    "server.rcpts.accepted": MetricSpec(
        "counter", "count", "RCPT TO commands answered 250."),
    "server.rcpts.rejected": MetricSpec(
        "counter", "count", "RCPT TO commands bounced."),
    "server.dnsbl.lookups": MetricSpec(
        "counter", "count", "Blacklist checks performed."),
    "server.dnsbl.queries": MetricSpec(
        "counter", "count", "Checks that missed cache and queried a DNSBL."),
    "server.dnsbl.rejects": MetricSpec(
        "counter", "count", "Connections rejected as blacklisted."),
    "server.run.seconds": MetricSpec(
        "gauge", "seconds", "Measurement window the rates divide by."),
    "server.cpu.context_switches": MetricSpec(
        "gauge", "count", "CPU context switches charged (5.4)."),
    "server.cpu.forks": MetricSpec(
        "gauge", "count", "OS forks charged."),
    "server.cpu.busy_seconds": MetricSpec(
        "gauge", "seconds", "Simulated seconds the CPU was busy."),
    "server.disk.busy_seconds": MetricSpec(
        "gauge", "seconds", "Simulated seconds the disk was busy."),
    "server.session.seconds": MetricSpec(
        "histogram", "seconds", "Session phase durations (see _finish).",
        buckets={"low": 1e-4, "high": 1e3, "per_decade": 10}),
    "server.dnsbl.lookup.seconds": MetricSpec(
        "histogram", "seconds", "DNSBL lookup latency (0 on cache hits).",
        buckets={"low": 1e-6, "high": 1e2, "per_decade": 10}),
    # -- DES kernel (capture-level registry) --------------------------------
    "kernel.events": MetricSpec(
        "counter", "count", "Event-heap entries processed by Simulator.run."),
    "kernel.steps": MetricSpec(
        "counter", "count", "Generator resumes executed by Simulator.run."),
    "kernel.wall_seconds": MetricSpec(
        "counter", "seconds", "Real time spent inside Simulator.run.",
        deterministic=False),
    "kernel.queue_depth_peak": MetricSpec(
        "gauge", "count",
        "Peak number of scheduled entries the event heap held during any "
        "Simulator.run in this capture."),
    # -- DNSBL cache (capture-level; aggregated over all resolvers) ---------
    "dnsbl.cache.hits": MetricSpec(
        "counter", "count", "TTL-cache hits (Fig. 15 numerator)."),
    "dnsbl.cache.misses": MetricSpec(
        "counter", "count", "TTL-cache misses (includes expiries)."),
    "dnsbl.cache.expirations": MetricSpec(
        "counter", "count", "Entries dropped because their TTL lapsed."),
    "dnsbl.cache.evictions": MetricSpec(
        "counter", "count", "Entries evicted by the LRU bound."),
    "dnsbl.cache.prefix_fills": MetricSpec(
        "counter", "count",
        "Cache fills of a /25 bitmap — one fill covers 128 neighbours "
        "(7.1), the mechanism behind the prefix strategy's hit rate."),
    "dnsbl.wire.queries": MetricSpec(
        "counter", "count",
        "DNS queries resolvers issued on cache misses (simulated queries "
        "in the simulator, not encoded packets)."),
    # -- MFS store (capture-level; real-filesystem path) --------------------
    "mfs.deliver.single": MetricSpec(
        "counter", "count", "Single-recipient deliveries (private mailbox)."),
    "mfs.deliver.shared": MetricSpec(
        "counter", "count",
        "Multi-recipient deliveries stored once in the shared mailbox."),
    "mfs.dedup.hits": MetricSpec(
        "counter", "count",
        "nwrite calls whose payload was already shared — only the "
        "refcount moved (6.2)."),
    "mfs.payload.bytes": MetricSpec(
        "histogram", "bytes", "Payload size per delivered mail.",
        buckets={"low": 64.0, "high": 1e8, "per_decade": 5}),
    # -- asyncio server (capture-level) -------------------------------------
    "net.connections": MetricSpec(
        "counter", "count", "TCP connections accepted by SmtpServer."),
    "net.handoffs": MetricSpec(
        "counter", "count", "Sessions delegated to a worker after trust."),
    "net.queue.depth": MetricSpec(
        "gauge", "tasks",
        "Total tasks queued on the master->worker sockets; the peak shows "
        "how hard the finite buffers throttled the master (5.3)."),
}


#: Field vocabulary for time-series files (``--series`` / ``series-report``).
#: A series file carries one ``meta`` record per captured experiment followed
#: by ``sample`` records; :class:`repro.obs.timeseries.SeriesCursor` may only
#: emit fields declared here, and ``docs/OBSERVABILITY.md`` documents them
#: name-for-name (diffed by ``tests/test_obs.py::TestContractDocSync``).
SERIES_FIELDS: dict[str, str] = {
    "type": "record discriminator: 'meta' (file header) or 'sample'",
    "version": "trace format version, stamped into the meta header",
    "interval": "sampling interval in simulated seconds (meta header)",
    "exp": "experiment id, merged from the capture context",
    "sim": "simulator number within the capture, from 1 in construction "
           "order (each simulator has its own clock)",
    "t": "window end in simulated seconds — the k-th sample lies at "
         "t = k * interval on that simulator's clock",
    "run": "server run id whose registry was sampled; 0 is the "
           "capture-level registry (kernel, DNSBL cache, MFS, net)",
    "metrics": "per-metric deltas for the window: counters as numeric "
               "deltas, gauges as {value, peak} snapshots, histograms as "
               "{count, sum, buckets} deltas; unchanged metrics omitted",
}

#: Field vocabulary for ``repro-bench`` artifacts (``BENCH_<runstamp>.json``).
#: :func:`repro.harness.bench.run_bench` refuses to write an artifact whose
#: keys differ from this set, and ``docs/OBSERVABILITY.md`` mirrors it.
BENCH_FIELDS: dict[str, str] = {
    "schema": "artifact schema identifier, currently 'repro-bench/3'",
    "runstamp": "UTC wall-clock stamp YYYYMMDDTHHMMSSZ, also in the filename",
    "python": "interpreter version the benchmark ran under",
    "platform": "OS/machine string from platform.platform()",
    "scale": "'quick' or 'full' size of the kernel microbench and "
             "tracing-overhead runs; the figure subset always runs at "
             "scale='quick'",
    "kernel_events_per_sec": "DES-kernel events/sec, best of N runs of the "
                             "Figure-8-shaped microbench",
    "kernel_steps_per_sec": "DES-kernel generator resumes/sec on the same "
                            "microbench run",
    "figures": "per-experiment wall-clock seconds for the fixed figure "
               "subset, as {experiment id: seconds}",
    "tracing_overhead_pct": "percent wall-time cost of running the "
                            "microbench under capture(series) vs untraced",
    "peak_rss_kb": "peak resident set size of the benchmark process in KiB",
    "total_wall_seconds": "wall-clock seconds for the whole bench run",
}


def declare(registry: MetricsRegistry, name: str):
    """Register ``name`` on ``registry`` with its contract kind and unit.

    The one sanctioned way for instrumented modules to create a metric:
    an undeclared name raises, keeping the emitted set and the documented
    set identical by construction.
    """
    spec = METRICS.get(name)
    if spec is None:
        raise ObsError(f"metric {name!r} is not in the instrumentation "
                       "contract (repro.obs.contract.METRICS)")
    if spec.kind == "counter":
        return registry.counter(name, unit=spec.unit, help=spec.help)
    if spec.kind == "gauge":
        return registry.gauge(name, unit=spec.unit, help=spec.help)
    return registry.histogram(name, unit=spec.unit, help=spec.help,
                              **spec.buckets)
