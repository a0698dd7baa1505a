"""Online invariant watchdogs over the flight-recorder event stream.

Four cheap, always-on laws (catalogued in
:data:`repro.obs.contract.INVARIANTS`) are evaluated incrementally as the
:class:`~repro.obs.flightrec.FlightRecorder` emits events:

* **mfs-refcount** — shared-store conservation: the authoritative refcount
  reported by the store equals the ledger of nwrite pointers minus shared
  deletes, never goes negative, and the shared data file's byte size equals
  the sum of the non-dedup payloads written.
* **fork-ledger** — fork-after-trust bookkeeping: a hybrid connection is
  delegated exactly once iff accepted (so forks + avoided forks reconcile
  with trusted + bounce connections); vanilla never delegates and forks at
  most once per connection.
* **dnsbl-coherence** — a cache-hit lookup's ``listed`` verdict must match
  the authoritative value recorded when that cache line was filled.
* **queue-conservation** — flow balance: closes ≤ opens and deliveries ≤
  queued mails at every point in the stream (Little's-law reconciliation:
  arrivals = departures + in-flight, with in-flight ≥ 0).

A broken law raises nothing and aborts nothing: it appends a typed
:class:`InvariantViolation` carrying the triggering event and the
recorder's ring-buffer context, and flags the (invariant, subject) pair so
one seeded corruption yields exactly one violation.  Call :meth:`finish`
after the run to evaluate the end-of-stream conservation checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .contract import INVARIANTS
from .flightrec import FlightRecorder, event_as_dict, format_event
from .metrics import ObsError

__all__ = ["InvariantViolation", "InvariantEngine", "check_events",
           "violation_report"]

#: ring-buffer events attached to each violation
CONTEXT_EVENTS = 8


@dataclass
class InvariantViolation:
    """One broken invariant: which law, where, and the events around it."""

    invariant: str               # key into contract.INVARIANTS
    message: str
    event: Optional[dict] = None         # triggering event, as a dict
    context: list = field(default_factory=list)  # recorder tail, as dicts

    def __str__(self) -> str:
        where = ""
        if self.event is not None:
            where = (f" at seq {self.event.get('seq')} "
                     f"t={self.event.get('t'):.4f}")
        return f"[{self.invariant}]{where}: {self.message}"


class _ConnState:
    """Per-connection ledger entry (popped at conn.close)."""

    __slots__ = ("forks", "delegates")

    def __init__(self):
        self.forks = 0
        self.delegates = 0


class InvariantEngine:
    """Evaluates the invariant catalogue against a live event stream."""

    def __init__(self, recorder: Optional[FlightRecorder] = None,
                 context_events: int = CONTEXT_EVENTS):
        self.recorder = recorder
        self.context_events = context_events
        self.violations: list[InvariantViolation] = []
        self._flagged: set = set()
        # fork ledger: run -> architecture; (run, conn) -> _ConnState
        self._arch: dict[int, str] = {}
        self._conns: dict[tuple, _ConnState] = {}
        # queue conservation: per run (opened, closed, queued, delivered)
        self._opened: dict[int, int] = {}
        self._closed: dict[int, int] = {}
        self._queued: dict[int, int] = {}
        self._delivered: dict[int, int] = {}
        # mfs ledgers keyed by (store, mail_id): expected pointer count and
        # the last authoritative refcount the store reported
        self._refs: dict[tuple, int] = {}
        self._reported: dict[tuple, int] = {}
        # expected shared data-file size per store; seeded from the first
        # nwrite observed (robust to stores reopened over existing files)
        self._store_bytes: dict[int, int] = {}
        # dnsbl shadow cache: key -> (strategy, value) from fill events
        self._shadow: dict[str, tuple] = {}

    # -- reporting --------------------------------------------------------
    def _violate(self, invariant: str, subject, message: str,
                 event: Optional[tuple]) -> None:
        if invariant not in INVARIANTS:
            raise ObsError(f"invariant {invariant!r} is not in the "
                           "instrumentation contract")
        flag = (invariant, subject)
        if flag in self._flagged:
            return
        self._flagged.add(flag)
        context = (self.recorder.tail(self.context_events)
                   if self.recorder is not None else [])
        self.violations.append(InvariantViolation(
            invariant=invariant, message=message,
            event=event_as_dict(event) if event is not None else None,
            context=context))

    # -- stream interface -------------------------------------------------
    def observe(self, event: tuple) -> None:
        """Feed one recorder event tuple through every applicable check."""
        kind = event[4]
        handler = self._HANDLERS.get(kind)
        if handler is not None:
            handler(self, event)

    def finish(self) -> list[InvariantViolation]:
        """End-of-stream conservation checks; returns all violations."""
        for run, closed in self._closed.items():
            opened = self._opened.get(run, 0)
            if closed > opened:
                # same subject as the online check: closed > opened can only
                # happen pointwise first, so this must not double-report
                self._violate(
                    "queue-conservation", ("flow", run),
                    f"run {run} closed {closed} connection(s) but only "
                    f"{opened} opened", None)
        for key, reported in self._reported.items():
            expected = self._refs.get(key, 0)
            if reported != expected:
                store, mail_id = key
                self._violate(
                    "mfs-refcount", key,
                    f"shared mail {mail_id!r} (store {store}) ended with "
                    f"authoritative refcount {reported} but "
                    f"{expected} live pointer(s) in the event ledger", None)
        return self.violations

    # -- per-kind handlers ------------------------------------------------
    def _on_run_begin(self, event: tuple) -> None:
        self._arch[event[2]] = event[5]["arch"]

    def _on_conn_open(self, event: tuple) -> None:
        run, conn = event[2], event[3]
        self._opened[run] = self._opened.get(run, 0) + 1
        self._conns[(run, conn)] = _ConnState()

    def _on_fork(self, event: tuple) -> None:
        run, conn = event[2], event[3]
        state = self._conns.get((run, conn))
        if state is None:
            return
        state.forks += 1
        if self._arch.get(run) == "hybrid":
            self._violate("fork-ledger", (run, conn),
                          f"hybrid connection {conn} forked — "
                          "fork-after-trust must reuse its pool", event)
        elif state.forks > 1:
            self._violate("fork-ledger", (run, conn),
                          f"connection {conn} forked {state.forks} times",
                          event)

    def _on_delegate(self, event: tuple) -> None:
        run, conn = event[2], event[3]
        state = self._conns.get((run, conn))
        if state is None:
            return
        state.delegates += 1
        if self._arch.get(run) == "vanilla":
            self._violate("fork-ledger", (run, conn),
                          f"vanilla connection {conn} was delegated", event)
        elif state.delegates > 1:
            self._violate("fork-ledger", (run, conn),
                          f"connection {conn} delegated "
                          f"{state.delegates} times", event)

    def _on_conn_close(self, event: tuple) -> None:
        run, conn = event[2], event[3]
        self._closed[run] = self._closed.get(run, 0) + 1
        if self._closed[run] > self._opened.get(run, 0):
            self._violate("queue-conservation", ("flow", run),
                          f"run {run} closed more connections "
                          f"({self._closed[run]}) than it opened "
                          f"({self._opened.get(run, 0)})", event)
        state = self._conns.pop((run, conn), None)
        if state is None:
            return
        outcome = (event[5] or {}).get("outcome")
        if self._arch.get(run) == "hybrid":
            expected = 1 if outcome == "accepted" else 0
            if state.delegates != expected:
                self._violate(
                    "fork-ledger", (run, conn),
                    f"hybrid connection {conn} ended {outcome!r} with "
                    f"{state.delegates} delegation(s), expected {expected}",
                    event)

    def _on_data(self, event: tuple) -> None:
        run = event[2]
        self._queued[run] = self._queued.get(run, 0) + 1

    def _on_delivery(self, event: tuple) -> None:
        run = event[2]
        self._delivered[run] = self._delivered.get(run, 0) + 1
        if self._delivered[run] > self._queued.get(run, 0):
            self._violate("queue-conservation", ("delivery", run),
                          f"run {run} delivered {self._delivered[run]} "
                          f"mail(s) but only {self._queued.get(run, 0)} "
                          "were queued", event)

    def _on_dnsbl_fill(self, event: tuple) -> None:
        attrs = event[5]
        self._shadow[attrs["key"]] = (attrs["strategy"], attrs["value"])

    def _on_dnsbl_lookup(self, event: tuple) -> None:
        attrs = event[5]
        if not attrs["hit"]:
            return
        shadow = self._shadow.get(attrs["key"])
        if shadow is None:
            return                 # filled before this capture began
        strategy, value = shadow
        if strategy == "prefix":
            bit = _octet(attrs["ip"]) % 128
            expected = bool((int(value) >> (127 - bit)) & 1)
        else:
            expected = bool(value)
        if bool(attrs["listed"]) != expected:
            self._violate(
                "dnsbl-coherence", attrs["key"],
                f"cache hit for {attrs['ip']} answered "
                f"listed={attrs['listed']} but the fill of "
                f"{attrs['key']!r} implies listed={expected}", event)

    def _on_mfs_nwrite(self, event: tuple) -> None:
        # imported lazily: obs must stay importable before repro.mfs is
        from ..mfs.layout import DATA_HEADER_SIZE

        store, attrs = event[3], event[5]
        key = (store, attrs["mail_id"])
        self._refs[key] = self._refs.get(key, 0) + attrs["rcpts"]
        delta = 0 if attrs["dedup"] else DATA_HEADER_SIZE + attrs["bytes"]
        if store not in self._store_bytes:
            # first observation anchors the baseline (the store may have
            # been reopened over pre-capture data)
            self._store_bytes[store] = attrs["store_bytes"] - delta
        self._store_bytes[store] += delta
        if attrs["store_bytes"] != self._store_bytes[store]:
            self._violate(
                "mfs-refcount", ("bytes", store),
                f"shared store {store} reports {attrs['store_bytes']} "
                f"byte(s) but the event ledger implies "
                f"{self._store_bytes[store]}", event)

    def _on_mfs_refcount(self, event: tuple) -> None:
        store, attrs = event[3], event[5]
        key = (store, attrs["mail_id"])
        reported = attrs["refcount"]
        self._reported[key] = reported
        if reported < 0:
            self._violate("mfs-refcount", key,
                          f"shared mail {attrs['mail_id']!r} refcount went "
                          f"negative ({reported})", event)
            return
        expected = self._refs.get(key, 0)
        if reported != expected:
            self._violate(
                "mfs-refcount", key,
                f"shared mail {attrs['mail_id']!r} (store {store}) reports "
                f"refcount {reported} but the event ledger implies "
                f"{expected}", event)

    def _on_mfs_delete(self, event: tuple) -> None:
        store, attrs = event[3], event[5]
        if not attrs["shared"]:
            return
        key = (store, attrs["mail_id"])
        self._refs[key] = self._refs.get(key, 0) - 1
        if self._refs[key] < 0:
            self._violate("mfs-refcount", key,
                          f"shared mail {attrs['mail_id']!r} deleted more "
                          "times than it was referenced", event)

    _HANDLERS = {
        "run.begin": _on_run_begin,
        "conn.open": _on_conn_open,
        "conn.close": _on_conn_close,
        "fork": _on_fork,
        "delegate": _on_delegate,
        "data": _on_data,
        "delivery": _on_delivery,
        "dnsbl.fill": _on_dnsbl_fill,
        "dnsbl.lookup": _on_dnsbl_lookup,
        "mfs.nwrite": _on_mfs_nwrite,
        "mfs.refcount": _on_mfs_refcount,
        "mfs.delete": _on_mfs_delete,
    }


def _octet(ip: str) -> int:
    """Last octet of a dotted quad (the /25 bitmap index)."""
    return int(ip.rsplit(".", 1)[-1])


def check_events(records, context_events: int = CONTEXT_EVENTS
                 ) -> list[InvariantViolation]:
    """Replay recorded dicts (e.g. from ``read_trace``) through the engine.

    Offline counterpart of the always-on watchdogs: feed it a ``--record``
    file and get the violations a live run would have raised.
    """
    engine = InvariantEngine(recorder=None, context_events=context_events)
    window: list[dict] = []
    for record in records:
        if record.get("type") != "event":
            continue
        event = (record.get("seq", 0), record.get("t", 0.0),
                 record.get("run", 0), record.get("conn", 0),
                 record["kind"], record.get("attrs"))
        window.append(record)
        del window[:-context_events]
        before = len(engine.violations)
        engine.observe(event)
        for violation in engine.violations[before:]:
            violation.context = list(window)
    return engine.finish()


def violation_report(violations: list[InvariantViolation]) -> str:
    """Human-readable report: each violation with its context window."""
    if not violations:
        return "invariants: all clean"
    lines = [f"{len(violations)} invariant violation(s)"]
    for violation in violations:
        lines.append(f"  {violation}")
        for record in violation.context:
            marker = (">" if violation.event is not None
                      and record.get("seq") == violation.event.get("seq")
                      else " ")
            lines.append(f"    {marker} {format_event(record)}")
    return "\n".join(lines)
