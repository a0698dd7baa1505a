"""The flight recorder: a bounded ring buffer of structured events.

Where spans summarise *phases* and metrics summarise *totals*, the flight
recorder keeps the raw causal stream — connection accepted, FSM
transitions, DNSBL cache traffic, fork/delegate decisions, MFS refcount
changes, deliveries — so that when two runs disagree the exact first
diverging event can be named (:mod:`repro.obs.diff`) and cheap online
invariants can be checked as the stream flows (:mod:`repro.obs.invariants`).

Instrumented constructors grab ``tracer().recorder`` once and store
``None`` when recording is off, so hot paths pay one ``is not None`` test.
Events are ``(seq, t, run, conn, kind, attrs)`` tuples, ``attrs`` holding
values in the order of the kind's :data:`~repro.obs.contract.EVENTS`
entry; dicts are built only on export (an ``ip`` is an int in the stream
and a dotted quad there).  ``seq`` restarts per capture, so recordings are
deterministic at any ``--jobs``.  :attr:`FlightRecorder.sinks` maps every
contract kind, and only those, to the callable fed its events (watchdogs,
spans) or ``None``: an undeclared kind raises, and a kind nothing reads
costs one ring append.  Three capacity modes:

* ``maxlen=None`` — unbounded, for ``--record OUT`` full dumps;
* ``maxlen=TAIL_EVENTS`` — the always-on watchdogs' ring, as long as the
  longest tail any reader asks for;
* ``maxlen=0`` — stores nothing and only feeds the sinks (spans alone).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator, Optional

from ..dnsbl.bitmap import int_to_ip, ip_to_int
from .contract import EVENTS
from .metrics import ObsError

__all__ = ["FlightRecorder", "RECORD_VERSION", "TAIL_EVENTS",
           "event_as_dict", "event_from_dict", "format_event"]

#: recording format version, stamped into every recording's meta record
#: (2: closing events carry ``t0``, ``dnsbl.check`` added, the delegate
#: event's ``depth`` renamed ``queue_depth``)
RECORD_VERSION = 2

#: the watchdog ring's capacity: the crash report's tail, the longest any
#: reader asks for (a violation's context is the last few of it)
TAIL_EVENTS = 32


def attrs_as_dict(kind: str, attrs: tuple) -> dict:
    """An event's positional attrs as a name→value dict (``ip`` dotted)."""
    names = EVENTS[kind].attrs
    if len(attrs) != len(names):
        raise ObsError(f"event {kind!r} carries {len(attrs)} attr(s) but "
                       f"the contract declares {names}")
    record = dict(zip(names, attrs))
    if record.get("ip").__class__ is int:
        record["ip"] = int_to_ip(record["ip"])
    return record


def event_as_dict(event: tuple, context: Optional[dict] = None) -> dict:
    """One stored event tuple as a JSON-ready record."""
    seq, t, run, conn, kind, attrs = event
    record = {"type": "event", "seq": seq, "t": t, "run": run,
              "conn": conn, "kind": kind}
    attrs = attrs_as_dict(kind, attrs)
    if attrs:
        record["attrs"] = attrs
    if context:
        record.update(context)
    return record


def event_from_dict(record: dict) -> tuple:
    """A recorded event as a stream tuple; missing attrs come back None."""
    attrs = dict(record.get("attrs") or ())
    if attrs.get("ip").__class__ is str:
        attrs["ip"] = ip_to_int(attrs["ip"])
    kind = record["kind"]
    return (record.get("seq", 0), record.get("t", 0.0), record.get("run", 0),
            record.get("conn", 0), kind,
            tuple(attrs.get(name) for name in EVENTS[kind].attrs))


def format_event(record: dict) -> str:
    """One event record as a ``seq … t=… run … conn … kind attrs`` line."""
    attrs = record.get("attrs") or {}
    attr_text = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
    return (f"seq {record.get('seq'):>6} t={record.get('t', 0.0):>10.4f} "
            f"run {record.get('run')} conn {record.get('conn')} "
            f"{record.get('kind'):<14} {attr_text}")


class FlightRecorder:
    """Collects contract-checked events for one capture."""

    __slots__ = ("maxlen", "sinks", "_events", "_seq", "_stores")

    def __init__(self, maxlen: Optional[int] = TAIL_EVENTS):
        self.maxlen = maxlen
        self._events: deque = deque(maxlen=maxlen)
        self._seq = 0
        self._stores = 0
        self.sinks: dict[str, Optional[Callable]] = dict.fromkeys(EVENTS)

    def subscribe(self, kind: str, sink: Callable[[tuple], None]) -> None:
        """Feed every ``kind`` event to ``sink``, after any earlier sink."""
        if kind not in self.sinks:
            raise ObsError(f"event kind {kind!r} is not in "
                           "repro.obs.contract.EVENTS")
        first = self.sinks[kind]
        self.sinks[kind] = sink if first is None else _both(first, sink)

    def emit(self, kind: str, t: float, run: int = 0, conn: int = 0,
             attrs: tuple = ()) -> None:
        """Record one event; ``attrs`` in ``EVENTS[kind].attrs`` order."""
        try:
            sink = self.sinks[kind]
        except KeyError:
            raise ObsError(f"event kind {kind!r} is not in "
                           "repro.obs.contract.EVENTS") from None
        seq = self._seq = self._seq + 1
        event = (seq, t, run, conn, kind, attrs)
        self._events.append(event)
        if sink is not None:
            sink(event)

    def register_store(self) -> int:
        """A stable instance number for an MfsStore (its ``conn`` field)."""
        self._stores += 1
        return self._stores

    @property
    def event_count(self) -> int:
        """Events currently held (≤ ``maxlen`` in ring mode)."""
        return len(self._events)

    @property
    def total_events(self) -> int:
        """Events ever emitted, including any the ring has dropped."""
        return self._seq

    def tail(self, n: int, context: Optional[dict] = None) -> list[dict]:
        """The last ``n`` events as dicts — violation/crash context."""
        events = list(self._events)[-n:] if n else []
        return [event_as_dict(e, context) for e in events]

    def records(self, context: Optional[dict] = None) -> Iterator[dict]:
        """Yield the recording as JSON-ready dicts: meta, then events.

        The meta record carries the format version and whether the ring
        dropped anything (``dropped > 0`` means the recording is a tail,
        not the full stream).
        """
        context = context or {}
        yield {"type": "meta", "version": RECORD_VERSION,
               "events": self._seq,
               "dropped": self._seq - len(self._events), **context}
        for event in self._events:
            yield event_as_dict(event, context)


def _both(first: Callable, second: Callable) -> Callable:
    def both(event: tuple) -> None:
        first(event)
        second(event)
    return both
