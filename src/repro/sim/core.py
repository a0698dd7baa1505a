"""Discrete-event simulation core.

This module provides a small, self-contained discrete-event simulation (DES)
engine in the style of SimPy: simulated *processes* are Python generators that
``yield`` :class:`Event` objects and are resumed when those events fire.  The
engine is used by :mod:`repro.server` to model the postfix-style mail server
architectures (process-per-connection vs. fork-after-trust) with explicit
accounting of forks, context switches, disk operations and DNS lookups — the
quantities the paper's evaluation is about.

Design notes
------------
* Time is a ``float`` in **seconds**.  There is no wall-clock coupling; a run
  is fully deterministic given its RNG seeds.
* The event heap holds ``(time, seq, event)`` entries, ``seq`` being a
  per-simulator push counter, so same-time events fire in insertion order.
* A :class:`Process` is itself an :class:`Event` that succeeds with the
  generator's return value, so processes can wait on each other.  A process
  that raises fails, and its joiners get the exception thrown into them;
  no other event ever fails.
* The kernel offers exactly what the server models wait on: timeouts,
  plain events triggered by model code, and process joins.  Stores and
  CPU/disk slices (:mod:`repro.sim.resources`) are built from those.

Hot path
--------
The overwhelmingly common step in the mail-server workloads is "process
yields a :class:`Timeout`, timeout fires, process resumes".  The engine keeps
that path allocation-free where it can:

* :meth:`Simulator.timeout` reuses :class:`Timeout` objects from a free list
  instead of constructing a fresh event per yield.  A timeout is returned to
  the pool only when the run loop can prove (via the CPython reference count)
  that nothing else — a second process, user code — still references
  it, so recycling is invisible to the API.  Pass ``timeout_pool=0`` to
  disable pooling entirely; results are bit-identical either way.
* :meth:`Process._step` dispatches on ``(value, exception)`` arguments
  instead of allocating a closure per resume.
* The heap sequence number is a plain integer increment rather than
  ``itertools.count``.
* :meth:`Simulator.run` inlines the resume of an event's single waiting
  process -- a process start, a timeout, a queued CPU/disk slice's turn,
  a plain event such as a store get -- and parks a process that yields a
  fresh timeout or plain event straight in its waiter slot, without the
  generic :meth:`Process._wire` checks.  Joins and shared events take the
  callback path.  It counts events/steps and wall time, exposed via
  :meth:`Simulator.kernel_stats`.
* A queued CPU or disk slice waits on a pooled timeout that is not yet on
  the heap; the slice before it pushes it with the next sequence number
  when the server frees up (:mod:`repro.sim.resources`).

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(worker(sim, "a", 2.0))
>>> _ = sim.process(worker(sim, "b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import heapq
import sys
from time import perf_counter
from typing import Any, Callable, Generator, Optional

from ..obs.trace import tracer as _obs_tracer
from .stats import KernelStats

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "SimulationError",
    "Simulator",
]

#: default free-list capacity for pooled :class:`Timeout` objects; override
#: per-simulator with ``Simulator(timeout_pool=...)`` (0 disables pooling).
DEFAULT_TIMEOUT_POOL = 1024

# Pooling relies on CPython reference counts to prove a timeout is unreachable
# before recycling it; on runtimes without refcounts we simply never recycle.
_getrefcount = getattr(sys, "getrefcount", None)

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(Exception):
    """Raised for illegal uses of the simulation API."""


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, is *triggered* exactly once with a value
    (:meth:`succeed`), and then has its callbacks run by the simulator at
    the scheduled time.  Only a :class:`Process` can end with an exception.

    ``_waiter`` carries the single process suspended on this event — the
    dominant case — letting the run loop resume it directly instead of going
    through the callback list.  Additional subscribers (a second process
    sharing a timeout, a joiner, the failure audit) use ``callbacks`` and
    run after the waiter, preserving subscription order.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled", "_waiter")

    #: sentinel for "not yet triggered"
    _PENDING = object()

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = Event._PENDING
        self._ok: bool = True
        self._scheduled = False
        self._waiter: Optional["Process"] = None

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has been given its value (or, for a process,
        its exception)."""
        return self._value is not Event._PENDING

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError("event value is not yet available")
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with ``value`` at the current time."""
        if self._value is not Event._PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        self.sim._schedule(self, 0.0)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed, the callback runs
        immediately (still inside the current simulation step).
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._value = value
        sim._schedule(self, delay)


class Process(Event):
    """A simulated process driven by a generator.

    The process is resumed whenever the event it yielded fires; it finishes —
    and, being an event itself, *succeeds* — with the generator's return
    value.  If the generator raises, the process fails with that exception
    (which propagates to any process waiting on it, or aborts the run if
    nobody is waiting).
    """

    __slots__ = ("generator", "name", "_had_waiter")

    def __init__(self, sim: "Simulator", generator: Generator,
                 name: Optional[str] = None):
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process body must be a generator, got {generator!r}")
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._had_waiter = False
        # Kick the process off via an immediately-firing timeout (pooled)
        # so it starts *inside* the run loop at the current time; parked in
        # the waiter slot, the start takes the run loop's inline resume.
        sim.timeout(0.0)._waiter = self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """As :meth:`Event.add_callback`; also marks the failure as handled.

        A process whose completion nobody observes and that dies with an
        exception aborts the run (see :meth:`Simulator.run`); subscribing to
        the process — e.g. by yielding it — takes on that responsibility.
        """
        self._had_waiter = True
        super().add_callback(callback)

    # -- engine internals ---------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        """Resume the generator after ``trigger`` fired (callback path).

        The run loop resumes a process parked in an event's waiter slot
        itself; this path serves joins, events that more than one
        subscriber waits on and events already processed when yielded.
        A process waits on exactly one event at a time and nothing else
        resumes it, so it is still waiting here.
        """
        if trigger._ok:
            self._step(trigger._value, None)
        else:
            self._step(None, trigger._value)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        """Advance the generator one step and wire what it yields.

        ``exc`` is ``None`` to send ``value`` and an exception instance to
        throw — passing both through one call avoids allocating a closure
        per resume.
        """
        self.sim.steps_executed += 1
        try:
            if exc is None:
                target = self.generator.send(value)
            else:
                target = self.generator.throw(exc)
        except StopIteration as stop:
            self._finish_ok(stop.value)
            return
        except BaseException as error:
            self._finish_fail(error)
            return
        self._wire(target)

    def _wire(self, target: Any) -> None:
        """Subscribe to a yielded event (or fail on a bad target)."""
        if not isinstance(target, Event):
            self._finish_fail(SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"))
            return
        if target.sim is not self.sim:
            self._finish_fail(SimulationError(
                f"process {self.name!r} yielded an event from another "
                "simulator"))
            return
        if isinstance(target, Process):
            # processes track waiters (unhandled-failure audit) — go through
            # their add_callback override
            target.add_callback(self._resume)
            return
        callbacks = target.callbacks
        if callbacks is None:           # already processed — fire immediately
            self._resume(target)
        elif not callbacks and target._waiter is None:
            target._waiter = self       # run-loop inline resume
        else:
            callbacks.append(self._resume)

    def _finish_ok(self, value: Any) -> None:
        self._value = value
        self.sim._schedule(self, 0.0)

    def _finish_fail(self, exc: BaseException) -> None:
        self._value = exc
        self._ok = False
        self.sim._schedule(self, 0.0)
        self.sim._note_failure(self, exc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'done' if self.triggered else 'alive'}>"


class Simulator:
    """The event loop: a priority queue of events over simulated time.

    ``timeout_pool`` bounds the :class:`Timeout` free list (0 disables
    pooling; the default comes from :data:`DEFAULT_TIMEOUT_POOL`).  Pooling
    is purely an allocation optimisation — event ordering and results are
    identical with it on or off.
    """

    __slots__ = ("now", "_heap", "_depth_peak", "_seq", "_unhandled",
                 "_pool_max", "_timeout_pool",
                 "events_processed", "steps_executed", "wall_seconds",
                 "_obs", "_series", "_rec")

    def __init__(self, timeout_pool: Optional[int] = None):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._depth_peak: int = 0
        self._seq: int = 0
        self._unhandled: list[tuple[Process, BaseException]] = []
        if timeout_pool is None:
            timeout_pool = DEFAULT_TIMEOUT_POOL
        self._pool_max: int = timeout_pool if _getrefcount is not None else 0
        self._timeout_pool: list[Timeout] = []
        # kernel instrumentation (see kernel_stats())
        self.events_processed: int = 0
        self.steps_executed: int = 0
        self.wall_seconds: float = 0.0
        # observability: counters publish once per run() call, never per
        # event, so tracing adds no per-event work even when enabled.
        # Time-series sampling costs one float comparison per event in
        # run() — against inf when _series is None.
        tr = _obs_tracer()
        self._obs = tr if tr.enabled else None
        self._series = tr.series_cursor() if tr.enabled else None
        self._rec = tr.recorder if tr.enabled else None

    # -- public API ---------------------------------------------------------
    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Return an event firing ``delay`` seconds from now.

        Reuses a pooled :class:`Timeout` when one is free — the hot path of
        every simulated process.
        """
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay: {delay!r}")
            timeout = pool.pop()
            timeout.delay = delay
            timeout._value = value
            seq = self._seq = self._seq + 1
            _heappush(self._heap, (self.now + delay, seq, timeout))
            return timeout
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """Return a fresh untriggered event."""
        return Event(self)

    def _unscheduled_timeout(self, delay: float, value: Any) -> Timeout:
        """A timeout that is not on the heap yet, pooled when one is free,
        carrying ``delay`` and ``value`` until :meth:`_start_timeout` pushes
        it (a queued CPU or disk slice and its charge, see
        :mod:`repro.sim.resources`)."""
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
        else:
            timeout = Timeout.__new__(Timeout)
            Event.__init__(timeout, self)
        timeout.delay = delay
        timeout._value = value
        return timeout

    def _start_timeout(self, timeout: Timeout, delay: float) -> None:
        """Put an unscheduled timeout on the heap, firing ``delay`` from now
        with the next ``seq``, just as :meth:`timeout` would."""
        timeout.delay = delay
        timeout._value = None
        seq = self._seq = self._seq + 1
        _heappush(self._heap, (self.now + delay, seq, timeout))

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def kernel_stats(self) -> KernelStats:
        """Engine throughput counters: events/steps processed, wall time
        and the event heap's peak depth."""
        return KernelStats(events=self.events_processed,
                           steps=self.steps_executed,
                           wall_seconds=self.wall_seconds,
                           pooled_timeouts=len(self._timeout_pool),
                           queue_depth_peak=self._depth_peak)

    def series_attach(self, run: int, registry) -> None:
        """Sample ``registry`` as ``run`` in this simulator's time series.

        No-op unless the active capture asked for series sampling
        (``capture(series_interval=...)``); used by ``MailServerSim`` to
        put its per-run metrics registry on the sampling cursor.
        """
        if self._series is not None:
            self._series.attach(run, registry)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or simulated time reaches ``until``.

        Raises the first unhandled process exception, if any occurred.
        With series sampling on, every window boundary the clock crosses
        is sampled; a bounded run also flushes the boundaries up to
        ``until`` after the loop drains.
        """
        limit = float("inf") if until is None else until
        heap = self._heap
        heappop = _heappop
        unhandled = self._unhandled
        pool = self._timeout_pool
        pool_max = self._pool_max
        getrefcount = _getrefcount
        series = self._series
        next_sample = series.next_at if series is not None else float("inf")
        events = 0
        steps = 0
        steps0 = self.steps_executed
        depth_peak = self._depth_peak
        wall0 = perf_counter()
        try:
            while heap:
                depth = len(heap)
                if depth > depth_peak:
                    depth_peak = depth
                if heap[0][0] > limit:
                    break
                time, _, event = heappop(heap)
                self.now = time
                if time >= next_sample:
                    next_sample = series.advance_to(time)
                events += 1
                waiter = event._waiter
                callbacks = event.callbacks
                event.callbacks = None
                if waiter is not None:
                    # Inlined Process resume: one process waiting on one
                    # event (its start, a timeout, a queued slice's turn, a
                    # store item) is the workload's dominant step, so it
                    # runs with no intermediate frames at all.  A waiter is
                    # parked on exactly one event and nothing else resumes
                    # it, so it is still waiting here; and the event
                    # succeeded: only processes fail, and a joiner
                    # subscribes through callbacks, never the waiter slot.
                    event._waiter = None
                    steps += 1
                    try:
                        target = waiter.generator.send(event._value)
                    except StopIteration as stop:
                        waiter._finish_ok(stop.value)
                    except BaseException as error:
                        waiter._finish_fail(error)
                    else:
                        cls = target.__class__
                        if ((cls is Timeout or cls is Event)
                                and target.sim is self
                                and target._waiter is None):
                            cbs = target.callbacks
                            if cbs is not None and not cbs:
                                target._waiter = waiter
                            else:
                                waiter._wire(target)
                        else:
                            waiter._wire(target)
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                # Recycle a timeout when provably unreachable: the only
                # references left are the loop local and getrefcount's
                # argument.  Anything else (a second process, a variable in
                # user code) keeps the object alive and unpooled.
                if (event.__class__ is Timeout and len(pool) < pool_max
                        and getrefcount(event) == 2):
                    if callbacks is not None:
                        callbacks.clear()
                        event.callbacks = callbacks
                    else:
                        event.callbacks = []
                    pool.append(event)
                if unhandled:
                    process, exc = unhandled[0]
                    # A process waiting on the failed process counts as
                    # handling.
                    raise SimulationError(
                        f"unhandled exception in process {process.name!r}: "
                        f"{exc!r}") from exc
        finally:
            self._depth_peak = depth_peak
            self.events_processed += events
            # every resume of this call: the inlined ones counted here and
            # those through Process._step (starts, joins, shared events)
            self.steps_executed += steps
            steps = self.steps_executed - steps0
            wall = perf_counter() - wall0
            self.wall_seconds += wall
            if self._obs is not None:
                self._obs.note_kernel(events, steps, wall, depth_peak)
            if self._rec is not None:
                # wall time is deliberately absent: recordings must be
                # byte-identical across runs and --jobs counts
                self._rec.emit("kernel.run", self.now, 0, 0, (events, steps))
        if until is not None:
            if self.now < until:
                self.now = until
            if series is not None and series.next_at <= until:
                series.advance_to(until)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        heap = self._heap
        return heap[0][0] if heap else float("inf")

    # -- engine internals -----------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        seq = self._seq = self._seq + 1
        _heappush(self._heap, (self.now + delay, seq, event))

    def _note_failure(self, process: Process, exc: BaseException) -> None:
        """Abort the run for a failed process unless somebody is waiting on it.

        The check is deferred to the moment the process' completion event is
        processed so that waiters registered in the meantime count.
        """
        had_waiter_before_audit = process._had_waiter

        def audit(event: Event) -> None:
            if not (had_waiter_before_audit or process._had_waiter):
                self._unhandled.append((process, exc))

        # Bypass Process.add_callback so the audit itself does not count as a
        # waiter.
        Event.add_callback(process, audit)
