"""Shared resources for simulated processes.

The mail-server models in :mod:`repro.server` are built from four kinds of
resources:

* :class:`Resource` — a general counting semaphore with a priority-then-FIFO
  wait queue; processes ``yield`` a :class:`Request` and ``release`` it.
* :class:`Store` — a bounded FIFO buffer of items with blocking ``put`` and
  ``get`` (used for the UNIX-domain-socket task queues between the master and
  the smtpd workers; the bound models the 64 KB kernel socket buffer that the
  paper notes "acts as a natural throttle for the master process").
* :class:`CPU` — a single-core CPU serving *slices* in priority-then-FIFO
  order, which charges for computation and explicitly accounts **context
  switches** and **forks**, the two costs the fork-after-trust architecture
  is designed to avoid.
* :class:`Disk` — a FIFO disk that serves operations priced by a pluggable
  filesystem cost model (see :mod:`repro.storage.diskmodel`).

``CPU`` and ``Disk`` are single-server queues that cost one kernel event per
slice, with O(1) queue operations and no allocation.  A slice that finds
the server idle is charged at once and sleeps on a pooled timeout until it
ends.  A slice that finds it busy waits on a pooled timeout that is not yet
scheduled, in the wait queue: one FIFO deque per priority class for the
CPU, served lowest class first, and one FIFO deque for the disk.  Until it
is scheduled, that timeout carries the slice's charge (``delay`` the work,
its value the pid or byte count).  When a slice ends, its own process —
resumed at completion — hands the server to the next queued slice: it
charges that slice and pushes the slice's timeout onto the event heap at
``now + cost``, with the sequence number scheduling it then would give it.
There is no separate grant event, and charging happens at the same
simulated instant and in the same order as a request/grant/release cycle
would.

All blocking calls return events to be ``yield``-ed from a process body.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Optional

from .core import Event, SimulationError, Simulator, Timeout

__all__ = ["Request", "Resource", "Store", "CPU", "Disk"]


class Request(Event):
    """The event returned by :meth:`Resource.request`.

    Succeeds when the requesting process holds one unit of the resource.
    Withdraw a queued request with :meth:`cancel`.
    """

    __slots__ = ("resource", "cancelled", "priority")

    def __init__(self, resource: "Resource", priority: int = 0):
        super().__init__(resource.sim)
        self.resource = resource
        self.cancelled = False
        self.priority = priority

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request; granted requests must release."""
        if self.triggered:
            raise SimulationError("cannot cancel a granted request; release it")
        self.cancelled = True


class Resource:
    """A counting semaphore with FIFO granting.

    >>> sim = Simulator()
    >>> res = Resource(sim, capacity=1)
    >>> def user(sim, res, log, name):
    ...     req = res.request()
    ...     yield req
    ...     yield sim.timeout(1.0)
    ...     res.release(req)
    ...     log.append((sim.now, name))
    >>> log = []
    >>> _ = sim.process(user(sim, res, log, "a"))
    >>> _ = sim.process(user(sim, res, log, "b"))
    >>> sim.run()
    >>> log
    [(1.0, 'a'), (2.0, 'b')]
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        # waiting requests ordered by (priority, arrival); FIFO within a
        # priority class -- lower priority value is served first
        self._queue: list = []
        self._seq = 0
        # statistics
        self.total_requests = 0
        self.total_waits = 0  # requests that had to queue
        self.peak_in_use = 0

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    @property
    def queue_length(self) -> int:
        return sum(1 for _, _, r in self._queue if not r.cancelled)

    def request(self, priority: int = 0) -> Request:
        """Return an event that fires when a unit is held.

        Lower ``priority`` values are granted first (FIFO within a class).
        """
        req = Request(self, priority)
        self.total_requests += 1
        if self.in_use < self.capacity and not self._queue:
            self._grant(req)
        else:
            self.total_waits += 1
            self._seq += 1
            heapq.heappush(self._queue, (priority, self._seq, req))
        return req

    def release(self, request: Request) -> None:
        """Return the unit held by ``request`` to the pool."""
        if request.resource is not self:
            raise SimulationError("releasing a request of another resource")
        if not request.triggered:
            raise SimulationError("releasing a request that was never granted")
        in_use = self.in_use = self.in_use - 1
        if in_use < 0:
            raise SimulationError(f"double release on resource {self.name!r}")
        queue = self._queue
        while queue and self.in_use < self.capacity:
            _, _, req = heapq.heappop(queue)
            if not req.cancelled:
                self._grant(req)

    def _grant(self, request: Request) -> None:
        """Hand a unit to ``request``: it fires at the current time."""
        in_use = self.in_use = self.in_use + 1
        if in_use > self.peak_in_use:
            self.peak_in_use = in_use
        request.succeed(request)


class Store:
    """A bounded FIFO buffer with blocking ``put``/``get``.

    ``capacity`` may be ``None`` for an unbounded store.  Items are opaque.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 name: str = ""):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: deque[Any] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()
        self._getters: deque[Event] = deque()
        self.total_puts = 0
        self.total_gets = 0
        self.peak_level = 0

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self.items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Return an event that fires once ``item`` is in the store."""
        event = Event(self.sim)
        if not self.is_full:
            self._deposit(item)
            event.succeed(None)
        else:
            self._putters.append((event, item))
        return event

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the store is full.

        This models the master's *nonblocking writes* to the smtpd task
        sockets: on a full buffer the master moves on to the next worker.
        """
        if self.is_full:
            return False
        self._deposit(item)
        self._pump()
        return True

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = Event(self.sim)
        if self.items:
            event.succeed(self._withdraw())
            self._pump()
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns ``(ok, item)``."""
        if not self.items:
            return False, None
        item = self._withdraw()
        self._pump()
        return True, item

    # -- internals ----------------------------------------------------------
    def _deposit(self, item: Any) -> None:
        self.total_puts += 1
        if self._getters:
            # hand straight to a waiting getter
            self._getters.popleft().succeed(item)
            self.total_gets += 1
        else:
            self.items.append(item)
            if len(self.items) > self.peak_level:
                self.peak_level = len(self.items)

    def _withdraw(self) -> Any:
        self.total_gets += 1
        return self.items.popleft()

    def _pump(self) -> None:
        while self._putters and not self.is_full:
            event, item = self._putters.popleft()
            self._deposit(item)
            event.succeed(None)
        while self._getters and self.items:
            self._getters.popleft().succeed(self._withdraw())
            self.total_gets += 1


class _SingleServer:
    """Shared state of :class:`CPU` and :class:`Disk`: one server, a wait
    queue of slices, and the hand-over to the next slice (see the module
    docstring).  Subclasses define the queue order and the charging."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.busy_time = 0.0
        self._busy = False

    def _hand_over(self) -> None:
        """Start the next queued slice, or leave the server idle."""
        raise NotImplementedError

    @property
    def utilisation(self) -> float:
        """Fraction of elapsed simulated time the server was busy."""
        if self.sim.now <= 0:
            return 0.0
        return min(1.0, self.busy_time / self.sim.now)


class CPU(_SingleServer):
    """A single-core CPU with explicit context-switch and fork accounting.

    Each :meth:`compute` call by a simulated OS process runs as one *slice*.
    Waiting slices are served by priority, then in arrival order.  When the
    slice that starts service belongs to a different OS process than the one
    that ran last, a context-switch penalty is charged and counted.
    :meth:`fork` charges the cost of creating an OS process.

    This is precisely the accounting the paper's §5.4 evaluation relies on:
    "the efficiency of the hybrid architecture comes from avoiding context
    switches in processing bounces; the total number of context switches is
    reduced by close to a factor of two."
    """

    def __init__(self, sim: Simulator, context_switch_cost: float = 6e-6,
                 fork_cost: float = 300e-6, name: str = "cpu"):
        super().__init__(sim, name)
        self.context_switch_cost = context_switch_cost
        self.fork_cost = fork_cost
        # waiting slices: one FIFO deque per priority class, by class;
        # _order lists the deques lowest priority first
        self._classes: dict[int, deque[Timeout]] = {}
        self._order: list[deque[Timeout]] = []
        self._last_pid: Optional[int] = None
        self.context_switches = 0
        self.forks = 0

    def compute(self, pid: int, work: float, priority: int = 0):
        """Process-body generator: occupy the CPU for ``work`` seconds.

        ``pid`` identifies the simulated OS process; consecutive slices by
        the same pid do not pay the context-switch penalty.  Lower
        ``priority`` values are scheduled first, modelling the OS boosting
        interactive/I/O-bound processes.
        """
        if self._busy:
            queue = self._classes.get(priority)
            if queue is None:
                queue = self._add_class(priority)
            event = self.sim._unscheduled_timeout(work, pid)
            queue.append(event)
        else:
            self._busy = True
            if self._last_pid != pid:
                work += self.context_switch_cost
                self.context_switches += 1
                self._last_pid = pid
            self.busy_time += work
            event = self.sim.timeout(work)
        yield event
        self._hand_over()

    def _add_class(self, priority: int) -> deque[Timeout]:
        """The wait queue of a priority class not seen before."""
        classes = self._classes
        queue = classes[priority] = deque()
        self._order = [classes[p] for p in sorted(classes)]
        return queue

    def _hand_over(self) -> None:
        for queue in self._order:
            if queue:
                break
        else:
            self._busy = False
            return
        event = queue.popleft()
        pid = event._value
        cost = event.delay
        if self._last_pid != pid:
            cost += self.context_switch_cost
            self.context_switches += 1
            self._last_pid = pid
        self.busy_time += cost
        self.sim._start_timeout(event, cost)

    def fork(self, pid: int):
        """Process-body generator: charge for an OS fork by ``pid``."""
        self.forks += 1
        yield from self.compute(pid, self.fork_cost)


class Disk(_SingleServer):
    """A FIFO disk serving operations with explicit service times.

    The caller supplies the service time per operation — computed by a
    filesystem cost model — so the same disk can emulate Ext3 or ReiserFS.
    """

    def __init__(self, sim: Simulator, name: str = "disk"):
        super().__init__(sim, name)
        # waiting operations, in arrival order
        self._queue: deque[Timeout] = deque()
        self.ops = 0
        self.bytes_written = 0

    def io(self, service_time: float, nbytes: int = 0):
        """Process-body generator: perform one I/O of ``service_time`` secs."""
        if service_time < 0:
            raise ValueError(f"negative disk service time: {service_time!r}")
        if self._busy:
            event = self.sim._unscheduled_timeout(service_time, nbytes)
            self._queue.append(event)
        else:
            self._busy = True
            self.ops += 1
            self.bytes_written += nbytes
            self.busy_time += service_time
            event = self.sim.timeout(service_time)
        yield event
        self._hand_over()

    def _hand_over(self) -> None:
        queue = self._queue
        if not queue:
            self._busy = False
            return
        event = queue.popleft()
        service_time = event.delay
        self.ops += 1
        self.bytes_written += event._value
        self.busy_time += service_time
        self.sim._start_timeout(event, service_time)
