"""The simulated postfix-style mail server: vanilla and fork-after-trust.

Both architectures run one SMTP dialogue walk, :meth:`MailServerSim._session`
(banner → HELO → DNSBL → per mail MAIL, RCPTs and DATA → QUIT), and share
the delivery pipeline; they differ *only* in who runs the walk and where it
is split — exactly the delta between the paper's Figs. 6 and 7:

* **vanilla** (Fig. 6): the master hands every new connection to an smtpd
  process (forking one when no idle process exists, up to the process
  limit), which runs the whole walk.  Every protocol step runs in the
  worker's OS process, so the CPU pays a context switch whenever it moves
  between sessions.
* **hybrid** (Fig. 7): the master runs the walk in its own event loop — all
  CPU slices carry the *master's* pid, so interleaved envelope work causes
  no context switches — and stops at the trust point, the first valid
  recipient.  The session is then delegated, over a bounded task queue (the
  64 KB UNIX-socket buffer, §5.3: ≈28 tasks), to an smtpd worker that
  resumes the walk at the next recipient.  Bounce and unfinished sessions
  never leave the master.

The OS-process accounting (pids, context switches, forks) is handled by
:class:`repro.sim.resources.CPU`; mailbox writes are priced by the
filesystem cost models via the planners in :mod:`repro.server.ioplan`.

When tracing is enabled (``repro.obs.capture``) the server emits one
flight-recorder event per site, keyed by a per-server connection id; each
lifecycle phase ends in a closing event carrying the phase's start as
``t0``, from which the tracer derives the phase's span (catalogues in
``docs/OBSERVABILITY.md``).  With tracing off (the default) every emission
site is behind an ``is not None`` check on an attribute that is ``None``,
so the simulation pays nothing.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..dnsbl.resolver import DnsblResolver
from ..obs.trace import tracer
from ..sim.core import Process, Simulator
from ..sim.resources import CPU, Disk, Store
from ..traces.record import Connection
from .config import ServerConfig
from .ioplan import plan_delivery, plan_queue_write
from .metrics import ServerMetrics

__all__ = ["MailServerSim"]

MASTER_PID = 0
DELIVERY_PID = 1
_FIRST_WORKER_PID = 100
#: pending-connection backlog before the server refuses (listen(2) queue)
ACCEPT_BACKLOG = 1024


class _Worker:
    """One smtpd OS process."""

    __slots__ = ("pid", "inbox", "served")

    def __init__(self, pid: int, inbox: Store):
        self.pid = pid
        self.inbox = inbox
        self.served = 0


class MailServerSim:
    """A complete simulated mail server bound to one :class:`Simulator`."""

    def __init__(self, sim: Simulator, config: ServerConfig,
                 resolver: Optional[DnsblResolver] = None,
                 reject_blacklisted: bool = False):
        self.sim = sim
        self.config = config
        self.costs = config.costs
        self.resolver = resolver
        self.reject_blacklisted = reject_blacklisted
        self.metrics = ServerMetrics()

        tr = tracer()
        self._tr = tr if tr.enabled else None
        self._run = (tr.begin_run(arch=config.architecture,
                                  storage=config.storage_backend)
                     if self._tr is not None else 0)
        if self._tr is not None:
            # time-series sampling: diff this server's registry per window
            sim.series_attach(self._run, self.metrics.registry)
        self._rec = tr.recorder if tr.enabled else None
        if self._rec is not None:
            self._rec.emit("run.begin", sim.now, self._run, 0,
                           (config.architecture, config.storage_backend))
        self._conn_ids = itertools.count(1)

        self.cpu = CPU(sim,
                       context_switch_cost=self.costs.context_switch_cost,
                       fork_cost=self.costs.fork_cost)
        self.disk = Disk(sim)
        self._pids = itertools.count(_FIRST_WORKER_PID)

        # delivery pipeline: accepted mails → queue manager → local agents
        self.incoming: Store = Store(sim, name="incoming-queue")
        for agent in range(config.delivery_concurrency):
            sim.process(self._delivery_loop(DELIVERY_PID + agent),
                        name=f"delivery-{agent}")

        # worker pool
        self._workers: list[_Worker] = []
        self._idle: list[_Worker] = []
        self._forking = 0  # forks in flight (the fork itself blocks)
        self._rr_index = 0
        if config.architecture == "vanilla":
            # connections waiting for an smtpd process (the listen backlog)
            self._backlog: Store = Store(sim, capacity=ACCEPT_BACKLOG,
                                         name="backlog")

    # ------------------------------------------------------------------ API --
    def connect(self, conn: Connection) -> Process:
        """A client opens ``conn``; returns the session-completion process."""
        name = f"conn@{conn.t:.3f}"
        if self.config.architecture == "vanilla":
            return self.sim.process(self._vanilla_entry(conn), name=name)
        return self.sim.process(self._hybrid_entry(conn), name=name)

    def finalize(self, run_time: float) -> ServerMetrics:
        """Snapshot metrics after a run of ``run_time`` simulated seconds."""
        m = self.metrics
        m.run_time = run_time
        m.context_switches = self.cpu.context_switches
        m.forks = self.cpu.forks
        m.cpu_busy = self.cpu.busy_time
        m.disk_busy = self.disk.busy_time
        if self._tr is not None:
            # dumped before any steady-state-window rebasing, so the trace's
            # aggregate counters match the full-run span stream exactly
            self._tr.emit_metrics(self._run, m.dump())
        return m

    def _open(self, conn: Connection) -> tuple[int, float]:
        """Count a new connection; returns its id and opening instant."""
        self.metrics.connections_started += 1
        cid = next(self._conn_ids)
        t_conn = self.sim.now
        if self._rec is not None:
            self._rec.emit("conn.open", t_conn, self._run, cid,
                           (conn.client_addr,))
        return cid, t_conn

    # -------------------------------------------------------- vanilla path --
    def _vanilla_entry(self, conn: Connection):
        """Master side: find or fork an smtpd, then run the session in it."""
        cid, t_conn = self._open(conn)
        if not self._idle and (len(self._workers) + self._forking
                               < self.config.process_limit):
            # reserve the slot before the fork blocks, so concurrent
            # arrivals cannot overshoot the process limit
            self._forking += 1
            t_fork = self.sim.now
            yield from self.cpu.fork(MASTER_PID)
            self._forking -= 1
            worker = _Worker(next(self._pids),
                             Store(self.sim, capacity=1))
            if self._rec is not None:
                self._rec.emit("fork", self.sim.now, self._run, cid,
                               (t_fork, worker.pid))
            self._workers.append(worker)
            self._idle.append(worker)
            self.sim.process(self._vanilla_worker_loop(worker),
                             name=f"smtpd-{worker.pid}")
        done = self.sim.event()
        if self._idle:
            worker = self._idle.pop()
            worker.inbox.try_put((conn, done, cid, t_conn))
        else:
            yield self._backlog.put((conn, done, cid, t_conn))
        yield done

    def _vanilla_worker_loop(self, worker: _Worker):
        """One smtpd process: serve sessions until recycled (max_use).

        The worker drains the shared backlog first (connections that arrived
        while every process was busy), then parks itself in the idle pool
        waiting on its inbox; the master dispatches to idle workers directly.
        """
        recycled = False
        while not recycled:
            recycled = worker.served >= self.config.worker_max_requests
            if recycled:
                # the OS process exits; the master forks afresh on demand.
                # A connection dispatched while we served our last session
                # must not be dropped: finish it before exiting (postfix
                # lets max_use slip by the request already in flight).
                self._workers.remove(worker)
                if worker in self._idle:
                    self._idle.remove(worker)
                ok, item = worker.inbox.try_get()
                if not ok:
                    return
            else:
                ok, item = self._backlog.try_get()
                if not ok:
                    if worker not in self._idle:
                        self._idle.append(worker)
                    item = yield worker.inbox.get()
                elif worker in self._idle:
                    # serving straight from the backlog: not dispatchable now
                    self._idle.remove(worker)
            conn, done, cid, t_conn = item
            worker.served += 1
            yield from self._session(conn, worker.pid, False, cid, t_conn)
            done.succeed(None)

    # --------------------------------------------------------- hybrid path --
    def _hybrid_entry(self, conn: Connection):
        """Master event loop: walk to the trust point, then delegate."""
        cid, t_conn = self._open(conn)
        resume = yield from self._session(conn, MASTER_PID, True, cid, t_conn)
        if resume is None:
            # bounce / unfinished / rejected: fully handled by the master
            return
        # delegate to a worker over a bounded task socket (§5.3)
        t_deleg = self.sim.now
        yield from self.cpu.compute(MASTER_PID, self.costs.delegation_cost)
        worker = self._pick_hybrid_worker()
        task = (conn, resume, cid, t_conn)
        if not worker.inbox.try_put(task):
            # all sockets full: the finite buffers throttle the master
            yield worker.inbox.put(task)
        if self._rec is not None:
            self._rec.emit("delegate", self.sim.now, self._run, cid,
                           (t_deleg, len(worker.inbox)))

    def _pick_hybrid_worker(self) -> _Worker:
        """Round-robin over the worker pool, growing it up to the limit."""
        if len(self._workers) < self.config.process_limit:
            worker = _Worker(next(self._pids),
                             Store(self.sim,
                                   capacity=self.config.task_queue_depth))
            self._workers.append(worker)
            self.sim.process(self._hybrid_worker_loop(worker),
                             name=f"smtpd-{worker.pid}")
            return worker
        # nonblocking round-robin: first worker with buffer space, else the
        # next one in order (master blocks on it — the natural throttle)
        n = len(self._workers)
        for i in range(n):
            worker = self._workers[(self._rr_index + i) % n]
            if not worker.inbox.is_full:
                self._rr_index = (self._rr_index + i + 1) % n
                return worker
        worker = self._workers[self._rr_index]
        self._rr_index = (self._rr_index + 1) % n
        return worker

    def _hybrid_worker_loop(self, worker: _Worker):
        while True:
            conn, resume, cid, t_conn = yield worker.inbox.get()
            worker.served += 1
            yield from self._session(conn, worker.pid, False, cid, t_conn,
                                     resume)

    # ------------------------------------------------------------- session --
    def _session(self, conn: Connection, pid: int, event_mode: bool,
                 cid: int, t_conn: float,
                 resume: Optional[tuple[int, int]] = None):
        """The SMTP dialogue: banner → HELO → (DNSBL) → for each mail MAIL,
        its RCPTs and, if a recipient was valid, DATA → QUIT.

        ``event_mode`` selects the hybrid master's cheap event-loop cost
        tier and stops the walk at the trust point, the first valid RCPT,
        returning ``(mail index, next recipient index)``.  Otherwise the
        walk runs in an smtpd, which pays the per-connection process tax
        and walks to QUIT, from the banner or from a ``resume`` pair.
        Returns ``None`` once the session has ended.
        """
        costs, cpu, sim = self.costs, self.cpu, self.sim
        metrics, rec = self.metrics, self._rec
        rtt = costs.rtt
        if event_mode:
            mode = "event"
            accept_cost = costs.event_accept_cost
            command_cost = costs.event_command_cost
        else:
            mode = "process"
            accept_cost, command_cost = costs.accept_cost, costs.command_cost
            yield from cpu.compute(pid, costs.process_dispatch_cost)
        # the phase start: the envelope's, or a delegated data phase's
        t0 = sim.now
        trusted = resume is not None
        if trusted:
            first_mail, first_rcpt = resume
        else:
            first_mail = first_rcpt = 0
            yield from cpu.compute(pid, accept_cost)       # accept + banner
            yield sim.timeout(rtt)                         # banner → HELO
            yield from cpu.compute(pid, command_cost)      # HELO
            if self.resolver is not None:
                rejected = yield from self._dnsbl_check(conn, pid, cid)
                if rejected:
                    self._finish(t0, cid, t_conn, "rejected", mode)
                    return None
            yield sim.timeout(rtt)
            if conn.unfinished:
                yield from cpu.compute(pid, command_cost)  # QUIT
                metrics.unfinished_connections += 1
                self._finish(t0, cid, t_conn, "unfinished", mode)
                return None

        mails = conn.mails
        for index in range(first_mail, len(mails)):
            mail = mails[index]
            recipients = mail.recipients
            if not first_rcpt:
                yield from cpu.compute(pid, command_cost)  # MAIL FROM
                if rec is not None:
                    rec.emit("smtp.mail", sim.now, self._run, cid,
                             (len(recipients),))
                yield sim.timeout(rtt)
            # a resumed mail already has its trusted recipient
            any_valid = first_rcpt > 0
            for r_index in range(first_rcpt, len(recipients)):
                rcpt = recipients[r_index]
                yield from cpu.compute(
                    pid, command_cost + costs.rcpt_lookup_cost)
                metrics.rcpts_accepted += rcpt.valid
                metrics.rcpts_rejected += not rcpt.valid
                if rec is not None:
                    rec.emit("smtp.rcpt", sim.now, self._run, cid,
                             (rcpt.valid,))
                yield sim.timeout(rtt)
                if rcpt.valid:
                    any_valid = True
                    if not trusted:
                        # fork-after-trust boundary: first valid recipient
                        if rec is not None:
                            rec.emit("envelope.done", sim.now, self._run,
                                     cid, (t0, mode, "trusted"))
                        if event_mode:
                            return index, r_index + 1
                        trusted = True
                        t0 = sim.now
            first_rcpt = 0
            if any_valid:
                # DATA, body transfer, cleanup and queue write
                t_data = sim.now
                yield from cpu.compute(pid, command_cost)  # DATA
                yield sim.timeout(rtt)                     # 354 → body
                yield from cpu.compute(pid, costs.data_fixed_cost
                                       + mail.size * costs.data_per_byte)
                # postfix incoming queue; §6.3: temporary files stay on a
                # regular FS
                for op in plan_queue_write(mail.size):
                    yield from self.disk.io(self.config.fs_model.cost(op),
                                            op.nbytes)
                yield sim.timeout(rtt)                     # 250 queued
                metrics.mails_accepted += 1
                if rec is not None:
                    rec.emit("data", sim.now, self._run, cid,
                             (t_data, mail.size))
                # sinkhole mode accepts, counts and drops: no mailbox writes
                if not self.config.discard_delivery:
                    self.incoming.put((mail.size,
                                       len(mail.valid_recipients), cid))
        yield from cpu.compute(pid, command_cost)          # QUIT
        if trusted:
            self._finish(t0, cid, t_conn, "accepted")
        else:
            # every recipient of every mail bounced
            metrics.bounce_connections += 1
            self._finish(t0, cid, t_conn, "bounce", mode)
        return None

    def _dnsbl_check(self, conn: Connection, pid: int, cid: int = 0):
        """Blacklist lookup at connect time; returns True when rejected."""
        costs = self.costs
        t0 = self.sim.now
        yield from self.cpu.compute(pid, costs.dns_cache_cost)
        # DNS cache emulation (§7.2): the paper replays the two-month trace
        # and emulates cache contents at *trace* time, not replay time
        clock = conn.t if self.config.dnsbl_use_trace_time else self.sim.now
        result = self.resolver.lookup(conn.client_addr, clock)
        if not result.cache_hit:
            yield from self.cpu.compute(
                pid, costs.dns_query_cost * max(1, result.queries_issued))
            yield self.sim.timeout(result.latency)
            self.metrics.dnsbl_queries += 1
        # counted once the check ends, at the instant of its closing event,
        # so a run cut during a DNS wait counts neither
        self.metrics.dnsbl_lookups += 1
        self.metrics.observe_lookup(result.latency)
        if self._rec is not None:
            self._rec.emit("dnsbl.check", self.sim.now, self._run, cid,
                           (t0, result.cache_hit, result.listed))
        if result.listed and self.reject_blacklisted:
            self.metrics.dnsbl_rejects += 1
            return True
        return False

    def _finish(self, t0: float, cid: int, t_conn: float, outcome: str,
                mode: Optional[str] = None) -> None:
        """End the session; a ``mode`` also closes the envelope it ended."""
        self.metrics.connections_finished += 1
        if outcome == "rejected":
            self.metrics.connections_rejected += 1
        # the session-duration sample starts at the current *phase* start
        # (data-phase start for accepted sessions), matching the pre-obs
        # figures; the connection span covers the whole session (t_conn →)
        self.metrics.observe_session(self.sim.now - t0)
        rec = self._rec
        if rec is not None:
            if mode is not None:
                rec.emit("envelope.done", self.sim.now, self._run, cid,
                         (t0, mode, outcome))
            rec.emit("conn.close", self.sim.now, self._run, cid,
                     (t_conn, outcome))

    # ----------------------------------------------------------- delivery --
    def _delivery_loop(self, pid: int):
        """Queue manager + local delivery: mailbox writes via the backend.

        Several agents run concurrently (postfix's destination concurrency)
        so mailbox disk writes overlap the agents' CPU work.  Each recipient
        costs local-agent CPU: opening/locking/writing the destination
        mailbox — cheaper under MFS, whose ``mail_nwrite`` batches all
        recipients under one shared-mailbox operation (§6.2).
        """
        costs = self.costs
        backend = self.config.storage_backend
        per_write_cpu = (costs.mfs_local_write_cost if backend == "mfs"
                         else costs.local_write_cost)
        while True:
            size, n_rcpts, cid = yield self.incoming.get()
            t0 = self.sim.now
            # I/O-bound delivery agents get scheduler priority over the
            # CPU-hungry smtpd pool, as a real OS scheduler would arrange
            yield from self.cpu.compute(
                pid, costs.delivery_fixed_cost + n_rcpts * per_write_cpu,
                priority=-1)
            for op in plan_delivery(backend, size, n_rcpts):
                yield from self.disk.io(self.config.fs_model.cost(op),
                                        op.nbytes)
            self.metrics.mailbox_writes += n_rcpts
            if self._rec is not None:
                self._rec.emit("delivery", self.sim.now, self._run, cid,
                               (t0, n_rcpts, size))

