"""Real asyncio SMTP server with pluggable concurrency architecture.

This is the functional (not simulated) realisation of the paper's two
architectures over real TCP sockets:

* ``task-per-connection`` — the asyncio analogue of vanilla postfix: every
  accepted connection immediately gets a dedicated handler task drawn from
  a bounded pool (the smtpd process limit).
* ``fork-after-trust`` — the §5 hybrid: the acceptor (playing the master's
  event loop) speaks the SMTP envelope itself, using the sans-IO
  :class:`~repro.smtp.fsm.ServerSession`; only when the session emits
  :class:`~repro.smtp.fsm.TrustEstablished` is the connection handed to a
  bounded worker pool over per-worker task queues (the UNIX-socket buffers
  of §5.3).  Bounce and unfinished sessions never consume a worker slot.

Accepted mails are delivered to any :class:`~repro.storage.base.MailboxStore`
(use :class:`~repro.mfs.store.MfsStore` for the full spam-aware stack) and
an optional async DNSBL check can reject blacklisted clients at connect.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Optional

from ..errors import StorageError
from ..obs.contract import declare
from ..obs.trace import active_registry
from ..smtp.address import Address
from ..smtp.constants import SessionOutcome
from ..smtp.fsm import (AcceptedMail, CloseSession, SendReply, ServerSession,
                        TrustEstablished)
from ..smtp.message import MailIdGenerator, MailMessage
from ..smtp.replies import STANDARD
from ..storage.base import MailboxStore

__all__ = ["NetServerConfig", "NetServerStats", "SmtpServer"]

#: async callback deciding whether a client IP is blacklisted
BlacklistCheck = Callable[[str], Awaitable[bool]]


@dataclass
class NetServerConfig:
    """Configuration of the asyncio SMTP server."""

    hostname: str = "mail.dest.example"
    host: str = "127.0.0.1"
    port: int = 0                     # 0 = pick a free port
    architecture: str = "fork-after-trust"   # or "task-per-connection"
    worker_pool_size: int = 16        # the smtpd process limit analogue
    task_queue_depth: int = 28        # §5.3's socket-buffer estimate
    max_recipients: int = 100
    max_message_bytes: int = 10 * 1024 * 1024
    reject_blacklisted: bool = True

    def __post_init__(self):
        if self.architecture not in ("fork-after-trust",
                                     "task-per-connection"):
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.worker_pool_size < 1:
            raise ValueError("worker_pool_size must be >= 1")


@dataclass
class NetServerStats:
    """Live counters of a running server."""

    connections: int = 0
    delivered_sessions: int = 0
    bounce_sessions: int = 0
    unfinished_sessions: int = 0
    rejected_sessions: int = 0
    mails_accepted: int = 0
    mails_failed: int = 0              # store refused the mail; answered 451
    handoffs: int = 0                  # sessions delegated after trust
    outcomes: dict = field(default_factory=dict)

    def note_outcome(self, outcome: SessionOutcome) -> None:
        self.outcomes[outcome.value] = self.outcomes.get(outcome.value, 0) + 1
        if outcome is SessionOutcome.DELIVERED:
            self.delivered_sessions += 1
        elif outcome is SessionOutcome.BOUNCE:
            self.bounce_sessions += 1
        elif outcome is SessionOutcome.UNFINISHED:
            self.unfinished_sessions += 1
        else:
            self.rejected_sessions += 1


class SmtpServer:
    """An asyncio SMTP server over a mailbox store.

    >>> # see examples/quickstart.py and tests/test_net_smtp.py
    """

    def __init__(self, config: NetServerConfig, store: MailboxStore,
                 validator: Callable[[Address], bool],
                 blacklist_check: Optional[BlacklistCheck] = None,
                 clock: Callable[[], float] = None):
        self.config = config
        self.store = store
        self.validator = validator
        self.blacklist_check = blacklist_check
        self.stats = NetServerStats()
        self.mail_ids = MailIdGenerator()
        self._clock = clock or (lambda: asyncio.get_event_loop().time())
        self._server: Optional[asyncio.Server] = None
        self._workers: list[asyncio.Task] = []
        self._queues: list[asyncio.Queue] = []
        self._rr = 0
        reg = active_registry()
        if reg is not None:
            self._c_conns = declare(reg, "net.connections")
            self._c_handoffs = declare(reg, "net.handoffs")
            self._g_depth = declare(reg, "net.queue.depth")
        else:
            self._c_conns = None

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns ``(host, port)``."""
        if self.config.architecture == "fork-after-trust":
            for index in range(self.config.worker_pool_size):
                queue: asyncio.Queue = asyncio.Queue(
                    maxsize=self.config.task_queue_depth)
                self._queues.append(queue)
                self._workers.append(asyncio.create_task(
                    self._worker_loop(queue), name=f"smtpd-{index}"))
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port)
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for worker in self._workers:
            worker.cancel()
        for worker in self._workers:
            try:
                await worker
            except asyncio.CancelledError:
                pass
        self._workers.clear()
        self._queues.clear()

    async def __aenter__(self) -> "SmtpServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    @property
    def port(self) -> int:
        return self._server.sockets[0].getsockname()[1]

    # -- connection handling -------------------------------------------------
    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self.stats.connections += 1
        if self._c_conns is not None:
            self._c_conns.inc()
        peer = writer.get_extra_info("peername") or ("?", 0)
        session = ServerSession(
            self.config.hostname, self.validator, mail_ids=self.mail_ids,
            client_ip=str(peer[0]), max_recipients=self.config.max_recipients,
            max_message_bytes=self.config.max_message_bytes,
            clock=self._clock)
        handed_off = False
        try:
            if await self._blacklist_reject(session, writer):
                return
            await self._perform(session.banner(), writer)
            if self.config.architecture == "task-per-connection":
                await self._drive_until_closed(session, reader, writer)
            else:
                handed_off = await self._drive_master_phase(session, reader,
                                                            writer)
        except (ConnectionResetError, BrokenPipeError):
            for action in session.connection_lost():
                if isinstance(action, CloseSession):
                    self.stats.note_outcome(action.outcome)
        finally:
            # a handed-off connection now belongs to its worker
            if not handed_off and not writer.is_closing():
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass

    async def _blacklist_reject(self, session: ServerSession,
                                writer: asyncio.StreamWriter) -> bool:
        if self.blacklist_check is None or not self.config.reject_blacklisted:
            return False
        if not await self.blacklist_check(session.client_ip):
            return False
        await self._perform(session.reject_blacklisted(), writer)
        return True

    async def _drive_until_closed(self, session: ServerSession,
                                  reader: asyncio.StreamReader,
                                  writer: asyncio.StreamWriter) -> None:
        """The task-per-connection path: one loop does the whole session."""
        while not session.closed:
            data = await reader.read(4096)
            if not data:
                await self._perform(session.connection_lost(), writer)
                return
            await self._perform(session.receive_data(data), writer)

    async def _drive_master_phase(self, session: ServerSession,
                                  reader: asyncio.StreamReader,
                                  writer: asyncio.StreamWriter) -> bool:
        """The fork-after-trust master loop: envelope only, then hand off.

        Runs in the acceptor's context (the "event loop" of §5.1).  On
        :class:`TrustEstablished` the (session, reader, writer) triple is
        queued to a worker — the analogue of passing the connection socket
        over the UNIX domain socket — and this coroutine returns without
        closing the connection.
        """
        while not session.closed:
            data = await reader.read(4096)
            if not data:
                await self._perform(session.connection_lost(), writer)
                return False
            actions = session.receive_data(data)
            trusted = any(isinstance(a, TrustEstablished) for a in actions)
            await self._perform(actions, writer)
            if trusted:
                self.stats.handoffs += 1
                if self._c_conns is not None:
                    self._c_handoffs.inc()
                await self._dispatch(session, reader, writer)
                return True
        return False

    async def _dispatch(self, session: ServerSession,
                        reader: asyncio.StreamReader,
                        writer: asyncio.StreamWriter) -> None:
        """Round-robin nonblocking dispatch with a blocking fallback (§5.3)."""
        n = len(self._queues)
        for i in range(n):
            queue = self._queues[(self._rr + i) % n]
            if not queue.full():
                self._rr = (self._rr + i + 1) % n
                queue.put_nowait((session, reader, writer))
                self._note_queue_depth()
                return
        # every buffer full: the finite queues throttle the master
        queue = self._queues[self._rr]
        self._rr = (self._rr + 1) % n
        await queue.put((session, reader, writer))
        self._note_queue_depth()

    def _note_queue_depth(self) -> None:
        if self._c_conns is not None:
            self._g_depth.set(sum(q.qsize() for q in self._queues))

    async def _worker_loop(self, queue: asyncio.Queue) -> None:
        """One smtpd worker: finish delegated sessions, one at a time."""
        while True:
            session, reader, writer = await queue.get()
            try:
                await self._drive_until_closed(session, reader, writer)
            except (ConnectionResetError, BrokenPipeError):
                for action in session.connection_lost():
                    if isinstance(action, CloseSession):
                        self.stats.note_outcome(action.outcome)
            finally:
                if not writer.is_closing():
                    writer.close()
                queue.task_done()

    # -- action execution --------------------------------------------------------
    async def _perform(self, actions, writer: asyncio.StreamWriter) -> None:
        # the session emits AcceptedMail followed by its "250 queued" reply;
        # a mail the store refuses is answered 451 in place of that reply
        store_failed = False
        for action in actions:
            if isinstance(action, SendReply):
                reply = action.reply
                if store_failed:
                    reply = STANDARD.storage_failed
                    store_failed = False
                writer.write(reply.encode())
            elif isinstance(action, AcceptedMail):
                store_failed = not self._deliver(action.message)
            elif isinstance(action, CloseSession):
                self.stats.note_outcome(action.outcome)
        await writer.drain()

    def _deliver(self, message: MailMessage) -> bool:
        """Store ``message``; False when the store refuses it."""
        # storage backends are synchronous; mailbox writes are small, and
        # correctness tests rely on read-your-writes ordering
        try:
            self.store.deliver(message)
        except StorageError:
            self.stats.mails_failed += 1
            return False
        self.stats.mails_accepted += 1
        return True
