"""Closed-system workload driver ("Client program 1", Table 1).

Maintains a fixed number of concurrent connections: each virtual client
opens a session, waits for it to finish, then immediately opens the next —
the closed-system model of Schroeder et al. [24] that the paper's
throughput experiments (Figs. 8, 10, 11) use.  Trace arrival timestamps are
ignored; the *content* of each connection comes from the trace in order.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional

from ..server.metrics import ServerMetrics
from ..server.simserver import MailServerSim
from ..sim.core import Simulator
from ..traces.record import Connection, Trace

__all__ = ["ClosedLoopClient", "run_closed"]


class ClosedLoopClient:
    """Drives a server with ``concurrency`` always-open connections.

    ``trace`` is any iterable of connections — a :class:`Trace`, or an
    endless ``itertools.cycle`` of one for a timed run.
    """

    def __init__(self, sim: Simulator, server: MailServerSim,
                 trace: Iterable[Connection], concurrency: int = 300):
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.sim = sim
        self.server = server
        self.trace = trace
        self.concurrency = concurrency
        self._iterator: Iterator[Connection] = iter(trace)
        self._exhausted = False
        self._active = 0
        self._all_done = sim.event()

    def start(self) -> None:
        for i in range(self.concurrency):
            self.sim.process(self._client_loop(), name=f"client-{i}")

    @property
    def finished(self):
        """Event firing when the whole trace has been played."""
        return self._all_done

    def _next_connection(self) -> Optional[Connection]:
        try:
            return next(self._iterator)
        except StopIteration:
            self._exhausted = True
            return None

    def _client_loop(self):
        self._active += 1
        while True:
            conn = self._next_connection()
            if conn is None:
                break
            yield self.server.connect(conn)
        self._active -= 1
        if self._active == 0 and not self._all_done.triggered:
            self._all_done.succeed(None)


def run_closed(trace: Trace, server_factory,
               concurrency: int = 300) -> ServerMetrics:
    """Convenience runner: play a whole trace through a closed-loop client.

    ``server_factory(sim)`` builds the server.  The run ends when every
    trace connection has completed; metrics cover the full run.
    """
    sim = Simulator()
    server = server_factory(sim)
    client = ClosedLoopClient(sim, server, trace, concurrency=concurrency)
    client.start()
    sim.run()
    return server.finalize(sim.now)


def run_closed_timed(trace: Trace, server_factory, concurrency: int = 300,
                     duration: float = 120.0,
                     warmup: float = 10.0) -> ServerMetrics:
    """Sustained-load runner: drive for ``duration`` sim-seconds (§5.4: "for
    5 minutes"), cycling the trace, and report *steady-state* rates.

    Counters are snapshotted at ``warmup`` and rates computed over
    ``duration - warmup``, so ramp-up (fork storms, cold caches) and the
    end-of-run drain do not distort throughput the way a play-the-whole-
    trace run does when acceptance and delivery have different bottlenecks.
    """
    if warmup >= duration:
        raise ValueError("warmup must be shorter than duration")
    sim = Simulator()
    server = server_factory(sim)
    client = ClosedLoopClient(sim, server,
                              itertools.cycle(trace.connections),
                              concurrency=concurrency)
    client.start()
    sim.run(until=warmup)
    accepted0 = server.metrics.mails_accepted
    writes0 = server.metrics.mailbox_writes
    finished0 = server.metrics.connections_finished
    cs0, forks0 = server.cpu.context_switches, server.cpu.forks
    cpu0, disk0 = server.cpu.busy_time, server.disk.busy_time
    sim.run(until=duration)
    metrics = server.finalize(duration - warmup)
    metrics.mails_accepted -= accepted0
    metrics.mailbox_writes -= writes0
    metrics.connections_finished -= finished0
    metrics.context_switches -= cs0
    metrics.forks -= forks0
    metrics.cpu_busy -= cpu0
    metrics.disk_busy -= disk0
    return metrics
