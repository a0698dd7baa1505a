"""Open-system workload driver ("Client program 2", Table 1).

Initiates new connections at a configurable rate regardless of how many are
already in flight — the open-system model of Schroeder et al. [24].  The
paper uses this driver for the DNSBL throughput experiment (Fig. 14), where
the interesting regime is offered load near and beyond saturation.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..server.metrics import ServerMetrics
from ..server.simserver import MailServerSim
from ..sim.core import Simulator
from ..sim.random import RngStream
from ..traces.record import Trace

__all__ = ["OpenLoopClient", "run_open"]


class OpenLoopClient:
    """Poisson arrivals at ``rate`` connections/second, bodies from a trace.

    The trace is cycled if the run needs more connections than it holds.
    Arrival times in the trace are ignored — the *offered rate* is the
    experiment's x-axis (Fig. 14).
    """

    def __init__(self, sim: Simulator, server: MailServerSim, trace: Trace,
                 rate: float, duration: float,
                 rng: Optional[RngStream] = None):
        if rate <= 0:
            raise ValueError("arrival rate must be positive")
        if duration <= 0:
            raise ValueError("duration must be positive")
        if not len(trace):
            raise ValueError("cannot drive with an empty trace")
        self.sim = sim
        self.server = server
        self.trace = trace
        self.rate = rate
        self.duration = duration
        self.rng = rng or RngStream(99)
        self.offered = 0

    def start(self) -> None:
        self.sim.process(self._arrival_loop(), name="open-client")

    def _arrival_loop(self):
        bodies = itertools.cycle(self.trace.connections)
        while self.sim.now < self.duration:
            yield self.sim.timeout(self.rng.exponential(1.0 / self.rate))
            if self.sim.now >= self.duration:
                break
            self.offered += 1
            self.server.connect(next(bodies))


def run_open(trace: Trace, server_factory, rate: float, duration: float,
             seed: int = 99, drain: bool = True) -> ServerMetrics:
    """Offer ``rate`` connections/sec for ``duration`` sim-seconds.

    With ``drain`` the run continues until in-flight sessions finish, but
    rates are still computed over the offered-load window.
    """
    sim = Simulator()
    server = server_factory(sim)
    client = OpenLoopClient(sim, server, trace, rate=rate, duration=duration,
                            rng=RngStream(seed))
    client.start()
    if drain:
        sim.run()
        window = max(duration, min(sim.now, duration * 1.5))
    else:
        sim.run(until=duration)
        window = duration
    return server.finalize(window)
