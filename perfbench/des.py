"""The two simulated workloads: closed-bounce and open-spam.

One *round* builds a workload's inputs and both server variants (the
set-up), then drives each variant for a fixed simulated time (the timed
section).  Rounds run inside ``repro.obs.capture(keep_spans=False,
watchdogs=True)``, the default mode of ``repro-experiments``, unless the
traced run asks for an uninstrumented round to price the watchdogs.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import time
from dataclasses import dataclass, field

from repro.clients.closed import ClosedLoopClient
from repro.clients.open import OpenLoopClient
from repro.core import build_spamaware, build_vanilla
from repro.dnsbl.resolver import DnsblBank
from repro.dnsbl.server import DnsblServer
from repro.dnsbl.zone import DnsblZone
from repro.obs import capture
from repro.server import MailServerSim, ServerConfig
from repro.server import simserver
from repro.sim.core import Simulator
from repro.sim.random import RngStream
from repro.sim.resources import CPU, Disk
from repro.traces import SinkholeTraceGenerator

import workloads
from layers import Probe
from workloads import INPUTS, child_seed

#: closed-bounce: Fig. 8's virtual clients
CLOSED_CLIENTS = 600
CLOSED_SIM_SECONDS = 20.0
#: open-spam: Fig. 14's top offered rate, past vanilla's saturation
OPEN_RATE = 200.0
OPEN_SIM_SECONDS = 20.0


@dataclass
class Variant:
    name: str
    sim: Simulator
    server: MailServerSim
    latencies: list = field(default_factory=list)   # simulated seconds
    failed_sessions: int = 0
    metrics: object = None


@dataclass
class Round:
    setup_s: float
    timed_s: float
    variants: list
    violations: list
    recorder_events: int = 0

    @property
    def connections(self) -> int:
        return sum(v.metrics.connections_finished for v in self.variants)

    @property
    def conn_per_s(self) -> float:
        return self.connections / self.timed_s


def build_variants(workload: str, inputs, seed: int) -> list[Variant]:
    """Construct both servers of a workload, each on its own simulator."""
    out = []
    if workload == "closed-bounce":
        for name, config in (("vanilla", ServerConfig.vanilla()),
                             ("hybrid", ServerConfig.hybrid())):
            sim = Simulator()
            out.append(Variant(name, sim, MailServerSim(sim, config)))
    else:
        dnsbl_seed = child_seed(seed, "dnsbl")
        for name, build in (("vanilla", build_vanilla),
                            ("spamaware", build_spamaware)):
            sim = Simulator()
            out.append(Variant(name, sim, build(sim, inputs.zone_ips,
                                                dnsbl_seed=dnsbl_seed)))
    return out


def _time_sessions(variant: Variant) -> dict:
    """Record each session's simulated connect-to-close latency.

    This is the client's view, as a loopback client times its sessions;
    a session whose process fails counts as failed.  Returns the sessions
    still open, by process, with their connect times.
    """
    sim, server = variant.sim, variant.server
    connect = server.connect
    latencies = variant.latencies
    open_sessions = {}

    def timed_connect(conn):
        t0 = sim.now
        process = connect(conn)
        open_sessions[process] = t0

        def done(event):
            del open_sessions[event]
            if event.ok:
                latencies.append(sim.now - t0)
            else:
                variant.failed_sessions += 1
        process.add_callback(done)
        return process

    server.connect = timed_connect
    return open_sessions


def drive(workload: str, inputs, variants: list[Variant], seed: int) -> None:
    """The timed section: play the workload against every variant."""
    for variant in variants:
        open_sessions = _time_sessions(variant)
        sim, server = variant.sim, variant.server
        if workload == "closed-bounce":
            # the client only iterates its trace, so an endless cycle
            # keeps all 600 clients busy for the whole window
            client = ClosedLoopClient(
                sim, server, itertools.cycle(inputs.trace.connections),
                concurrency=CLOSED_CLIENTS)
            duration = CLOSED_SIM_SECONDS
        else:
            client = OpenLoopClient(
                sim, server, inputs.trace, rate=OPEN_RATE,
                duration=OPEN_SIM_SECONDS,
                rng=RngStream(child_seed(seed, "arrivals")))
            duration = OPEN_SIM_SECONDS
        client.start()
        sim.run(until=duration)
        variant.metrics = server.finalize(duration)
        # a session still open at the end has waited at least this long:
        # counting it keeps a growing backlog visible in the percentiles
        variant.latencies.extend(duration - t0
                                 for t0 in open_sessions.values())


def run_round(workload: str, seed: int, watchdogs: bool = True,
              profiler=None) -> Round:
    """Set up and run one round; returns its timings and outcomes.

    A ``cProfile.Profile`` passed as ``profiler`` covers the timed section.
    """
    # start every round from the same heap, so that collecting the last
    # round's garbage does not land in this round's timings
    gc.collect()
    context = (capture(keep_spans=False, watchdogs=True) if watchdogs
               else contextlib.nullcontext())
    with context as tr:
        t0 = time.perf_counter()
        inputs = INPUTS[workload](seed)
        variants = build_variants(workload, inputs, seed)
        t1 = time.perf_counter()
        if profiler is None:
            drive(workload, inputs, variants, seed)
        else:
            profiler.runcall(drive, workload, inputs, variants, seed)
        t2 = time.perf_counter()
        violations = tr.invariants.finish() if watchdogs else []
        events = tr.recorder.total_events if watchdogs else 0
    return Round(t1 - t0, t2 - t1, variants, violations, events)


def checks(workload: str, rnd: Round) -> list[tuple[str, bool]]:
    """The round's output checks: watchdogs and the paper's direction."""
    base, opt = rnd.variants[0].metrics, rnd.variants[1].metrics
    out = [("watchdogs report no violation", not rnd.violations),
           ("every session completed without error",
            not any(v.failed_sessions for v in rnd.variants))]
    if workload == "closed-bounce":
        cs_base = base.context_switches / max(1, base.mails_accepted)
        cs_opt = opt.context_switches / max(1, opt.mails_accepted)
        out += [("hybrid goodput above vanilla",
                 opt.goodput() > base.goodput()),
                ("hybrid context switches per mail below vanilla",
                 cs_opt < cs_base)]
    else:
        out += [("spam-aware goodput above vanilla",
                 opt.goodput() > base.goodput()),
                ("spam-aware DNSBL query fraction below vanilla",
                 opt.dnsbl_query_fraction() < base.dnsbl_query_fraction())]
    return out


def traced_round(workload: str, seed: int) -> tuple[Round, Probe]:
    """One round with the benchmark's wrappers on the layer entry points."""
    probe = Probe()
    with probe:
        probe.time(Simulator, "run", "sim.run")
        probe.count(CPU, "compute", "cpu.compute")
        probe.count(Disk, "io", "disk.io")
        probe.count(simserver, "plan_delivery", "plan_delivery",
                    measure=len)
        probe.time(DnsblBank, "lookup", "dnsbl.lookup")
        probe.time(DnsblZone, "__init__", "dnsbl.zone")
        probe.time(DnsblServer, "handle_wire", "dnsbl.wire")
        # the trace generators, as the workload inputs call them
        probe.time(workloads, "bounce_sweep_trace", "traces.generate")
        probe.time(workloads, "with_bounces", "traces.generate")
        probe.time(SinkholeTraceGenerator, "botnet", "traces.generate")
        probe.time(SinkholeTraceGenerator, "generate", "traces.generate")
        rnd = run_round(workload, seed)
    return rnd, probe
