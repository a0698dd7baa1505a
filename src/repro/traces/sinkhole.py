"""Spam sinkhole trace generator.

Reproduces the paper's two-month sinkhole trace (May–June 2007):

* 101,692 connections from 19,492 unique IPs in 8,832 unique /24 prefixes
  (Table 1);
* 5–15 recipients per connection typically, mean ≈ 7 (Fig. 4, §6.3);
* campaign-driven temporal locality: interarrival times per /24 prefix are
  much shorter than per IP (Fig. 13), which is what makes prefix-level DNSBL
  caching effective (Fig. 15: 83.9% vs 73.8% hit ratio with a 24 h TTL).

The generator is scale-free: pass a smaller ``n_connections`` and the IP and
prefix populations scale proportionally, preserving every ratio above.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field

from ..dnsbl.bitmap import int_to_ip
from ..sim.random import RngStream, SeedSequence
from .botnet import BotnetModel, BotnetPrefix
from .record import Connection, MailAttempt, RecipientAttempt, Trace
from .sizes import SPAM_SIZES, SizeModel

__all__ = ["SinkholeConfig", "SinkholeTraceGenerator", "RcptModel"]

DAY = 86_400.0


class RcptModel:
    """Recipients-per-connection model fitted to Fig. 4.

    A discretised lognormal clipped to [1, 20]: median ≈ 6.5, mean ≈ 7,
    with the bulk of the mass in 5–15 as the paper observes.
    """

    def __init__(self, median: float = 6.5, sigma: float = 0.45,
                 lo: int = 1, hi: int = 20):
        self.median = median
        self.sigma = sigma
        self.lo = lo
        self.hi = hi

    def sample(self, rng: RngStream) -> int:
        value = rng.lognormvariate(math.log(self.median), self.sigma)
        return max(self.lo, min(self.hi, int(round(value))))


@dataclass
class SinkholeConfig:
    """Knobs of the sinkhole generator; defaults match the paper's totals."""

    n_connections: int = 101_692
    n_spammers: int = 19_492
    n_prefixes: int = 8_832
    duration_days: float = 61.0
    domain: str = "sinkhole.example"
    seed: int = 2007_05
    #: probability an IP runs a second campaign on a different day — the main
    #: calibration lever for the per-IP DNSBL cache re-miss rate (Fig. 15)
    second_campaign_prob: float = 0.42
    #: fraction of second campaigns that reuse the prefix-wide second day
    #: (rather than an IP-individual day); higher values keep the *prefix*
    #: cache hot across campaigns and widen the prefix-vs-IP gap
    shared_second_day_prob: float = 0.85
    #: spread of a campaign burst in hours
    burst_hours: float = 4.0
    #: passed to :class:`~repro.traces.botnet.BotnetModel`
    half_clustering: float = 0.9
    rcpt_model: RcptModel = field(default_factory=RcptModel)
    size_model: SizeModel = field(default_factory=lambda: SPAM_SIZES)

    def scaled(self, n_connections: int) -> "SinkholeConfig":
        """A proportionally scaled-down configuration."""
        factor = n_connections / self.n_connections
        return SinkholeConfig(
            n_connections=n_connections,
            n_spammers=max(2, int(self.n_spammers * factor)),
            n_prefixes=max(1, int(self.n_prefixes * factor)),
            duration_days=self.duration_days, domain=self.domain,
            seed=self.seed,
            second_campaign_prob=self.second_campaign_prob,
            shared_second_day_prob=self.shared_second_day_prob,
            burst_hours=self.burst_hours,
            half_clustering=self.half_clustering,
            rcpt_model=self.rcpt_model, size_model=self.size_model)


class SinkholeTraceGenerator:
    """Builds the sinkhole :class:`~repro.traces.record.Trace`."""

    def __init__(self, config: SinkholeConfig | None = None):
        self.config = config or SinkholeConfig()

    def botnet(self) -> list[BotnetPrefix]:
        cfg = self.config
        seeds = SeedSequence(cfg.seed)
        model = BotnetModel(n_prefixes=cfg.n_prefixes,
                            n_spammers=cfg.n_spammers,
                            rng=seeds.stream("botnet"),
                            half_clustering=cfg.half_clustering)
        return model.generate()

    def _session_time(self, rng: RngStream, days: list[float],
                      session_index: int, n_days: float) -> float:
        """Arrival time of one session: its campaign day plus a burst offset."""
        day = days[session_index % len(days)]
        offset_h = rng.exponential(self.config.burst_hours)
        return min(day * DAY + offset_h * 3600.0, n_days * DAY - 1.0)

    def generate(self, prefixes: list[BotnetPrefix] | None = None) -> Trace:
        cfg = self.config
        seeds = SeedSequence(cfg.seed)
        rng = seeds.stream("sessions")
        if prefixes is None:
            prefixes = self.botnet()

        arrivals: list[tuple[float, int]] = []
        n_days = cfg.duration_days
        total_spammers = sum(len(p.spammer_addrs) for p in prefixes)
        # Sessions per IP: 1 + heavy-tailed remainder with overall mean
        # n_connections / n_spammers (~5.2 at full scale).
        mean_sessions = cfg.n_connections / total_spammers

        campaign_days: dict[int, list[float]] = {}
        for prefix in prefixes:
            # the prefix's botnet is activated on one (sometimes two) days
            day1 = rng.uniform(0, n_days)
            day2 = rng.uniform(0, n_days)
            for addr in prefix.spammer_addrs:
                days = [day1]
                if rng.random() < cfg.second_campaign_prob:
                    if rng.random() < cfg.shared_second_day_prob:
                        days.append(day2)
                    else:
                        days.append(rng.uniform(0, n_days))
                campaign_days[addr] = days
                n_sessions = 1 + int(rng.exponential(max(mean_sessions - 1.0,
                                                         0.05)))
                for s in range(n_sessions):
                    arrivals.append((self._session_time(rng, days, s, n_days),
                                     addr))

        # Trim / top up to the exact connection count.  Top-up sessions keep
        # temporal locality by reusing the IP's own campaign days.
        rng.shuffle(arrivals)
        if len(arrivals) > cfg.n_connections:
            arrivals = arrivals[:cfg.n_connections]
        else:
            all_addrs = [a for p in prefixes for a in p.spammer_addrs]
            while len(arrivals) < cfg.n_connections:
                addr = rng.choice(all_addrs)
                days = campaign_days[addr]
                arrivals.append((self._session_time(
                    rng, days, rng.below(len(days)), n_days), addr))
        _sort_arrivals(arrivals)

        below = rng.below
        rcpt_sample = cfg.rcpt_model.sample
        size_sample = cfg.size_model.sample
        domain = cfg.domain
        helos = {addr: f"bot-{int_to_ip(addr).replace('.', '-')}.example"
                 for addr in campaign_days}
        connections = []
        for t, addr in arrivals:
            n_rcpt = rcpt_sample(rng)
            recipients = [
                RecipientAttempt(f"user{below(10_000)}@{domain}", True)
                for _ in range(n_rcpt)]
            mail = MailAttempt(size=size_sample(rng),
                               recipients=recipients, is_spam=True)
            connections.append(Connection(
                t=t, client_addr=addr, mails=[mail], helo=helos[addr]))
        return Trace(connections, name="sinkhole",
                     duration=n_days * DAY)


def _sort_arrivals(arrivals: list[tuple[float, int]]) -> None:
    """Sort ``(t, addr)`` arrivals by time, equal times by dotted-quad text.

    Arrivals clamped to the trace end share one ``t``; they keep the text
    order of their addresses, which the generated trace (and every draw
    made after the sort) is pinned to.
    """
    arrivals.sort()
    counts = Counter(t for t, _ in arrivals)
    for t, n in counts.items():
        if n > 1:
            lo = bisect_left(arrivals, (t,))
            arrivals[lo:lo + n] = sorted(arrivals[lo:lo + n],
                                         key=lambda a: int_to_ip(a[1]))
