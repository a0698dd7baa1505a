"""University department mail trace generator ("Univ", Table 1).

The Univ trace was collected at a department server with 400+ mailboxes over
November 2007: 1,862,349 connections, 621,124 unique IPs, 344,679 unique /24
prefixes, 67% spam (Spam-Assassin flagged).  Legitimate mail averages 1.02
recipients per mail (§4.2, consistent with Clayton's CEAS study); spam uses
the multi-recipient pattern of the sinkhole.

Spam origins follow the botnet model (many IPs, strong /24 clustering);
legitimate mail comes from "long lasting static IPs" (§8) — a small, stable
population of peer mail servers, which is why prefix-based DNSBL caching
helps less on this trace (20% vs 39% query reduction).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.random import SeedSequence
from .botnet import BotnetModel
from .record import Connection, MailAttempt, RecipientAttempt, Trace
from .sizes import SPAM_SIZES, UNIV_SIZES, SizeModel

__all__ = ["UnivConfig", "UnivTraceGenerator"]

DAY = 86_400.0


@dataclass
class UnivConfig:
    """Defaults match the published Univ-trace statistics."""

    n_connections: int = 1_862_349
    n_unique_ips: int = 621_124
    n_prefixes: int = 344_679
    duration_days: float = 30.0
    spam_ratio: float = 0.67
    #: The Univ trace records mails that were *delivered* — "the Univ trace
    #: contains no information about unfinished SMTP connections" (§3), and
    #: bounce attempts likewise never reach the archive.  Only a small
    #: residue of mixed bounce/delivery sessions is visible.  (The heavy
    #: 20-45% rogue load of §4.1 is the ECN series, modelled separately.)
    bounce_ratio: float = 0.05
    unfinished_ratio: float = 0.02
    n_mailboxes: int = 400
    domain: str = "cs.univ.example"
    #: ham comes from a stable population of peer MTAs
    n_ham_servers: int = 2_500
    #: probability a spam arrival clusters on its prefix's campaign day;
    #: weaker than at the sinkhole (a department sees a fresher botnet mix)
    campaign_prob: float = 0.6
    seed: int = 2007_11
    ham_size_model: SizeModel = field(default_factory=lambda: UNIV_SIZES)
    spam_size_model: SizeModel = field(default_factory=lambda: SPAM_SIZES)

    def scaled(self, n_connections: int) -> "UnivConfig":
        factor = n_connections / self.n_connections
        return UnivConfig(
            n_connections=n_connections,
            n_unique_ips=max(10, int(self.n_unique_ips * factor)),
            n_prefixes=max(5, int(self.n_prefixes * factor)),
            duration_days=self.duration_days, spam_ratio=self.spam_ratio,
            bounce_ratio=self.bounce_ratio,
            unfinished_ratio=self.unfinished_ratio,
            n_mailboxes=self.n_mailboxes, domain=self.domain,
            n_ham_servers=max(3, int(self.n_ham_servers * factor)),
            seed=self.seed, campaign_prob=self.campaign_prob,
            ham_size_model=self.ham_size_model,
            spam_size_model=self.spam_size_model)


class UnivTraceGenerator:
    """Builds the Univ :class:`~repro.traces.record.Trace`.

    Mailboxes ``user0..userN`` exist; bounce recipients are random guesses
    outside that namespace.  Spam recipient counts reuse the sinkhole's
    Fig. 4 model; ham is 1 recipient with a 2% chance of 2 (mean 1.02).
    """

    def __init__(self, config: UnivConfig | None = None):
        self.config = config or UnivConfig()
        self._cursor = 0

    def mailboxes(self) -> list[str]:
        cfg = self.config
        return [f"user{i}@{cfg.domain}" for i in range(cfg.n_mailboxes)]

    def generate(self) -> Trace:
        from .sinkhole import RcptModel  # local import avoids a cycle

        cfg = self.config
        seeds = SeedSequence(cfg.seed)
        rng = seeds.stream("univ")
        rcpt_model = RcptModel()

        # Origin populations.  Spam origins dominate the unique-IP count;
        # ham servers are few and reused heavily.
        n_spam_origins = max(2, cfg.n_unique_ips - cfg.n_ham_servers)
        n_spam_prefixes = max(1, min(cfg.n_prefixes, n_spam_origins))
        botnet = BotnetModel(n_prefixes=n_spam_prefixes,
                             n_spammers=n_spam_origins,
                             rng=seeds.stream("univ-botnet"))
        spam_addrs = BotnetModel.spammer_addrs(botnet.generate())
        rng.shuffle(spam_addrs)
        below = rng.below
        ham_addrs = [198 << 24 | below(256) << 16 | below(256) << 8
                     | 1 + below(254) for _ in range(cfg.n_ham_servers)]

        # Botnet campaigns: spam arrivals cluster on per-prefix campaign
        # days (the same temporal locality the sinkhole exhibits, Fig. 13),
        # though weaker than at the sinkhole — a department server sees a
        # wider, fresher slice of the botnet, which is why prefix-based
        # DNSBL caching saves only ~20% of queries here versus 39% (§8).
        campaign_day: dict[int, float] = {}

        def spam_time(addr: int) -> float:
            if rng.random() > cfg.campaign_prob:
                return rng.uniform(0, cfg.duration_days * DAY)
            pfx = addr >> 8
            day = campaign_day.get(pfx)
            if day is None:
                day = rng.uniform(0, cfg.duration_days)
                campaign_day[pfx] = day
            offset_h = rng.exponential(6.0)
            return min(day * DAY + offset_h * 3600.0,
                       cfg.duration_days * DAY - 1.0)

        valid = self.mailboxes()
        connections = []
        for i in range(cfg.n_connections):
            kind = rng.random()
            if kind < cfg.unfinished_ratio:
                addr = self._next_spam_addr(spam_addrs, rng)
                connections.append(Connection(t=spam_time(addr),
                                              client_addr=addr,
                                              unfinished=True))
                continue
            if kind < cfg.unfinished_ratio + cfg.bounce_ratio:
                # random-guessing session: all recipients invalid
                addr = self._next_spam_addr(spam_addrs, rng)
                n_rcpt = 1 + below(4)
                recipients = [RecipientAttempt(
                    f"guess{below(10**6)}@{cfg.domain}", valid=False)
                    for _ in range(n_rcpt)]
                mail = MailAttempt(size=cfg.spam_size_model.sample(rng),
                                   recipients=recipients, is_spam=True)
                connections.append(Connection(t=spam_time(addr),
                                              client_addr=addr, mails=[mail]))
                continue
            if rng.random() < cfg.spam_ratio:
                addr = self._next_spam_addr(spam_addrs, rng)
                t = spam_time(addr)
                n_rcpt = rcpt_model.sample(rng)
                recipients = [RecipientAttempt(rng.choice(valid), valid=True)
                              for _ in range(n_rcpt)]
                mail = MailAttempt(size=cfg.spam_size_model.sample(rng),
                                   recipients=recipients, is_spam=True)
            else:
                addr = rng.choice(ham_addrs)
                t = rng.uniform(0, cfg.duration_days * DAY)
                n_rcpt = 2 if rng.random() < 0.02 else 1
                recipients = [RecipientAttempt(rng.choice(valid), valid=True)
                              for _ in range(n_rcpt)]
                mail = MailAttempt(size=cfg.ham_size_model.sample(rng),
                                   recipients=recipients, is_spam=False)
            connections.append(Connection(t=t, client_addr=addr,
                                          mails=[mail]))

        connections.sort(key=lambda c: c.t)
        return Trace(connections, name="univ",
                     duration=cfg.duration_days * DAY)

    def _next_spam_addr(self, spam_addrs: list[int], rng) -> int:
        """Mostly-fresh spam origins: bots rarely revisit within the month."""
        if rng.random() < 0.75 and spam_addrs:
            # walk the shuffled population so unique-IP counts stay on target
            addr = spam_addrs[self._cursor % len(spam_addrs)]
            self._cursor += 1
            return addr
        return rng.choice(spam_addrs)
