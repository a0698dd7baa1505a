"""Botnet origin model: the spatial locality of spam sources.

§7.1 motivates prefix-based DNSBL lookups with two measurements over the
sinkhole trace:

* ~19,000 spam origin IPs fall into 8,832 unique /24 prefixes (≈2.2 observed
  spammers per prefix), and
* the prefixes are *densely infected*: 40% of them contain more than 10 IPs
  blacklisted in CBL, and about 3% contain more than 100 (Fig. 12).

:class:`BotnetModel` generates a population of /24 prefixes with those two
properties: each prefix gets a CBL-blacklisted host set (Fig. 12's
distribution) and a subset of *observed* spammers that actually appear in the
sinkhole trace.

Addresses are 32-bit ints: a prefix is its base address ``base_addr`` (low
octet zero) and a host is ``base_addr | last_octet``.  The dotted-quad views
(``base``, ``spammers``, ``blacklisted_ips()``, ``spammer_ips()``,
``zone_ips()``) are derived for readers of text; the generators and the
DNSBL zone use the int views (``spammer_addrs``, ``zone_addrs()``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..dnsbl.bitmap import int_to_ip
from ..sim.random import RngStream

__all__ = ["BotnetPrefix", "BotnetModel"]


@dataclass(frozen=True)
class BotnetPrefix:
    """One infected /24 prefix.

    ``base_addr`` is the prefix's first address (low octet zero);
    ``blacklisted_hosts`` are the last-octet values of CBL-listed machines
    in the prefix; ``spammer_addrs`` are the addresses that actually spam
    our sinkhole (always a subset of the blacklisted machines — the
    sinkhole only sees active bots).
    """

    base_addr: int
    blacklisted_hosts: frozenset
    spammer_addrs: tuple

    @property
    def base(self) -> str:
        """The dotted /24 prefix (three octets)."""
        return int_to_ip(self.base_addr)[:-2]

    @property
    def spammers(self) -> tuple:
        """The observed spammers as dotted quads."""
        return tuple(int_to_ip(a) for a in self.spammer_addrs)

    @property
    def blacklisted_count(self) -> int:
        return len(self.blacklisted_hosts)

    def blacklisted_ips(self) -> list[str]:
        return [int_to_ip(self.base_addr | h)
                for h in sorted(self.blacklisted_hosts)]


class BotnetModel:
    """Generates the infected-prefix population behind the sinkhole trace.

    Parameters are the published totals; the defaults reproduce the paper's
    sinkhole (19,492 IPs / 8,832 prefixes).  The per-prefix blacklist-size
    distribution is a three-way mixture calibrated to Fig. 12:
    60% lightly infected (1–10 hosts), 37% moderately (11–100,
    log-uniform), 3% heavily (101–254).
    """

    LIGHT, MODERATE, HEAVY = (1, 10), (11, 100), (101, 254)
    MIX = (0.60, 0.37, 0.03)

    def __init__(self, n_prefixes: int = 8832, n_spammers: int = 19492,
                 rng: RngStream | None = None,
                 half_clustering: float = 0.9):
        if n_spammers < n_prefixes:
            raise ValueError("need at least one spammer per prefix")
        if not 0.0 <= half_clustering <= 1.0:
            raise ValueError("half_clustering must be a probability")
        self.n_prefixes = n_prefixes
        self.n_spammers = n_spammers
        self.rng = rng or RngStream(0x5EED)
        #: probability that an infected host sits in its prefix's "preferred"
        #: /25 half — compromised machines cluster in DHCP pools, which is
        #: part of why /25-granularity bitmaps (§7) cache so well.
        self.half_clustering = half_clustering

    # -- prefix address allocation -------------------------------------------
    def _allocate_bases(self) -> list[int]:
        bases: set[int] = set()
        below = self.rng.below
        while len(bases) < self.n_prefixes:
            a = 1 + below(223)
            if a in (10, 127, 172, 192):  # stay clear of special-use space
                continue
            b = below(256)
            bases.add(a << 24 | b << 16 | below(256) << 8)
        # the prefixes come out in the order of their dotted text, which
        # every later draw depends on
        return sorted(bases, key=int_to_ip)

    def _blacklisted_size(self) -> int:
        band = self.rng.choice_weighted(
            (self.LIGHT, self.MODERATE, self.HEAVY), self.MIX)
        lo, hi = band
        if band is self.LIGHT:
            return lo + self.rng.below(hi - lo + 1)
        # log-uniform within the band: heavy infections are rarer
        return int(round(math.exp(self.rng.uniform(math.log(lo), math.log(hi)))))

    def generate(self) -> list[BotnetPrefix]:
        """Build the prefix population.

        Every prefix contributes at least one observed spammer; the remaining
        ``n_spammers - n_prefixes`` spammers are spread proportionally to
        infection density (bigger botnet presence ⇒ more observed activity).
        """
        rng = self.rng
        bases = self._allocate_bases()
        sizes = [self._blacklisted_size() for _ in bases]
        extra = self.n_spammers - self.n_prefixes
        total_weight = sum(sizes)
        # Deterministic proportional allocation with largest-remainder fixup.
        raw = [extra * s / total_weight for s in sizes]
        counts = [1 + int(r) for r in raw]
        remainder = self.n_spammers - sum(counts)
        by_frac = sorted(range(len(raw)), key=lambda i: raw[i] - int(raw[i]),
                         reverse=True)
        for i in by_frac[:remainder]:
            counts[i] += 1

        prefixes = []
        for base, size, n_spam in zip(bases, sizes, counts):
            n_spam = min(n_spam, 254)
            size = max(size, n_spam)  # observed spammers are blacklisted too
            hosts = frozenset(self._sample_hosts(size))
            spammer_hosts = rng.sample(sorted(hosts), n_spam)
            prefixes.append(BotnetPrefix(
                base, hosts, tuple(base | h for h in spammer_hosts)))
        return prefixes

    def _sample_hosts(self, size: int) -> list[int]:
        """Pick ``size`` distinct last octets, biased into one /25 half."""
        rng = self.rng
        preferred_low = rng.random() < 0.5
        low = [h for h in range(1, 128)]
        high = [h for h in range(128, 255)]
        preferred, other = (low, high) if preferred_low else (high, low)
        rng.shuffle(preferred)
        rng.shuffle(other)
        chosen: list[int] = []
        for _ in range(size):
            pool = preferred if (rng.random() < self.half_clustering
                                 and preferred) else (other or preferred)
            chosen.append(pool.pop())
        return chosen

    @staticmethod
    def zone_addrs(prefixes: list[BotnetPrefix]) -> set[int]:
        """All CBL-blacklisted addresses — the DNSBL zone contents."""
        return {prefix.base_addr | h for prefix in prefixes
                for h in prefix.blacklisted_hosts}

    @staticmethod
    def zone_ips(prefixes: list[BotnetPrefix]) -> set[str]:
        """:meth:`zone_addrs` as dotted quads."""
        return {int_to_ip(a) for a in BotnetModel.zone_addrs(prefixes)}

    @staticmethod
    def spammer_addrs(prefixes: list[BotnetPrefix]) -> list[int]:
        """All observed spammer addresses across prefixes, in order."""
        return [a for prefix in prefixes for a in prefix.spammer_addrs]

    @staticmethod
    def spammer_ips(prefixes: list[BotnetPrefix]) -> list[str]:
        """:meth:`spammer_addrs` as dotted quads."""
        return [int_to_ip(a) for a in BotnetModel.spammer_addrs(prefixes)]
