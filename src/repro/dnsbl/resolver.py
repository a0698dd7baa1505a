"""Caching DNSBL resolver with IP-based and prefix-based strategies.

This is the *mail-server side* of §7: before accepting a connection the
server resolves the client IP against a blacklist.  Two strategies:

* :class:`IpStrategy` — classic per-IP A queries; each distinct IP is a
  cache entry.
* :class:`PrefixStrategy` — DNSBLv6 AAAA queries; one cache entry covers a
  whole /25, so a query for any neighbour is a hit (§7.1: "cache the bitmap
  for resolving subsequent queries for any IP in the same /25 prefix").

Every address is a 32-bit int (:mod:`repro.dnsbl.bitmap`): the per-IP key
is the address and the prefix key is its /25, ``addr >> 7``.  A cache miss
asks the server's zone directly (:meth:`DnsblServer.answer_code` /
:meth:`~DnsblServer.answer_bitmap`) and counts as one DNS query; the wire
codec is used only where there is a wire — :meth:`DnsblServer.handle_wire`
behind the UDP server, and :class:`repro.net.dns.AsyncDnsblResolver`, which
sends each strategy's :meth:`query` and reads the answer back with its
:meth:`interpret`.  The remote's *latency* is drawn from a
:class:`~repro.dnsbl.latency.LatencyModel` on cache misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

from ..errors import DnsError
from ..obs.contract import declare
from ..obs.trace import active_registry, tracer
from ..sim.random import RngStream
from .bitmap import (as_addr, int_to_ip, ip_query_name, ip_to_int,
                     prefix_query_name)
from .cache import CacheStats, TtlCache
from .latency import LatencyModel
from .message import QTYPE_A, QTYPE_AAAA, RCODE_NOERROR, DnsMessage
from .server import DnsblServer
from .zone import ListingCode

__all__ = ["LookupResult", "DnsblResolver", "DnsblBank", "IpStrategy",
           "PrefixStrategy", "STRATEGIES"]


@dataclass(slots=True)
class LookupResult:
    """Outcome of one blacklist lookup."""

    addr: int                # the client address as a 32-bit int
    listed: bool
    cache_hit: bool
    latency: float           # seconds the lookup took (0 on cache hits)
    queried_name: str = ""   # DNS name queried on a miss
    queries_issued: int = 0  # actual DNS queries sent (0 on cache hits)

    @property
    def ip(self) -> str:
        return int_to_ip(self.addr)


class _Strategy(Protocol):
    name: str
    qtype: int
    def cache_key(self, ip: int | str) -> int: ...
    def key_text(self, key: int) -> str: ...
    def query_name(self, ip: int, zone_origin: str) -> str: ...
    def query(self, ip: int, zone_origin: str,
              txid: int = 0) -> DnsMessage: ...
    def answer(self, server: DnsblServer, ip: int) -> object: ...
    def interpret(self, response: DnsMessage) -> object: ...
    def is_listed(self, ip: int, cached_value: object) -> bool: ...


class _StrategyBase:
    def query(self, ip: int, zone_origin: str, txid: int = 0) -> DnsMessage:
        """The wire query a miss on ``ip`` sends."""
        return DnsMessage.query(self.query_name(ip, zone_origin), self.qtype,
                                txid=txid)


class IpStrategy(_StrategyBase):
    """Classic per-IP lookup; caches the answer address (or None)."""

    name = "ip"
    qtype = QTYPE_A
    query_name = staticmethod(ip_query_name)

    def cache_key(self, ip: int | str) -> int:
        return as_addr(ip)

    def key_text(self, key: int) -> str:
        """The key's recorder name: the dotted quad."""
        return int_to_ip(key)

    def answer(self, server: DnsblServer, ip: int) -> Optional[str]:
        """The value a wire answer would carry, asked of the zone."""
        code = server.answer_code(ip)
        return None if code is None else ListingCode.answer_ip(code)

    def interpret(self, response: DnsMessage) -> Optional[str]:
        """The value a decoded wire answer carries."""
        if response.rcode != RCODE_NOERROR or not response.answers:
            return None
        return response.answers[0].a_address

    def is_listed(self, ip: int, cached_value: object) -> bool:
        return cached_value is not None


class PrefixStrategy(_StrategyBase):
    """DNSBLv6 /25-bitmap lookup; caches the whole bitmap."""

    name = "prefix"
    qtype = QTYPE_AAAA
    query_name = staticmethod(prefix_query_name)

    def cache_key(self, ip: int | str) -> int:
        return as_addr(ip) >> 7

    def key_text(self, key: int) -> str:
        """The key's recorder name: ``('x.y.z', half)``, as a tuple prints."""
        return (f"('{key >> 17}.{(key >> 9) & 255}.{(key >> 1) & 255}', "
                f"{key & 1})")

    def answer(self, server: DnsblServer, ip: int) -> int:
        """The value a wire answer would carry, asked of the zone."""
        return server.answer_bitmap(ip >> 7)

    def interpret(self, response: DnsMessage) -> int:
        """The value a decoded wire answer carries."""
        if response.rcode != RCODE_NOERROR or not response.answers:
            return 0
        return response.answers[0].aaaa_bits

    def is_listed(self, ip: int, cached_value: object) -> bool:
        return bool((cached_value >> (127 - (ip & 127))) & 1)


#: strategy classes by configuration name
STRATEGIES = {"ip": IpStrategy, "prefix": PrefixStrategy}


class DnsblResolver:
    """A caching resolver bound to one DNSBL server and one strategy."""

    def __init__(self, server: DnsblServer, strategy: _Strategy,
                 ttl: float = 86_400.0,
                 latency_model: Optional[LatencyModel] = None,
                 rng: Optional[RngStream] = None):
        self.server = server
        self.strategy = strategy
        self.cache = TtlCache(ttl=ttl, key_name=strategy.key_text)
        self.latency_model = latency_model
        self.rng = rng or RngStream(7)
        self.queries_sent = 0
        self.lookups = 0
        reg = active_registry()
        if reg is not None:
            self._c_wire = declare(reg, "dnsbl.wire.queries")
            self._c_prefix_fills = (declare(reg, "dnsbl.cache.prefix_fills")
                                    if getattr(strategy, "name", "") ==
                                    "prefix" else None)
        else:
            self._c_wire = None
            self._c_prefix_fills = None
        tr = tracer()
        self._rec = tr.recorder if tr.enabled else None
        self._key_names: dict[int, str] = {}

    def _event_key(self, key: int) -> str:
        """The flight-recorder cache-line name: zone-qualified and stable."""
        name = self._key_names.get(key)
        if name is None:
            name = self._key_names[key] = (
                f"{self.server.zone.origin}/{self.strategy.key_text(key)}")
        return name

    @property
    def cache_stats(self) -> CacheStats:
        return self.cache.stats

    @property
    def query_fraction(self) -> float:
        """Fraction of lookups that actually hit the network (Fig. 15)."""
        return self.queries_sent / self.lookups if self.lookups else 0.0

    def lookup(self, ip: int | str, now: float) -> LookupResult:
        """Resolve the blacklist status of ``ip`` at (simulated) time ``now``.

        ``ip`` is a 32-bit int or a dotted quad (parsed here, once).
        Cached values are wrapped in :class:`_Cached` so that cached
        *negative* answers (``None`` codes / all-zero bitmaps) are
        distinguishable from cache misses — negative caching matters: most
        lookups against a blacklist come back clean.
        """
        if ip.__class__ is not int:
            ip = ip_to_int(ip)
        self.lookups += 1
        strategy = self.strategy
        key = strategy.cache_key(ip)
        cached = self.cache.get(key, now)
        if cached is not None:
            listed = strategy.is_listed(ip, cached.value)
            if self._rec is not None:
                self._rec.emit("dnsbl.lookup", now, 0, 0,
                               (ip, self._event_key(key), True, listed))
            return LookupResult(ip, listed, True, 0.0)
        self.queries_sent += 1
        if self._c_wire is not None:
            self._c_wire.inc()
            if self._c_prefix_fills is not None:
                # one miss fills the whole /25 bitmap into the cache
                self._c_prefix_fills.inc()
        value = strategy.answer(self.server, ip)
        self.cache.put(key, _Cached(value), now)
        latency = (self.latency_model.sample(self.rng)
                   if self.latency_model else 0.0)
        listed = strategy.is_listed(ip, value)
        if self._rec is not None:
            event_key = self._event_key(key)
            # the fill carries the authoritative value so the coherence
            # watchdog can re-derive every later cache hit's verdict
            # prefix caches the whole /25 bitmap; other strategies cache a
            # listing code, flattened here to its 0/1 listed meaning
            authoritative = (int(value) if strategy.name == "prefix"
                             else int(listed))
            self._rec.emit("dnsbl.fill", now, 0, 0,
                           (event_key, authoritative, strategy.name))
            self._rec.emit("dnsbl.lookup", now, 0, 0,
                           (ip, event_key, False, listed))
        return LookupResult(ip, listed, False, latency,
                            strategy.query_name(ip, self.server.zone.origin),
                            1)


class _Cached:
    """Wrapper distinguishing cached negative answers from cache misses."""

    __slots__ = ("value",)

    def __init__(self, value: object):
        self.value = value


class DnsblBank:
    """Parallel lookups against several DNSBL services (paper footnote 2:
    "IP-based blacklisting works well if many blacklists are queried
    simultaneously for the same IP").

    One resolver (cache) per provider; a check fans out to all providers
    concurrently, so the check's latency is the *maximum* of the individual
    lookups and its CPU cost is one query per provider that missed.
    """

    def __init__(self, resolvers: list[DnsblResolver]):
        if not resolvers:
            raise DnsError("DnsblBank needs at least one resolver")
        self.resolvers = resolvers

    @property
    def lookups(self) -> int:
        return self.resolvers[0].lookups

    @property
    def queries_sent(self) -> int:
        return sum(r.queries_sent for r in self.resolvers)

    @property
    def query_fraction(self) -> float:
        """Mean per-provider fraction of lookups that hit the network."""
        fractions = [r.query_fraction for r in self.resolvers]
        return sum(fractions) / len(fractions)

    def lookup(self, ip: int | str, now: float) -> LookupResult:
        """Check ``ip`` against every provider; aggregate the result.

        ``cache_hit`` is True only when *all* providers answered from
        cache; ``latency`` is the slowest provider's (parallel queries).
        """
        if ip.__class__ is not int:
            ip = ip_to_int(ip)
        listed = False
        cache_hit = True
        latency = float("-inf")
        queried_name = ""
        queries = 0
        for resolver in self.resolvers:
            result = resolver.lookup(ip, now)
            if result.listed:
                listed = True
            if not result.cache_hit:
                cache_hit = False
            if result.latency > latency:
                latency = result.latency
            if not queried_name:
                queried_name = result.queried_name
            queries += result.queries_issued
        return LookupResult(ip, listed, cache_hit, latency, queried_name,
                            queries)
