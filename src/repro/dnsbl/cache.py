"""TTL cache for DNSBL replies.

The paper emulates DNS caching with "a 24-hour expiration time for the
DNSBL query replies since in practice these lists are updated rather
infrequently" (§7.2).  :class:`TtlCache` is clock-agnostic: pass simulated
or wall-clock timestamps.

Every cache keeps its own :class:`CacheStats`; when tracing is enabled the
constructor additionally binds the ``dnsbl.cache.*`` contract counters from
the capture-level registry, so ``repro-experiments --trace`` exports
hit/miss/expiry/evict totals without the hot path ever paying for a
disabled tracer:

>>> from repro.obs import capture
>>> with capture() as tr:
...     cache = TtlCache(ttl=10.0)
...     cache.put("k", 1, now=0.0)
...     cache.get("k", now=5.0)
...     cache.get("other", now=5.0) is None
1
True
>>> tr.registry.counter("dnsbl.cache.hits").value
1
>>> tr.registry.counter("dnsbl.cache.misses").value
1
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Optional

from ..obs.contract import declare
from ..obs.trace import active_registry, tracer

__all__ = ["TtlCache", "CacheStats"]


class CacheStats:
    """Hit/miss counters; the Fig. 15 cache-hit-ratio numbers come from here."""

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.expirations = 0
        self.evictions = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CacheStats(hits={self.hits}, misses={self.misses}, "
                f"hit_ratio={self.hit_ratio:.3f})")


class TtlCache:
    """An LRU-bounded cache whose entries expire ``ttl`` seconds after insert.

    >>> cache = TtlCache(ttl=10.0)
    >>> cache.put("k", 42, now=0.0)
    >>> cache.get("k", now=5.0)
    42
    >>> cache.get("k", now=11.0) is None
    True
    """

    def __init__(self, ttl: float = 86_400.0, max_entries: int = 1_000_000,
                 key_name: Callable[[Any], str] = str):
        if ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl!r}")
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.ttl = ttl
        self.max_entries = max_entries
        # how ``dnsbl.drop`` events name a key (resolvers key on ints but
        # record the dotted-quad / prefix text)
        self.key_name = key_name
        self.stats = CacheStats()
        self._entries: OrderedDict[Any, tuple[float, Any]] = OrderedDict()
        reg = active_registry()
        if reg is not None:
            self._c_hits = declare(reg, "dnsbl.cache.hits")
            self._c_misses = declare(reg, "dnsbl.cache.misses")
            self._c_expirations = declare(reg, "dnsbl.cache.expirations")
            self._c_evictions = declare(reg, "dnsbl.cache.evictions")
        else:
            self._c_hits = None
        tr = tracer()
        self._rec = tr.recorder if tr.enabled else None

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Any, now: float) -> Optional[Any]:
        """The cached value, or ``None`` on miss/expiry (counted)."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            if self._c_hits is not None:
                self._c_misses.inc()
            return None
        stored_at, value = entry
        if now - stored_at > self.ttl:
            del self._entries[key]
            self.stats.expirations += 1
            self.stats.misses += 1
            if self._c_hits is not None:
                self._c_expirations.inc()
                self._c_misses.inc()
            if self._rec is not None:
                self._rec.emit("dnsbl.drop", now, 0, 0,
                               (self.key_name(key), "expired"))
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        if self._c_hits is not None:
            self._c_hits.inc()
        return value

    def peek(self, key: Any, now: float) -> Optional[Any]:
        """As :meth:`get` but without touching the statistics or LRU order."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        stored_at, value = entry
        return None if now - stored_at > self.ttl else value

    def put(self, key: Any, value: Any, now: float) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = (now, value)
        while len(self._entries) > self.max_entries:
            evicted, _ = self._entries.popitem(last=False)
            self.stats.evictions += 1
            if self._c_hits is not None:
                self._c_evictions.inc()
            if self._rec is not None:
                self._rec.emit("dnsbl.drop", now, 0, 0,
                               (self.key_name(evicted), "evicted"))

    def purge_expired(self, now: float) -> int:
        """Drop all expired entries; returns how many were dropped."""
        expired = [k for k, (t, _) in self._entries.items()
                   if now - t > self.ttl]
        for key in expired:
            del self._entries[key]
            if self._rec is not None:
                self._rec.emit("dnsbl.drop", now, 0, 0,
                               (self.key_name(key), "expired"))
        self.stats.expirations += len(expired)
        if expired and self._c_hits is not None:
            self._c_expirations.inc(len(expired))
        return len(expired)

    def clear(self) -> None:
        self._entries.clear()
