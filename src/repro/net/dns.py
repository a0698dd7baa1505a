"""Asyncio UDP DNSBL server and resolver client.

Wraps the transport-free :class:`~repro.dnsbl.server.DnsblServer` in a real
UDP endpoint and provides an async caching resolver that speaks actual DNS
wire format over the socket — the full DNSBLv6 stack end to end.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Optional

from ..dnsbl.bitmap import ip_to_int
from ..dnsbl.cache import TtlCache
from ..dnsbl.message import DnsMessage
from ..dnsbl.resolver import STRATEGIES
from ..dnsbl.server import DnsblServer
from ..errors import DnsError

__all__ = ["UdpDnsblServer", "AsyncDnsblResolver"]


class UdpDnsblServer:
    """A DNSBL service listening on a real UDP socket."""

    class _Protocol(asyncio.DatagramProtocol):
        def __init__(self, logic: DnsblServer):
            self.logic = logic
            self.transport: Optional[asyncio.DatagramTransport] = None

        def connection_made(self, transport):
            self.transport = transport

        def datagram_received(self, data: bytes, addr) -> None:
            response = self.logic.handle_wire(data)
            self.transport.sendto(response, addr)

    def __init__(self, logic: DnsblServer, host: str = "127.0.0.1",
                 port: int = 0):
        self.logic = logic
        self.host = host
        self.port = port
        self._transport: Optional[asyncio.DatagramTransport] = None

    async def start(self) -> tuple[str, int]:
        loop = asyncio.get_event_loop()
        self._transport, _ = await loop.create_datagram_endpoint(
            lambda: self._Protocol(self.logic),
            local_addr=(self.host, self.port))
        sockname = self._transport.get_extra_info("sockname")
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def stop(self) -> None:
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    async def __aenter__(self) -> "UdpDnsblServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()


class AsyncDnsblResolver:
    """Async caching DNSBL client speaking wire-format DNS over UDP.

    ``strategy`` is ``"ip"`` (classic A queries) or ``"prefix"`` (DNSBLv6
    AAAA bitmap queries, cached per /25); the named
    :class:`~repro.dnsbl.resolver.IpStrategy` or
    :class:`~repro.dnsbl.resolver.PrefixStrategy` supplies the cache key,
    the query and the verdict, as it does for the simulated resolver.
    """

    class _Protocol(asyncio.DatagramProtocol):
        def __init__(self):
            self.transport = None
            self.pending: dict[int, asyncio.Future] = {}

        def connection_made(self, transport):
            self.transport = transport

        def datagram_received(self, data: bytes, addr) -> None:
            try:
                message = DnsMessage.decode(data)
            except DnsError:
                return
            future = self.pending.pop(message.txid, None)
            if future is not None and not future.done():
                future.set_result(message)

    def __init__(self, server_addr: tuple[str, int], zone: str,
                 strategy: str = "prefix", ttl: float = 86_400.0,
                 timeout: float = 2.0):
        if strategy not in STRATEGIES:
            raise DnsError(f"unknown strategy {strategy!r}")
        self.server_addr = server_addr
        self.zone = zone
        self.strategy = STRATEGIES[strategy]()
        self.cache = TtlCache(ttl=ttl, key_name=self.strategy.key_text)
        self.timeout = timeout
        self.queries_sent = 0
        self.lookups = 0
        self._txids = itertools.count(1)
        self._protocol: Optional[AsyncDnsblResolver._Protocol] = None

    async def _ensure_socket(self) -> "_Protocol":
        if self._protocol is None:
            loop = asyncio.get_event_loop()
            _, self._protocol = await loop.create_datagram_endpoint(
                self._Protocol, remote_addr=self.server_addr)
        return self._protocol

    async def close(self) -> None:
        if self._protocol is not None and self._protocol.transport:
            self._protocol.transport.close()
            self._protocol = None

    async def is_listed(self, ip: str) -> bool:
        """Resolve the blacklist status of ``ip`` (cached)."""
        loop = asyncio.get_event_loop()
        strategy = self.strategy
        addr = ip_to_int(ip)
        self.lookups += 1
        key = strategy.cache_key(addr)
        cached = self.cache.get(key, loop.time())
        if cached is not None:
            return strategy.is_listed(addr, cached[1])

        protocol = await self._ensure_socket()
        query = strategy.query(addr, self.zone,
                               txid=next(self._txids) & 0xFFFF)
        future: asyncio.Future = loop.create_future()
        protocol.pending[query.txid] = future
        protocol.transport.sendto(query.encode())
        self.queries_sent += 1
        try:
            response = await asyncio.wait_for(future, self.timeout)
        except asyncio.TimeoutError:
            protocol.pending.pop(query.txid, None)
            raise DnsError(f"DNSBL query for {ip} timed out")

        value = strategy.interpret(response)
        self.cache.put(key, ("v", value), loop.time())
        return strategy.is_listed(addr, value)
