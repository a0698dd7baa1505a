"""DNSBL server logic: DNS query in, DNS response out.

:class:`DnsblServer` answers both lookup styles over one zone:

* classic **IP-based** queries — ``w.z.y.x.<zone> IN A`` → ``127.0.0.code``
  when listed, NXDOMAIN otherwise;
* **DNSBLv6 prefix-based** queries (§7.1) — ``h.z.y.x.<zone> IN AAAA`` →
  a 128-bit /25 bitmap (one bit per neighbouring address).

The class is transport-free (bytes/messages in → messages out); the UDP
wrapper lives in :mod:`repro.net.dns`.  The simulated resolver skips the
codec: :meth:`DnsblServer.answer_code` and :meth:`DnsblServer.answer_bitmap`
give what the wire answer would carry, counted as the same query.
"""

from __future__ import annotations

from typing import Optional

from ..errors import DnsError
from .bitmap import (bitmap_to_ipv6_bytes, parse_ip_query_name,
                     parse_prefix_query_name)
from .message import (QTYPE_A, QTYPE_AAAA, RCODE_NOERROR, RCODE_NXDOMAIN,
                      RCODE_SERVFAIL, DnsMessage, ResourceRecord)
from .zone import DnsblZone, ListingCode

__all__ = ["DnsblServer"]


class DnsblServer:
    """Answers DNSBL queries from a :class:`~repro.dnsbl.zone.DnsblZone`."""

    def __init__(self, zone: DnsblZone, ttl: int = 86_400,
                 enable_prefix_queries: bool = True):
        self.zone = zone
        self.ttl = ttl
        self.enable_prefix_queries = enable_prefix_queries
        self.queries_served = 0
        self.ip_queries = 0
        self.prefix_queries = 0

    # -- message level -----------------------------------------------------
    def handle_message(self, query: DnsMessage) -> DnsMessage:
        """Answer one parsed DNS query message."""
        self.queries_served += 1
        if query.is_response or not query.questions:
            return query.response(rcode=RCODE_SERVFAIL)
        question = query.questions[0]
        try:
            if question.qtype == QTYPE_A:
                return self._answer_ip(query, question.name)
            if question.qtype == QTYPE_AAAA and self.enable_prefix_queries:
                return self._answer_prefix(query, question.name)
        except DnsError:
            return query.response(rcode=RCODE_NXDOMAIN)
        return query.response(rcode=RCODE_NXDOMAIN)

    def handle_wire(self, data: bytes) -> bytes:
        """Answer one wire-format query (the UDP server calls this)."""
        try:
            query = DnsMessage.decode(data)
        except DnsError:
            return DnsMessage(is_response=True,
                              rcode=RCODE_SERVFAIL).encode()
        return self.handle_message(query).encode()

    # -- direct (no codec) ---------------------------------------------------
    def answer_code(self, addr: int) -> Optional[int]:
        """The code an A query for ``addr`` answers (None: NXDOMAIN)."""
        self.queries_served += 1
        self.ip_queries += 1
        return self.zone.code.get(addr)

    def answer_bitmap(self, prefix_key: int) -> int:
        """The bitmap an AAAA query for the /25 ``prefix_key`` answers.

        0 when prefix queries are disabled: the wire answer is then
        NXDOMAIN, which a resolver reads as a clean /25.
        """
        self.queries_served += 1
        if not self.enable_prefix_queries:
            return 0
        self.prefix_queries += 1
        return self.zone.bitmap.get(prefix_key, 0)

    # -- internals -----------------------------------------------------------
    def _answer_ip(self, query: DnsMessage, name: str) -> DnsMessage:
        self.ip_queries += 1
        ip = parse_ip_query_name(name, self.zone.origin)
        code = self.zone.lookup_ip(ip)
        if code is None:
            # Not listed: empty answer / NXDOMAIN, the convention the paper
            # describes ("otherwise, the DNS query will return with empty
            # answer field").
            return query.response(rcode=RCODE_NXDOMAIN)
        rdata = bytes(int(part) for part in
                      ListingCode.answer_ip(code).split("."))
        record = ResourceRecord(name, QTYPE_A, self.ttl, rdata)
        return query.response(rcode=RCODE_NOERROR, answers=[record])

    def _answer_prefix(self, query: DnsMessage, name: str) -> DnsMessage:
        self.prefix_queries += 1
        prefix, half = parse_prefix_query_name(name, self.zone.origin)
        bitmap = self.zone.lookup_bitmap(prefix, half)
        # A clean /25 still answers (with an all-zero bitmap) so the mail
        # server can cache the negative result for the whole prefix.
        record = ResourceRecord(name, QTYPE_AAAA, self.ttl,
                                bitmap_to_ipv6_bytes(bitmap))
        return query.response(rcode=RCODE_NOERROR, answers=[record])
