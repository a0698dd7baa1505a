"""DNSBL zone database.

A zone is the set of blacklisted IPv4 addresses, each with a *listing code*
— the ``127.0.0.x`` answer address whose last octet encodes "the form of
spamming activity done by the corresponding IP" (§4.3).  The zone also
serves /25 bitmaps for the DNSBLv6 scheme.

Both tables are keyed on 32-bit addresses: :attr:`DnsblZone.code` maps an
address to its listing code and :attr:`DnsblZone.bitmap` maps a /25 key
(``addr >> 7``) to its 128-bit bitmap, bit ``addr & 127`` counted from the
MSB (§7.1).  Entries may be given as ints or dotted quads; the string
methods validate and parse at the boundary.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..errors import DnsError
from .bitmap import as_addr, ip_to_int

__all__ = ["ListingCode", "DnsblZone"]


def _addr_or_none(ip: str) -> Optional[int]:
    """``ip`` as an int, or None when it is no address (so never listed)."""
    try:
        return ip_to_int(ip)
    except DnsError:
        return None


class ListingCode:
    """Conventional DNSBL answer codes (last octet of 127.0.0.x)."""

    SPAM_SOURCE = 2     # direct spam source (SBL convention)
    EXPLOITED = 4       # open proxy / exploited host (XBL/CBL convention)
    DYNAMIC = 10        # dynamic/dial-up space (PBL convention)

    @staticmethod
    def answer_ip(code: int) -> str:
        if not 1 <= code <= 255:
            raise DnsError(f"listing code out of range: {code}")
        return f"127.0.0.{code}"


class DnsblZone:
    """The blacklist database behind one DNSBL service."""

    def __init__(self, origin: str,
                 entries: Optional[Iterable[int | str]] = None,
                 default_code: int = ListingCode.EXPLOITED):
        if not origin or origin.startswith("."):
            raise DnsError(f"invalid zone origin {origin!r}")
        ListingCode.answer_ip(default_code)
        self.origin = origin.rstrip(".")
        self.default_code = default_code
        self.code: dict[int, int] = {}
        self.bitmap: dict[int, int] = {}
        for ip in entries or ():
            self._list(as_addr(ip), default_code)

    def with_origin(self, origin: str) -> "DnsblZone":
        """The same listings served under another origin.

        The new zone shares this zone's tables, so neither may be mutated
        afterwards; a provider bank builds its listings once this way.
        """
        zone = DnsblZone(origin, default_code=self.default_code)
        zone.code = self.code
        zone.bitmap = self.bitmap
        return zone

    def __len__(self) -> int:
        return len(self.code)

    def __contains__(self, ip: str) -> bool:
        return _addr_or_none(ip) in self.code

    def add(self, ip: str, code: Optional[int] = None) -> None:
        """Blacklist ``ip`` with a listing code."""
        code = self.default_code if code is None else code
        ListingCode.answer_ip(code)
        self._list(ip_to_int(ip), code)

    def _list(self, n: int, code: int) -> None:
        self.code[n] = code
        key = n >> 7
        self.bitmap[key] = self.bitmap.get(key, 0) | (1 << (127 - (n & 127)))

    def remove(self, ip: str) -> None:
        """Delist ``ip``; missing entries are ignored (delisting is lazy)."""
        n = _addr_or_none(ip)
        if self.code.pop(n, None) is None:
            return
        key = n >> 7
        remaining = self.bitmap.get(key, 0) & ~(1 << (127 - (n & 127)))
        if remaining:
            self.bitmap[key] = remaining
        else:
            self.bitmap.pop(key, None)

    def lookup_ip(self, ip: str) -> Optional[int]:
        """The listing code for ``ip``, or ``None`` when not listed."""
        return self.code.get(ip_to_int(ip))

    def lookup_bitmap(self, prefix: str, half: int) -> int:
        """The 128-bit /25 bitmap for ``(prefix, half)`` (0 when clean)."""
        if half not in (0, 1):
            raise DnsError(f"half must be 0 or 1, got {half!r}")
        return self.bitmap.get((ip_to_int(prefix + ".0") >> 7) | half, 0)
