"""DNSBLv6 bitmap encoding (§7.1).

The paper's scheme: one DNSBL query returns the blacklist status of a whole
/25 prefix.  Because a AAAA answer carries 128 bits, a /25 (128 addresses)
maps exactly onto one IPv6 address.  For client IP ``x.y.z.w`` the mail
server queries::

    0.z.y.x.<zone>   (AAAA)   if w < 128
    1.z.y.x.<zone>   (AAAA)   otherwise

and reads bit ``w mod 128`` of the returned bitmap.  "The bitmap uniquely
identifies each blacklisted IP address; it does not punish any IP not
blacklisted."

On a 32-bit address ``n`` the scheme is integer arithmetic: the /25 is
``n >> 7`` (its low bit is the half label) and the bitmap bit is ``n & 127``.
The simulator carries addresses as ints; the dotted-quad helpers below accept
either form.
"""

from __future__ import annotations

from socket import AF_INET, inet_pton

from ..errors import DnsError

__all__ = [
    "ip_to_int", "int_to_ip", "as_addr", "split_ip",
    "prefix_query_name", "ip_query_name",
    "parse_ip_query_name", "parse_prefix_query_name",
    "bitmap_bit_for_ip", "bitmap_to_ipv6_bytes", "bitmap_from_ipv6_bytes",
    "bitmap_test", "bitmap_set", "hosts_in_bitmap",
]


def ip_to_int(ip: str) -> int:
    """Validate a dotted quad and return it as a 32-bit int.

    The one strict parser of the package: it accepts exactly the canonical
    four-decimal-octet form (no leading zeros, signs, whitespace or
    non-ASCII digits), so ``int_to_ip(ip_to_int(s)) == s`` for every
    ``s`` it accepts.

    >>> ip_to_int("1.2.3.4")
    16909060
    """
    try:
        return int.from_bytes(inet_pton(AF_INET, ip), "big")
    except (OSError, TypeError, ValueError) as exc:
        raise DnsError(f"invalid IPv4 address {ip!r}") from exc


def int_to_ip(n: int) -> str:
    """The dotted quad of a 32-bit address (the inverse of :func:`ip_to_int`).

    >>> int_to_ip(16909060)
    '1.2.3.4'
    """
    return f"{n >> 24}.{(n >> 16) & 255}.{(n >> 8) & 255}.{n & 255}"


def as_addr(ip: int | str) -> int:
    """An address given as an int or a dotted quad, as an int."""
    return ip if ip.__class__ is int else ip_to_int(ip)


def split_ip(ip: str) -> tuple[int, int, int, int]:
    """Validate and split a dotted quad."""
    n = ip_to_int(ip)
    return n >> 24, (n >> 16) & 255, (n >> 8) & 255, n & 255


def ip_query_name(ip: int | str, zone: str) -> str:
    """Classic DNSBL query name: reversed octets under the zone.

    >>> ip_query_name("1.2.3.4", "bl.example")
    '4.3.2.1.bl.example'
    """
    n = as_addr(ip)
    return f"{n & 255}.{(n >> 8) & 255}.{(n >> 16) & 255}.{n >> 24}.{zone}"


def prefix_query_name(ip: int | str, zone: str) -> str:
    """DNSBLv6 query name: half-bit then reversed /24 octets (§7.1).

    >>> prefix_query_name("1.2.3.4", "bl.example")
    '0.3.2.1.bl.example'
    >>> prefix_query_name("1.2.3.200", "bl.example")
    '1.3.2.1.bl.example'
    """
    n = as_addr(ip)
    return (f"{(n >> 7) & 1}.{(n >> 8) & 255}.{(n >> 16) & 255}."
            f"{n >> 24}.{zone}")


def _strip_zone(name: str, zone: str) -> list[str]:
    name = name.rstrip(".")
    zone = zone.rstrip(".")
    suffix = "." + zone
    if not name.endswith(suffix):
        raise DnsError(f"query {name!r} is not under zone {zone!r}")
    labels = name[: -len(suffix)].split(".")
    if len(labels) != 4:
        raise DnsError(f"expected 4 labels before zone in {name!r}")
    return labels


def parse_ip_query_name(name: str, zone: str) -> str:
    """Invert :func:`ip_query_name`."""
    d, c, b, a = _strip_zone(name, zone)
    ip = f"{a}.{b}.{c}.{d}"
    split_ip(ip)
    return ip


def parse_prefix_query_name(name: str, zone: str) -> tuple[str, int]:
    """Invert :func:`prefix_query_name`: returns ``('x.y.z', half)``."""
    half, c, b, a = _strip_zone(name, zone)
    if half not in ("0", "1"):
        raise DnsError(f"prefix-half label must be 0 or 1 in {name!r}")
    prefix = f"{a}.{b}.{c}"
    split_ip(prefix + ".0")
    return prefix, int(half)


def bitmap_bit_for_ip(ip: str) -> int:
    """Which bit of the /25 bitmap corresponds to ``ip`` (0 = MSB)."""
    _, _, _, d = split_ip(ip)
    return d % 128


def bitmap_to_ipv6_bytes(bitmap: int) -> bytes:
    """Pack a 128-bit bitmap into AAAA rdata (bit 0 is the MSB)."""
    if not 0 <= bitmap < (1 << 128):
        raise DnsError("bitmap does not fit in 128 bits")
    return bitmap.to_bytes(16, "big")


def bitmap_from_ipv6_bytes(rdata: bytes) -> int:
    if len(rdata) != 16:
        raise DnsError(f"AAAA rdata must be 16 bytes, got {len(rdata)}")
    return int.from_bytes(rdata, "big")


def bitmap_test(bitmap: int, bit: int) -> bool:
    """Test bit ``bit`` (0 = MSB) of a 128-bit bitmap."""
    if not 0 <= bit < 128:
        raise DnsError(f"bit index out of range: {bit}")
    return bool((bitmap >> (127 - bit)) & 1)


def bitmap_set(bitmap: int, bit: int) -> int:
    """Set bit ``bit`` (0 = MSB)."""
    if not 0 <= bit < 128:
        raise DnsError(f"bit index out of range: {bit}")
    return bitmap | (1 << (127 - bit))


def hosts_in_bitmap(bitmap: int, prefix: str, half: int) -> list[str]:
    """Expand a bitmap back into the blacklisted dotted-quad addresses.

    >>> hosts_in_bitmap(bitmap_set(0, 5), "1.2.3", 1)
    ['1.2.3.133']
    """
    if half not in (0, 1):
        raise DnsError("half must be 0 or 1")
    base = 128 * half
    return [f"{prefix}.{base + bit}" for bit in range(128)
            if bitmap_test(bitmap, bit)]
