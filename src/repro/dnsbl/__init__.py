"""DNS blacklist substrate: wire codec, zone, server, cache, resolvers.

Implements both classic per-IP DNSBL lookups and the paper's DNSBLv6
prefix-bitmap scheme (§7), plus latency models for the six public DNSBLs of
Figure 5.
"""

from .bitmap import (bitmap_bit_for_ip, bitmap_from_ipv6_bytes, bitmap_set,
                     bitmap_test, bitmap_to_ipv6_bytes, hosts_in_bitmap,
                     int_to_ip, ip_query_name, ip_to_int,
                     parse_ip_query_name, parse_prefix_query_name,
                     prefix_query_name, split_ip)
from .cache import CacheStats, TtlCache
from .latency import LatencyModel, PROVIDERS, provider_names
from .message import (QCLASS_IN, QTYPE_A, QTYPE_AAAA, QTYPE_TXT,
                      RCODE_NOERROR, RCODE_NXDOMAIN, RCODE_SERVFAIL,
                      DnsMessage, Question, ResourceRecord, decode_name,
                      encode_name)
from .resolver import (STRATEGIES, DnsblBank, DnsblResolver, IpStrategy,
                       LookupResult, PrefixStrategy)
from .server import DnsblServer
from .zone import DnsblZone, ListingCode

__all__ = [
    "int_to_ip", "ip_to_int",
    "bitmap_bit_for_ip", "bitmap_from_ipv6_bytes", "bitmap_set",
    "bitmap_test", "bitmap_to_ipv6_bytes", "hosts_in_bitmap",
    "ip_query_name", "parse_ip_query_name", "parse_prefix_query_name",
    "prefix_query_name", "split_ip",
    "CacheStats", "TtlCache",
    "LatencyModel", "PROVIDERS", "provider_names",
    "QCLASS_IN", "QTYPE_A", "QTYPE_AAAA", "QTYPE_TXT",
    "RCODE_NOERROR", "RCODE_NXDOMAIN", "RCODE_SERVFAIL",
    "DnsMessage", "Question", "ResourceRecord", "decode_name", "encode_name",
    "DnsblBank", "DnsblResolver", "IpStrategy", "LookupResult",
    "PrefixStrategy", "STRATEGIES",
    "DnsblServer", "DnsblZone", "ListingCode",
]
