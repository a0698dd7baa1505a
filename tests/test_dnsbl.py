"""Tests for the DNSBL substrate: wire format, bitmaps, zone, server,
cache, resolvers and latency models."""

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_dnsbl_bank
from repro.dnsbl import (STRATEGIES, DnsMessage, DnsblBank, DnsblResolver,
                         DnsblServer, DnsblZone, IpStrategy, ListingCode,
                         LookupResult,
                         PROVIDERS, PrefixStrategy, QTYPE_A, QTYPE_AAAA,
                         RCODE_NXDOMAIN, RCODE_NOERROR, Question,
                         ResourceRecord, TtlCache, bitmap_bit_for_ip,
                         bitmap_from_ipv6_bytes, bitmap_set, bitmap_test,
                         bitmap_to_ipv6_bytes, decode_name, encode_name,
                         hosts_in_bitmap, int_to_ip, ip_query_name,
                         ip_to_int, parse_ip_query_name,
                         parse_prefix_query_name, prefix_query_name)
from repro.errors import DnsError
from repro.obs import capture
from repro.sim.random import RngStream


class TestWireFormat:
    def test_name_roundtrip(self):
        wire = encode_name("4.3.2.1.bl.example")
        name, offset = decode_name(wire, 0)
        assert name == "4.3.2.1.bl.example"
        assert offset == len(wire)

    def test_root_name(self):
        assert encode_name("") == b"\x00"
        assert decode_name(b"\x00", 0) == ("", 1)

    def test_compression_pointer_followed(self):
        # "a.b" at offset 0, then a name that is a pointer to offset 0
        base = encode_name("a.b")
        wire = base + b"\xc0\x00"
        name, offset = decode_name(wire, len(base))
        assert name == "a.b"
        assert offset == len(base) + 2

    def test_self_pointer_rejected(self):
        # a pointer must point strictly backwards; a self/forward pointer
        # (the only way to build a loop) is rejected
        with pytest.raises(DnsError):
            decode_name(b"\xc0\x00", 0)

    def test_overlong_label_rejected(self):
        with pytest.raises(DnsError):
            encode_name("a" * 64 + ".example")

    def test_message_roundtrip(self):
        query = DnsMessage.query("4.3.2.1.bl.example", QTYPE_A, txid=777)
        answer = ResourceRecord("4.3.2.1.bl.example", QTYPE_A, 3600,
                                bytes([127, 0, 0, 2]))
        response = query.response(answers=[answer])
        decoded = DnsMessage.decode(response.encode())
        assert decoded.txid == 777
        assert decoded.is_response
        assert decoded.rcode == RCODE_NOERROR
        assert decoded.questions == [Question("4.3.2.1.bl.example", QTYPE_A)]
        assert decoded.answers[0].a_address == "127.0.0.2"

    def test_short_message_rejected(self):
        with pytest.raises(DnsError):
            DnsMessage.decode(b"tooshort")

    @given(st.lists(st.text(
        alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789-"),
        min_size=1, max_size=12), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_name_roundtrip_property(self, labels):
        name = ".".join(labels)
        decoded, _ = decode_name(encode_name(name), 0)
        assert decoded == name


class TestBitmap:
    def test_query_names(self):
        assert ip_query_name("1.2.3.4", "bl.x") == "4.3.2.1.bl.x"
        assert prefix_query_name("1.2.3.4", "bl.x") == "0.3.2.1.bl.x"
        assert prefix_query_name("1.2.3.200", "bl.x") == "1.3.2.1.bl.x"

    def test_parse_inverses(self):
        assert parse_ip_query_name("4.3.2.1.bl.x", "bl.x") == "1.2.3.4"
        assert parse_prefix_query_name("1.3.2.1.bl.x", "bl.x") == ("1.2.3", 1)
        with pytest.raises(DnsError):
            parse_ip_query_name("4.3.2.1.other.zone", "bl.x")
        with pytest.raises(DnsError):
            parse_prefix_query_name("2.3.2.1.bl.x", "bl.x")

    def test_bit_positions(self):
        assert bitmap_bit_for_ip("1.2.3.0") == 0
        assert bitmap_bit_for_ip("1.2.3.127") == 127
        assert bitmap_bit_for_ip("1.2.3.128") == 0
        assert bitmap_bit_for_ip("1.2.3.255") == 127

    def test_ipv6_packing_roundtrip(self):
        bitmap = bitmap_set(bitmap_set(0, 0), 127)
        packed = bitmap_to_ipv6_bytes(bitmap)
        assert len(packed) == 16
        assert bitmap_from_ipv6_bytes(packed) == bitmap

    def test_hosts_in_bitmap(self):
        bitmap = bitmap_set(bitmap_set(0, 5), 100)
        assert hosts_in_bitmap(bitmap, "9.8.7", 0) == ["9.8.7.5", "9.8.7.100"]
        assert hosts_in_bitmap(bitmap, "9.8.7", 1) == ["9.8.7.133",
                                                       "9.8.7.228"]

    @given(st.sets(st.integers(min_value=0, max_value=127), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_set_bits_recoverable_property(self, bits):
        bitmap = 0
        for bit in bits:
            bitmap = bitmap_set(bitmap, bit)
        assert {b for b in range(128) if bitmap_test(bitmap, b)} == bits

    def test_invalid_ip_rejected(self):
        with pytest.raises(DnsError):
            ip_query_name("300.1.1.1", "bl.x")


def _stdlib_addr(text):
    """``ipaddress``'s reading of ``text`` as an int, or None if it refuses."""
    try:
        return int(ipaddress.IPv4Address(text))
    except ValueError:
        return None


# octets in every spelling a dotted quad might arrive in: plain, out of
# range, leading zeros, signs, whitespace, separators, hex, non-ASCII digits
_OCTET_TEXT = st.one_of(
    st.integers(0, 300).map(str),
    st.integers(0, 255).map(lambda n: f"0{n}"),
    st.sampled_from(["", "00", "+1", "-1", " 1", "1 ", "1\t", "1\n", "1_0",
                     "0x1", "\u0661", "\u0664\u0662", "\uff11", "\u00b2",
                     "1\x00"]),
)
_ADDRESS_TEXT = st.one_of(
    st.integers(0, 2**32 - 1).map(lambda n: str(ipaddress.IPv4Address(n))),
    st.lists(_OCTET_TEXT, min_size=3, max_size=5).map(".".join),
    st.text(alphabet="0123456789. +-_x\t\n\u0661\uff11", max_size=18),
)


class TestStrictParser:
    """``ip_to_int`` accepts and rejects exactly what ``ipaddress`` does."""

    @pytest.mark.parametrize("text", [
        "1.2.3.4", "0.0.0.0", "255.255.255.255", "01.2.3.4", "1.2.3.04",
        "000.0.0.0", "1.2.3", "1.2.3.4.5", "1..2.3", "1.2.3.4.", "",
        " 1.2.3.4", "1.2.3.4 ", "1.2.3.4\n", "+1.2.3.4", "-1.2.3.4",
        "1_0.2.3.4", "\u0661.2.3.4", "1.2\x00.3.4", "0x1.2.3.4",
        "256.1.1.1"])
    def test_adversarial_inputs(self, text):
        want = _stdlib_addr(text)
        if want is None:
            with pytest.raises(DnsError):
                ip_to_int(text)
        else:
            assert ip_to_int(text) == want

    @given(_ADDRESS_TEXT)
    @settings(max_examples=400, deadline=None)
    def test_parity_with_ipaddress(self, text):
        want = _stdlib_addr(text)
        if want is None:
            with pytest.raises(DnsError):
                ip_to_int(text)
        else:
            assert ip_to_int(text) == want
            # only the canonical spelling is accepted
            assert int_to_ip(ip_to_int(text)) == text

    def test_non_strings_rejected(self):
        for value in (16909060, None, b"1.2.3.4"):
            with pytest.raises(DnsError):
                ip_to_int(value)


class TestZoneAndServer:
    def test_zone_membership_and_codes(self):
        zone = DnsblZone("bl.x", ["1.2.3.4"])
        zone.add("5.6.7.8", code=ListingCode.SPAM_SOURCE)
        assert "1.2.3.4" in zone and len(zone) == 2
        assert zone.lookup_ip("5.6.7.8") == ListingCode.SPAM_SOURCE
        assert zone.lookup_ip("9.9.9.9") is None

    def test_zone_remove_updates_bitmap(self):
        zone = DnsblZone("bl.x", ["1.2.3.4", "1.2.3.5"])
        zone.remove("1.2.3.4")
        bitmap = zone.lookup_bitmap("1.2.3", 0)
        assert not bitmap_test(bitmap, 4)
        assert bitmap_test(bitmap, 5)
        zone.remove("1.2.3.5")
        assert zone.lookup_bitmap("1.2.3", 0) == 0

    def test_server_answers_ip_queries(self):
        server = DnsblServer(DnsblZone("bl.x", ["1.2.3.4"]))
        hit = server.handle_message(
            DnsMessage.query("4.3.2.1.bl.x", QTYPE_A))
        assert hit.rcode == RCODE_NOERROR
        assert hit.answers[0].a_address.startswith("127.0.0.")
        miss = server.handle_message(
            DnsMessage.query("9.3.2.1.bl.x", QTYPE_A))
        assert miss.rcode == RCODE_NXDOMAIN and not miss.answers

    def test_server_answers_prefix_queries(self):
        server = DnsblServer(DnsblZone("bl.x", ["1.2.3.4", "1.2.3.200"]))
        low = server.handle_message(
            DnsMessage.query("0.3.2.1.bl.x", QTYPE_AAAA))
        bitmap = low.answers[0].aaaa_bits
        assert bitmap_test(bitmap, 4)
        assert not bitmap_test(bitmap, 5)
        high = server.handle_message(
            DnsMessage.query("1.3.2.1.bl.x", QTYPE_AAAA))
        assert bitmap_test(high.answers[0].aaaa_bits, 200 % 128)

    def test_clean_prefix_answers_zero_bitmap(self):
        server = DnsblServer(DnsblZone("bl.x"))
        response = server.handle_message(
            DnsMessage.query("0.1.1.1.bl.x", QTYPE_AAAA))
        assert response.rcode == RCODE_NOERROR
        assert response.answers[0].aaaa_bits == 0

    def test_garbage_wire_gets_servfail(self):
        server = DnsblServer(DnsblZone("bl.x"))
        response = DnsMessage.decode(server.handle_wire(b"\xff" * 20))
        assert response.rcode != RCODE_NOERROR

    def test_prefix_queries_can_be_disabled(self):
        server = DnsblServer(DnsblZone("bl.x", ["1.2.3.4"]),
                             enable_prefix_queries=False)
        response = server.handle_message(
            DnsMessage.query("0.3.2.1.bl.x", QTYPE_AAAA))
        assert response.rcode == RCODE_NXDOMAIN


class TestTtlCache:
    def test_hit_then_expiry(self):
        cache = TtlCache(ttl=10.0)
        cache.put("k", 1, now=0.0)
        assert cache.get("k", now=9.9) == 1
        assert cache.get("k", now=10.1) is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.expirations == 1

    def test_lru_eviction(self):
        cache = TtlCache(ttl=100.0, max_entries=2)
        cache.put("a", 1, now=0)
        cache.put("b", 2, now=0)
        cache.get("a", now=1)          # refresh a's recency
        cache.put("c", 3, now=2)       # evicts b
        assert cache.peek("b", now=2) is None
        assert cache.peek("a", now=2) == 1
        assert cache.stats.evictions == 1

    def test_purge_expired(self):
        cache = TtlCache(ttl=5.0)
        for i in range(4):
            cache.put(i, i, now=float(i))
        assert cache.purge_expired(now=7.1) == 3  # t=0,1,2 are now stale
        assert len(cache) == 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TtlCache(ttl=0)
        with pytest.raises(ValueError):
            TtlCache(max_entries=0)


def make_resolver(strategy, ips=("1.2.3.4", "1.2.3.77", "1.2.3.200")):
    zone = DnsblZone("bl.example", ips)
    return DnsblResolver(DnsblServer(zone), strategy, rng=RngStream(1))


class TestResolvers:
    def test_ip_strategy_caches_per_ip(self):
        resolver = make_resolver(IpStrategy())
        assert resolver.lookup("1.2.3.4", 0.0).listed
        assert resolver.lookup("1.2.3.4", 1.0).cache_hit
        assert not resolver.lookup("1.2.3.5", 1.0).cache_hit
        assert resolver.queries_sent == 2

    def test_prefix_strategy_caches_per_half(self):
        resolver = make_resolver(PrefixStrategy())
        first = resolver.lookup("1.2.3.4", 0.0)
        assert first.listed and not first.cache_hit
        neighbour = resolver.lookup("1.2.3.77", 0.0)
        assert neighbour.listed and neighbour.cache_hit
        clean_neighbour = resolver.lookup("1.2.3.90", 0.0)
        assert not clean_neighbour.listed and clean_neighbour.cache_hit
        other_half = resolver.lookup("1.2.3.200", 0.0)
        assert other_half.listed and not other_half.cache_hit
        assert resolver.queries_sent == 2

    def test_negative_answers_cached(self):
        resolver = make_resolver(IpStrategy())
        assert not resolver.lookup("9.9.9.9", 0.0).listed
        again = resolver.lookup("9.9.9.9", 1.0)
        assert again.cache_hit and not again.listed
        assert resolver.queries_sent == 1

    def test_ttl_expiry_requeries(self):
        resolver = make_resolver(IpStrategy())
        resolver.lookup("1.2.3.4", 0.0)
        assert not resolver.lookup("1.2.3.4", 90_000.0).cache_hit
        assert resolver.queries_sent == 2

    def test_latency_only_on_misses(self):
        resolver = DnsblResolver(
            DnsblServer(DnsblZone("bl.example", ["1.2.3.4"])), IpStrategy(),
            latency_model=PROVIDERS["cbl.abuseat.org"], rng=RngStream(2))
        miss = resolver.lookup("1.2.3.4", 0.0)
        hit = resolver.lookup("1.2.3.4", 1.0)
        assert miss.latency > 0.0
        assert hit.latency == 0.0

    def test_bank_aggregates_providers(self):
        bank = DnsblBank([make_resolver(IpStrategy(), ips=["1.2.3.4"]),
                          make_resolver(IpStrategy(), ips=["5.6.7.8"])])
        result = bank.lookup("1.2.3.4", 0.0)
        assert result.listed          # listed by the first provider
        assert not result.cache_hit
        assert result.queries_issued == 2
        again = bank.lookup("1.2.3.4", 1.0)
        assert again.cache_hit and again.queries_issued == 0
        assert bank.queries_sent == 2

    def test_bank_latency_is_max_of_provider_draws(self):
        models = (PROVIDERS["cbl.abuseat.org"],
                  PROVIDERS["dul.dnsbl.sorbs.net"])
        bank = DnsblBank([
            DnsblResolver(DnsblServer(DnsblZone("a.x", ["1.1.1.1"])),
                          IpStrategy(), latency_model=models[0],
                          rng=RngStream(3)),
            DnsblResolver(DnsblServer(DnsblZone("b.x", ["2.2.2.2"])),
                          IpStrategy(), latency_model=models[1],
                          rng=RngStream(4))])
        rngs = (RngStream(3), RngStream(4))
        winners = set()
        for ip in ("1.1.1.1", "2.2.2.2", "3.3.3.3", "4.4.4.4", "5.5.5.5"):
            draws = [model.sample(rng) for model, rng in zip(models, rngs)]
            result = bank.lookup(ip, 0.0)
            assert result.latency == max(draws)
            winners.add(draws.index(max(draws)))
            verdicts = [r.lookup(ip, 1.0).listed for r in bank.resolvers]
            assert result.listed == any(verdicts)
            assert result.listed == (ip in ("1.1.1.1", "2.2.2.2"))
        assert winners == {0, 1}   # each provider is the slowest at least once


# addresses near a few /24s, so zones and queries share /25s and the
# .127/.128 half boundary comes up often
_BASES = st.sampled_from([0x0A000000, 0xC0A80100, 0xD3D17900])
_NEAR = st.builds(int.__or__, _BASES, st.integers(0, 255))
_EDGE = st.builds(int.__or__, _BASES, st.sampled_from([0, 127, 128, 255]))
_ANY = st.integers(0, 2**32 - 1)


def _server_counters(server):
    return (server.queries_served, server.ip_queries, server.prefix_queries)


class TestWireDirectEquivalence:
    """The simulated resolver answers misses from the zone; the UDP stack
    sends the strategy's query through ``DnsblServer.handle_wire`` and
    reads the answer with ``interpret``.  Both must agree."""

    @given(listings=st.dictionaries(_NEAR, st.integers(1, 255), max_size=24),
           queries=st.lists(st.one_of(_NEAR, _EDGE, _ANY), min_size=1,
                            max_size=40),
           name=st.sampled_from(sorted(STRATEGIES)),
           prefix_on=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_direct_path_matches_wire_round_trip(self, listings, queries,
                                                 name, prefix_on):
        zone = DnsblZone("bl.example")
        for addr, code in listings.items():
            zone.add(int_to_ip(addr), code=code)
        direct_server = DnsblServer(zone, enable_prefix_queries=prefix_on)
        wire_server = DnsblServer(zone, enable_prefix_queries=prefix_on)
        strategy = STRATEGIES[name]()
        resolver = DnsblResolver(direct_server, strategy)
        wire_cache = {}
        for addr in queries:
            key = strategy.cache_key(addr)
            hit = key in wire_cache
            queried_name = ""
            if not hit:
                query = strategy.query(addr, zone.origin)
                answer = DnsMessage.decode(
                    wire_server.handle_wire(query.encode()))
                wire_cache[key] = strategy.interpret(answer)
                queried_name = query.questions[0].name
            wire_listed = strategy.is_listed(addr, wire_cache[key])

            result = resolver.lookup(addr, 0.0)
            assert result.cache_hit == hit
            assert result.listed == wire_listed
            assert result.queried_name == queried_name
            assert resolver.cache.peek(key, 0.0).value == wire_cache[key]
            assert (_server_counters(direct_server)
                    == _server_counters(wire_server))
            # and both are right about the zone
            expect = addr in listings and (name == "ip" or prefix_on)
            assert result.listed == expect
            if name == "ip" and expect:
                assert wire_cache[key] == f"127.0.0.{listings[addr]}"

    @given(addr=st.one_of(_NEAR, _EDGE, _ANY))
    def test_string_and_int_callers_agree(self, addr):
        ip = int_to_ip(addr)
        assert ip_to_int(ip) == addr
        for name in STRATEGIES:
            by_int = make_resolver(STRATEGIES[name]()).lookup(addr, 0.0)
            by_str = make_resolver(STRATEGIES[name]()).lookup(ip, 0.0)
            assert by_int == by_str
            assert by_int.ip == ip


def _aggregate_by_definition(addr, results):
    """A bank result from its providers' results, field by field."""
    return LookupResult(
        addr=addr,
        listed=any(r.listed for r in results),
        cache_hit=all(r.cache_hit for r in results),
        latency=max(r.latency for r in results),
        queried_name=next((r.queried_name for r in results
                           if r.queried_name), ""),
        queries_issued=sum(r.queries_issued for r in results))


class TestBankAggregate:
    """A bank lookup is any/all/max/first/sum over its providers."""

    _LISTED = [0x0A000000 | i for i in range(0, 256, 3)] + [0xC0A80105]

    @given(lookups=st.lists(st.tuples(st.one_of(_NEAR, _EDGE, _ANY),
                                      st.floats(0.0, 4.0)),
                            min_size=1, max_size=40),
           name=st.sampled_from(sorted(STRATEGIES)))
    @settings(max_examples=100, deadline=None)
    def test_bank_result_matches_provider_definition(self, lookups, name):
        # two banks with the same seeds draw the same latencies; the
        # reference asks its providers one by one
        bank = make_dnsbl_bank(self._LISTED, name, ttl=5.0)
        reference = make_dnsbl_bank(self._LISTED, name, ttl=5.0)
        clock = 0.0
        for addr, step in lookups:
            clock += step            # steps past the TTL expire entries
            results = [r.lookup(addr, clock) for r in reference.resolvers]
            assert (bank.lookup(addr, clock)
                    == _aggregate_by_definition(addr, results))


class TestRecorderKeys:
    """``dnsbl.*`` events name cache lines by the dotted quad / ``(prefix,
    half)`` text even though the caches key on ints."""

    @staticmethod
    def _keys(strategy):
        with capture(record=True) as tr:
            bank = make_dnsbl_bank({"211.209.121.48"}, strategy, ttl=10.0,
                                   n_providers=1)
            bank.lookup("211.209.121.48", 0.0)     # miss: fill
            bank.lookup("211.209.121.20", 1.0)     # hit (prefix) / fill (ip)
            bank.lookup("211.209.121.48", 20.0)    # expired: drop, refill
        return [(r["kind"], r["attrs"].get("ip"), r["attrs"]["key"])
                for r in tr.record_records()
                if r.get("kind", "").startswith("dnsbl.")]

    def test_ip_strategy_keys(self):
        assert self._keys("ip") == [
            ("dnsbl.fill", None, "cbl.abuseat.org/211.209.121.48"),
            ("dnsbl.lookup", "211.209.121.48",
             "cbl.abuseat.org/211.209.121.48"),
            ("dnsbl.fill", None, "cbl.abuseat.org/211.209.121.20"),
            ("dnsbl.lookup", "211.209.121.20",
             "cbl.abuseat.org/211.209.121.20"),
            ("dnsbl.drop", None, "211.209.121.48"),
            ("dnsbl.fill", None, "cbl.abuseat.org/211.209.121.48"),
            ("dnsbl.lookup", "211.209.121.48",
             "cbl.abuseat.org/211.209.121.48"),
        ]

    def test_prefix_strategy_keys(self):
        assert self._keys("prefix") == [
            ("dnsbl.fill", None, "cbl.abuseat.org/('211.209.121', 0)"),
            ("dnsbl.lookup", "211.209.121.48",
             "cbl.abuseat.org/('211.209.121', 0)"),
            ("dnsbl.lookup", "211.209.121.20",
             "cbl.abuseat.org/('211.209.121', 0)"),
            ("dnsbl.drop", None, "('211.209.121', 0)"),
            ("dnsbl.fill", None, "cbl.abuseat.org/('211.209.121', 0)"),
            ("dnsbl.lookup", "211.209.121.48",
             "cbl.abuseat.org/('211.209.121', 0)"),
        ]


class TestLatencyModels:
    def test_paper_band_over_100ms(self):
        rng = RngStream(11)
        fractions = [model.fraction_over(0.100, rng, n=4000)
                     for model in PROVIDERS.values()]
        assert 0.13 <= min(fractions)
        assert max(fractions) <= 0.55

    def test_six_providers(self):
        assert len(PROVIDERS) == 6

    def test_samples_positive(self):
        rng = RngStream(12)
        model = PROVIDERS["bl.spamcop.net"]
        assert all(model.sample(rng) > 0 for _ in range(100))
