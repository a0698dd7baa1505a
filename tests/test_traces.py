"""Tests for trace records, statistics, generators and serialisation."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.traces import (BotnetModel, Connection, EcnBounceSeries,
                          MailAttempt, RecipientAttempt, SinkholeConfig,
                          SinkholeTraceGenerator, Trace, UnivConfig,
                          UnivTraceGenerator, bounce_sweep_trace,
                          interarrival_cdfs, load_trace, prefix24, prefix25,
                          recipient_sequence_trace, save_trace, with_bounces)
from repro.traces.sinkhole import RcptModel
from repro.sim.random import RngStream


def conn(t=0.0, ip="1.2.3.4", rcpts=(("u@d.com", True),), unfinished=False,
         size=1000, spam=False):
    if unfinished:
        return Connection(t=t, client_ip=ip, unfinished=True)
    mail = MailAttempt(size=size,
                       recipients=[RecipientAttempt(m, v) for m, v in rcpts],
                       is_spam=spam)
    return Connection(t=t, client_ip=ip, mails=[mail])


class TestRecords:
    def test_prefix_helpers(self):
        assert prefix24("10.20.30.40") == "10.20.30"
        assert prefix25("10.20.30.40") == "10.20.30/0"
        assert prefix25("10.20.30.200") == "10.20.30/1"
        with pytest.raises(TraceError):
            prefix24("not-an-ip")

    def test_connection_validation(self):
        with pytest.raises(Exception):
            Connection(t=0, client_ip="999.1.1.1", unfinished=True)
        with pytest.raises(TraceError):
            Connection(t=0, client_ip="1.1.1.1")  # finished, no mails
        with pytest.raises(TraceError):
            MailAttempt(size=10, recipients=[])

    def test_bounce_classification(self):
        bounce = conn(rcpts=(("g@d.com", False), ("h@d.com", False)))
        good = conn(rcpts=(("g@d.com", False), ("u@d.com", True)))
        assert bounce.is_bounce and bounce.is_rogue
        assert not good.is_bounce
        assert conn(unfinished=True).is_rogue

    def test_trace_ordering_enforced(self):
        with pytest.raises(TraceError):
            Trace([conn(t=5.0), conn(t=1.0)])

    def test_stats(self):
        trace = Trace([
            conn(t=0, spam=True),
            conn(t=1, rcpts=(("a@d.com", False),)),
            conn(t=2, unfinished=True),
            conn(t=3, rcpts=(("a@d.com", True), ("b@d.com", True))),
        ])
        stats = trace.stats()
        assert stats.connections == 4
        assert stats.bounce_connections == 1
        assert stats.unfinished_connections == 1
        assert stats.delivered_mails == 2
        assert stats.rogue_ratio == 0.5
        assert stats.mean_recipients == pytest.approx(4 / 3)

    def test_interarrival_cdfs(self):
        trace = Trace([conn(t=0.0, ip="1.2.3.4"), conn(t=10.0, ip="1.2.3.9"),
                       conn(t=30.0, ip="1.2.3.4")])
        by_ip, by_pfx = interarrival_cdfs(trace)
        assert list(by_ip) == [30.0]
        assert list(by_pfx) == [10.0, 20.0]

    def test_head(self):
        trace = Trace([conn(t=float(i)) for i in range(10)])
        assert len(trace.head(3)) == 3


class TestIntAddresses:
    def test_bad_dotted_quad_is_a_trace_error(self):
        with pytest.raises(TraceError):
            Connection(t=0, client_ip="999.1.1.1", unfinished=True)
        with pytest.raises(TraceError):
            Connection(t=0, client_ip="01.2.3.4", unfinished=True)

    def test_exactly_one_origin(self):
        with pytest.raises(TraceError):
            Connection(t=0, unfinished=True)
        with pytest.raises(TraceError):
            Connection(t=0, client_ip="1.2.3.4", client_addr=16909060,
                       unfinished=True)
        with pytest.raises(TraceError):
            Connection(t=0, client_addr=2**32, unfinished=True)

    def test_int_and_text_constructors_agree(self):
        by_text = conn(ip="10.20.30.40")
        by_int = Connection(t=0.0, client_addr=0x0A141E28,
                            mails=by_text.mails)
        assert by_int.client_ip == "10.20.30.40"
        assert by_text.client_addr == 0x0A141E28
        assert by_int == by_text
        assert repr(by_int) == repr(by_text)
        assert repr(by_text).startswith(
            "Connection(t=0.0, client_ip='10.20.30.40', mails=[MailAttempt(")
        assert by_int != conn(ip="10.20.30.41")

    def test_load_trace_rejects_bad_ip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace(Trace([conn(t=1.0)]), path)
        header, record = path.read_text().splitlines()
        path.write_text(header + "\n"
                        + record.replace('"1.2.3.4"', '"1.2.3.400"') + "\n")
        with pytest.raises(TraceError):
            load_trace(path)

    def test_head_zero_is_empty_with_zero_duration(self):
        trace = Trace([conn(t=1.0 + i) for i in range(5)])
        empty = trace.head(0)
        assert len(empty) == 0
        assert empty.duration == 0.0
        assert trace.head(2).duration == 2.0
        assert trace.head(99).duration == 5.0

    def test_stats_key_prefixes_on_ints(self):
        trace = Trace([conn(t=0, ip="10.1.2.3"), conn(t=1, ip="10.1.2.200"),
                       conn(t=2, ip="10.1.3.3"), conn(t=3, ip="10.1.2.3")])
        stats = trace.stats()
        assert stats.unique_ips == 3
        assert stats.unique_prefixes24 == 2
        assert stats.unique_prefixes25 == 3

class TestSinkhole:
    def test_published_ratios_preserved_when_scaled(self):
        trace = SinkholeTraceGenerator(
            SinkholeConfig().scaled(6_000)).generate()
        stats = trace.stats()
        assert stats.connections == 6_000
        assert stats.unique_ips / stats.connections == pytest.approx(
            19_492 / 101_692, rel=0.2)
        assert stats.unique_prefixes24 / stats.unique_ips == pytest.approx(
            8_832 / 19_492, rel=0.2)
        assert stats.spam_ratio == 1.0

    def test_recipients_model_anchors(self):
        rng = RngStream(4)
        model = RcptModel()
        samples = [model.sample(rng) for _ in range(20_000)]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(7.0, rel=0.1)
        in_bulk = sum(5 <= s <= 15 for s in samples) / len(samples)
        assert in_bulk >= 0.6
        assert all(1 <= s <= 20 for s in samples)

    def test_deterministic_for_seed(self):
        a = SinkholeTraceGenerator(SinkholeConfig().scaled(500)).generate()
        b = SinkholeTraceGenerator(SinkholeConfig().scaled(500)).generate()
        assert [c.client_ip for c in a] == [c.client_ip for c in b]
        assert [c.t for c in a] == [c.t for c in b]

    def test_temporal_locality_prefix_beats_ip(self):
        trace = SinkholeTraceGenerator(
            SinkholeConfig().scaled(6_000)).generate()
        by_ip, by_pfx = interarrival_cdfs(trace)
        assert by_pfx.median() < by_ip.median()


class TestBotnet:
    def test_population_totals(self):
        model = BotnetModel(n_prefixes=300, n_spammers=700,
                            rng=RngStream(9))
        prefixes = model.generate()
        assert len(prefixes) == 300
        assert sum(len(p.spammers) for p in prefixes) == 700
        for p in prefixes:
            spam_hosts = {int(ip.rsplit(".", 1)[1]) for ip in p.spammers}
            assert spam_hosts <= set(p.blacklisted_hosts)

    def test_fig12_infection_bands(self):
        model = BotnetModel(n_prefixes=2_000, n_spammers=4_400,
                            rng=RngStream(10))
        prefixes = model.generate()
        over10 = sum(p.blacklisted_count > 10 for p in prefixes) / 2_000
        over100 = sum(p.blacklisted_count > 100 for p in prefixes) / 2_000
        assert 0.30 <= over10 <= 0.50
        assert 0.01 <= over100 <= 0.06

    def test_zone_and_spammer_helpers(self):
        model = BotnetModel(n_prefixes=10, n_spammers=30, rng=RngStream(2))
        prefixes = model.generate()
        zone = BotnetModel.zone_ips(prefixes)
        spammers = BotnetModel.spammer_ips(prefixes)
        assert set(spammers) <= zone
        assert len(spammers) == 30

    def test_validation(self):
        with pytest.raises(ValueError):
            BotnetModel(n_prefixes=10, n_spammers=5)
        with pytest.raises(ValueError):
            BotnetModel(half_clustering=1.5)


class TestUniv:
    def test_scaled_statistics(self):
        trace = UnivTraceGenerator(UnivConfig().scaled(8_000)).generate()
        stats = trace.stats()
        assert stats.connections == 8_000
        delivered_spam = sum(
            1 for c in trace for m in c.mails
            if m.is_spam and not m.is_bounce)
        delivered = stats.delivered_mails
        assert delivered_spam / delivered == pytest.approx(0.67, abs=0.05)
        ham_rcpts = [len(m.recipients) for c in trace for m in c.mails
                     if not m.is_spam]
        assert sum(ham_rcpts) / len(ham_rcpts) == pytest.approx(1.02,
                                                                abs=0.02)

    def test_mailboxes_listed(self):
        gen = UnivTraceGenerator(UnivConfig().scaled(100))
        assert len(gen.mailboxes()) == 400


class TestEcn:
    def test_series_shape(self):
        bounce, unfinished = EcnBounceSeries().series()
        assert len(bounce) == 396
        assert 0.17 <= min(bounce.values) and max(bounce.values) <= 0.28
        assert 0.05 <= min(unfinished.values)
        assert max(unfinished.values) <= 0.15

    def test_upward_trend(self):
        series = EcnBounceSeries().generate()
        first = sum(d.bounce_ratio for d in series[:90]) / 90
        last = sum(d.bounce_ratio for d in series[-90:]) / 90
        assert last > first


class TestSynthetic:
    def test_bounce_sweep_ratio(self):
        trace = bounce_sweep_trace(0.4, n_connections=4_000,
                                   unfinished_ratio=0.1)
        stats = trace.stats()
        assert stats.bounce_ratio == pytest.approx(0.4 / 0.9, abs=0.05)
        assert (stats.unfinished_connections
                / stats.connections) == pytest.approx(0.1, abs=0.03)

    def test_bounce_sweep_validation(self):
        with pytest.raises(ValueError):
            bounce_sweep_trace(1.5)
        with pytest.raises(ValueError):
            bounce_sweep_trace(0.8, unfinished_ratio=0.4)

    def test_recipient_sequence_structure(self):
        trace = recipient_sequence_trace(5, n_sequences=4)
        # 15 mailboxes / 5 per connection = 3 connections per sequence
        assert len(trace) == 12
        sizes = {c.mails[0].size for c in trace[:3]}
        assert len(sizes) == 1  # a sequence shares one size
        all_rcpts = [r.mailbox for c in trace[:3]
                     for r in c.mails[0].recipients]
        assert len(set(all_rcpts)) == 15  # distinct mailboxes

    def test_recipient_sequence_validation(self):
        with pytest.raises(ValueError):
            recipient_sequence_trace(0)
        with pytest.raises(ValueError):
            recipient_sequence_trace(16)

    def test_with_bounces_preserves_times_and_origins(self):
        base = SinkholeTraceGenerator(SinkholeConfig().scaled(800)).generate()
        mixed = with_bounces(base, bounce_ratio=0.3, unfinished_ratio=0.1)
        assert len(mixed) == len(base)
        assert [c.t for c in mixed] == [c.t for c in base]
        assert [c.client_ip for c in mixed] == [c.client_ip for c in base]
        stats = mixed.stats()
        rogue = (stats.bounce_connections + stats.unfinished_connections)
        assert rogue / stats.connections == pytest.approx(0.4, abs=0.05)


class TestTraceIo:
    def test_roundtrip(self, tmp_path):
        trace = UnivTraceGenerator(UnivConfig().scaled(300)).generate()
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert len(loaded) == len(trace)
        assert loaded.name == trace.name
        for a, b in zip(trace, loaded):
            assert (a.t, a.client_ip, a.unfinished) == (b.t, b.client_ip,
                                                        b.unfinished)
            assert len(a.mails) == len(b.mails)

    def test_truncated_file_detected(self, tmp_path):
        trace = Trace([conn(t=float(i)) for i in range(5)])
        path = tmp_path / "trace.jsonl"
        save_trace(trace, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(TraceError, match="truncated"):
            load_trace(path)

    def test_wrong_format_detected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "other"}\n')
        with pytest.raises(TraceError):
            load_trace(path)


def trace_digest(trace) -> str:
    """SHA-256 of a canonical text of every generated field of ``trace``."""
    h = hashlib.sha256()
    for c in trace:
        h.update(repr((c.t, c.client_ip, c.helo, c.unfinished,
                       [(m.size, m.is_spam,
                         [(r.mailbox, r.valid) for r in m.recipients])
                        for m in c.mails])).encode())
        h.update(b"\n")
    return h.hexdigest()


class TestGoldenTraces:
    """Generator output is locked: a change to how a generator draws or
    represents its values must leave every connection, and the botnet
    behind the sinkhole, exactly as these digests record them."""

    @pytest.fixture(scope="class")
    def sinkhole(self):
        generator = SinkholeTraceGenerator(SinkholeConfig().scaled(3_000))
        prefixes = generator.botnet()
        return prefixes, generator.generate(prefixes)

    def test_sinkhole_botnet(self, sinkhole):
        prefixes, _ = sinkhole
        h = hashlib.sha256()
        for p in prefixes:
            h.update(repr((p.base, sorted(p.blacklisted_hosts),
                           p.spammers)).encode())
        for ip in sorted(BotnetModel.zone_ips(prefixes)):
            h.update(ip.encode())
        assert h.hexdigest() == (
            "88b45efe5fd03e1375f9853dad96e82ba2e8e3535069ed8f0985cf35eeb4d201")

    def test_sinkhole(self, sinkhole):
        _, trace = sinkhole
        # arrivals clamped to the trace end tie on t; their order is locked
        assert len({c.t for c in trace}) < len(trace)
        assert trace_digest(trace) == (
            "7e6a7e79be03939902c538e583ff57b3a6f1685f912d92fa13ca7aca9bbaa5c3")

    def test_univ(self):
        trace = UnivTraceGenerator(UnivConfig().scaled(3_000)).generate()
        assert trace_digest(trace) == (
            "239485a7034162f814717d522e6fa3961d6bbab5eee8bcbc7fa0d07b5753b371")

    def test_bounce_sweep(self):
        trace = bounce_sweep_trace(0.5, 3_000, unfinished_ratio=0.1)
        assert trace_digest(trace) == (
            "91dcd71ca8620bf818d81662273890f1a8eae288fcccfe5b8ea617813f6b3ac4")

    def test_recipient_sequence(self):
        assert trace_digest(recipient_sequence_trace(5)) == (
            "965562957bad792cc13bac6eb2489d6af9b93cfa9850649eb510303802772676")

    def test_with_bounces(self, sinkhole):
        _, trace = sinkhole
        assert trace_digest(with_bounces(trace, 0.3, 0.1)) == (
            "239e943d929d84ba5babe3f58764ae81e762c5a4f8e0d6bc5bacf937a05f1855")


@given(st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=10, max_value=200))
@settings(max_examples=20, deadline=None)
def test_bounce_sweep_property(ratio, n):
    """Any requested ratio produces only valid, classifiable connections."""
    trace = bounce_sweep_trace(ratio, n_connections=n)
    assert len(trace) == n
    for connection in trace:
        assert connection.is_bounce == (
            bool(connection.mails)
            and not connection.mails[0].valid_recipients)
