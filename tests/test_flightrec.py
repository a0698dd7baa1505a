"""Tests for the flight recorder, divergence differ, and invariant watchdogs.

Covers the tentpole guarantees: contract-checked event emission, bounded
ring behaviour, byte-identical recordings at any ``--jobs``, transparent
(and deterministic) gzip, the first-divergence classification, typed
invariant violations with ring-buffer context, and the hardened CLI error
paths for malformed input.
"""

import gzip

import pytest

from repro.clients.closed import run_closed_timed
from repro.core import make_dnsbl_bank
from repro.harness.cli import main as cli_main
from repro.harness.parallel import run_experiments
from repro.mfs import MfsStore
from repro.mfs.layout import DATA_HEADER_SIZE
from repro.obs import (EVENTS, FlightRecorder, InvariantEngine, ObsError,
                       RECORD_VERSION, TraceFormatError, capture,
                       check_events, diff_records, diff_report, read_trace,
                       tracer, violation_report, write_trace)
from repro.obs.flightrec import DEFAULT_RING, format_event
from repro.server import MailServerSim, ServerConfig
from repro.traces import bounce_sweep_trace


def _ev(seq, kind, run=1, conn=1, t=0.0, attrs=None, exp="unit"):
    record = {"type": "event", "seq": seq, "t": t, "run": run,
              "conn": conn, "kind": kind, "exp": exp}
    if attrs:
        record["attrs"] = attrs
    return record


# -- recorder -----------------------------------------------------------------

class TestFlightRecorder:
    def test_unknown_kind_rejected(self):
        rec = FlightRecorder()
        with pytest.raises(ObsError):
            rec.emit("smtp.warp", 0.0)

    def test_every_contract_kind_accepted(self):
        rec = FlightRecorder(maxlen=None)
        for kind in EVENTS:
            rec.emit(kind, 0.0)
        assert rec.total_events == len(EVENTS)

    def test_ring_drops_oldest_and_counts_them(self):
        rec = FlightRecorder(maxlen=4)
        for i in range(10):
            rec.emit("conn.open", float(i), attrs={"ip": "1.2.3.4"})
        assert rec.total_events == 10
        assert rec.event_count == 4
        records = list(rec.records())
        assert records[0] == {"type": "meta", "version": RECORD_VERSION,
                              "events": 10, "dropped": 6}
        assert [r["seq"] for r in records[1:]] == [7, 8, 9, 10]
        assert [r["seq"] for r in rec.tail(2)] == [9, 10]

    def test_unbounded_mode_keeps_everything(self):
        rec = FlightRecorder(maxlen=None)
        for i in range(10_000):
            rec.emit("data", 0.0, attrs={"bytes": i})
        assert rec.event_count == rec.total_events == 10_000
        assert next(rec.records())["dropped"] == 0

    def test_on_event_sees_every_tuple(self):
        seen = []
        rec = FlightRecorder(maxlen=2, on_event=seen.append)
        rec.emit("conn.open", 1.0, run=3, conn=7, attrs={"ip": "x"})
        rec.emit("conn.close", 2.0, run=3, conn=7,
                 attrs={"outcome": "accepted"})
        assert seen == [(1, 1.0, 3, 7, "conn.open", {"ip": "x"}),
                        (2, 2.0, 3, 7, "conn.close",
                         {"outcome": "accepted"})]

    def test_format_event_is_one_line(self):
        record = _ev(7, "data", run=2, conn=3, t=1.5,
                     attrs={"t0": 1.0, "bytes": 9})
        assert format_event(record) == ("seq      7 t=    1.5000 run 2 "
                                        "conn 3 data           bytes=9 "
                                        "t0=1.0")

    def test_register_store_hands_out_distinct_ids(self):
        rec = FlightRecorder()
        assert (rec.register_store(), rec.register_store()) == (1, 2)


class TestCaptureIntegration:
    def test_capture_without_flags_has_no_recorder(self):
        with capture(keep_spans=False) as tr:
            assert tr.recorder is None and tr.invariants is None
            assert list(tr.record_records()) == []
        # spans alone: the recorder stores nothing, it only feeds the spans
        with capture() as tr:
            assert tr.recorder.maxlen == 0 and tr.invariants is None
            tr.recorder.emit("data", 1.0, 1, 1, {"t0": 0.5, "bytes": 9})
            assert tr.recorder.event_count == 0 and tr.span_count == 1
            assert list(tr.record_records()) == []
        assert list(tracer().record_records()) == []   # NullTracer too

    def test_record_capture_is_unbounded_and_stamped(self):
        with capture(context={"exp": "unit"}, record=True) as tr:
            assert tr.recorder.maxlen is None
            tr.recorder.emit("conn.open", 0.0, attrs={"ip": "1.2.3.4"})
        records = list(tr.record_records())
        assert records[0]["type"] == "meta"
        assert records[0]["version"] == RECORD_VERSION
        assert records[0]["exp"] == "unit"
        assert records[1]["kind"] == "conn.open"

    def test_record_only_capture_feeds_no_sink(self):
        with capture(record=True, keep_spans=False) as tr:
            assert tr.recorder.on_event is None
            tr.recorder.emit("data", 1.0, attrs={"bytes": 1})
        assert [r.get("kind") for r in tr.record_records()] == [None, "data"]

    def test_closing_event_without_t0_rejected(self):
        with capture() as tr:
            with pytest.raises(ObsError, match="'delivery'.*t0"):
                tr.recorder.emit("delivery", 1.0,
                                 attrs={"rcpts": 1, "bytes": 9})
            assert tr.span_count == 0

    def test_watchdog_capture_uses_a_bounded_ring(self):
        with capture(watchdogs=True, keep_spans=False) as tr:
            assert tr.recorder.maxlen == DEFAULT_RING
            assert tr.recorder.on_event == tr.invariants.observe
            for i in range(DEFAULT_RING + 100):
                tr.recorder.emit("data", 0.0, attrs={"t0": 0.0, "bytes": 1})
            assert tr.recorder.event_count == DEFAULT_RING
        # the engine saw every event, not just the surviving ring
        assert tr.invariants._queued == {0: DEFAULT_RING + 100}


# -- the event contract -------------------------------------------------------

class TestEventContract:
    def test_every_emitted_event_matches_its_spec(self, tmp_path,
                                                  make_message):
        trace = bounce_sweep_trace(0.4, n_connections=60,
                                   unfinished_ratio=0.1)
        listed = {conn.client_ip for conn in trace.connections[::3]}
        with capture(record=True) as tr:
            for arch in ("vanilla", "hybrid"):
                def factory(sim, arch=arch):
                    # a short TTL on the cycled trace's repeat lookups
                    # makes cache hits and expiry drops both occur
                    config = ServerConfig(architecture=arch,
                                          process_limit=5,
                                          dnsbl_mode="prefix")
                    bank = make_dnsbl_bank(listed, "prefix", ttl=0.5,
                                           n_providers=2)
                    return MailServerSim(sim, config, resolver=bank,
                                         reject_blacklisted=True)
                run_closed_timed(trace, factory, concurrency=10,
                                 duration=3.0, warmup=0.5)
            with MfsStore(tmp_path) as store:
                shared = make_message(["a@d.com", "b@d.com"])
                store.deliver(make_message(["a@d.com"]))
                store.deliver(shared)
                store.delete("a@d.com", shared.mail_id)
        events = [r for r in tr.record_records() if r["type"] == "event"]
        assert {r["kind"] for r in events} == set(EVENTS)
        for event in events:
            spec = EVENTS[event["kind"]]
            assert set(event.get("attrs") or ()) == set(spec.attrs), event
            if spec.span:
                assert event["attrs"]["t0"] <= event["t"], event


# -- determinism and export ---------------------------------------------------

class TestRecordingDeterminism:
    def test_serial_and_jobs2_recordings_are_byte_identical(self, tmp_path):
        exp_ids = ["mfs-sinkhole", "fig4"]
        serial = run_experiments(exp_ids, "quick", jobs=1, record=True,
                                 watchdogs=True)
        pooled = run_experiments(exp_ids, "quick", jobs=2, record=True,
                                 watchdogs=True)
        assert all(o.violations == [] for o in serial + pooled)
        a, b = tmp_path / "serial.jsonl", tmp_path / "pooled.jsonl"
        write_trace(a, (r for o in serial for r in o.events))
        write_trace(b, (r for o in pooled for r in o.events))
        assert a.read_bytes() == b.read_bytes()
        flat = [r for o in serial for r in o.events]
        kinds = {r["kind"] for r in flat if r["type"] == "event"}
        assert kinds <= set(EVENTS)
        assert {"conn.open", "envelope.done", "delivery"} <= kinds
        # the faithful recording replays clean offline too
        assert check_events(flat) == []

    def test_gzip_roundtrip_and_deterministic_bytes(self, tmp_path):
        records = [{"type": "meta", "version": RECORD_VERSION, "events": 1,
                    "dropped": 0},
                   _ev(1, "conn.open", attrs={"ip": "1.2.3.4"})]
        plain = tmp_path / "r.jsonl"
        gz_a = tmp_path / "a.jsonl.gz"
        gz_b = tmp_path / "b.jsonl.gz"
        write_trace(plain, records)
        write_trace(gz_a, records)
        write_trace(gz_b, records)
        assert read_trace(gz_a) == read_trace(plain) == records
        # compressed output is deterministic: no mtime, no filename header
        assert gz_a.read_bytes() == gz_b.read_bytes()
        assert gzip.decompress(gz_a.read_bytes()) == plain.read_bytes()

    def test_gzip_csv_roundtrip(self, tmp_path):
        records = [_ev(1, "data", attrs={"bytes": 9}),
                   _ev(2, "conn.close", attrs={"outcome": "accepted"})]
        path = tmp_path / "r.csv.gz"
        write_trace(path, records)
        assert read_trace(path) == records


# -- divergence diffing -------------------------------------------------------

def _stream(mutate=None):
    events = [
        _ev(1, "conn.open", t=0.0, attrs={"ip": "1.2.3.4"}),
        _ev(2, "smtp.mail", t=0.5, attrs={"rcpts": 1}),
        _ev(3, "envelope.done", t=0.9,
            attrs={"mode": "process", "outcome": "trusted"}),
        _ev(4, "conn.close", t=1.4, attrs={"outcome": "accepted"}),
    ]
    if mutate:
        mutate(events)
    return events


class TestDiff:
    def test_identical_recordings_have_no_divergences(self):
        assert diff_records(_stream(), _stream()) == []
        text, n = diff_report(_stream(), _stream())
        assert n == 0 and "no divergences" in text

    def test_value_divergence(self):
        def mutate(events):
            events[1]["attrs"] = {"rcpts": 5}
        (d,) = diff_records(_stream(), _stream(mutate))
        assert (d.kind, d.index, d.key) == ("value", 1, ("unit", 1, 1))
        assert d.seq == 2

    def test_timing_divergence(self):
        def mutate(events):
            events[2]["t"] = 0.95
        (d,) = diff_records(_stream(), _stream(mutate))
        assert d.kind == "timing" and d.index == 2

    def test_ordering_divergence(self):
        def mutate(events):
            events[2]["kind"] = "smtp.rcpt"
            events[2]["attrs"] = {"valid": True}
        (d,) = diff_records(_stream(), _stream(mutate))
        assert d.kind == "ordering" and d.index == 2

    def test_length_divergence(self):
        (d,) = diff_records(_stream(), _stream()[:-1])
        assert d.kind == "length" and d.index == 3
        assert d.a is not None and d.b is None

    def test_only_first_divergence_per_stream_reported(self):
        def mutate(events):
            events[1]["attrs"] = {"rcpts": 5}
            events[3]["t"] = 9.9             # downstream damage, not signal
        divergences = diff_records(_stream(), _stream(mutate))
        assert len(divergences) == 1 and divergences[0].index == 1

    def test_streams_align_by_connection_not_position(self):
        a = _stream() + [dict(_ev(5, "conn.open", conn=2,
                                  attrs={"ip": "5.6.7.8"}))]
        b = [a[4]] + _stream()               # same events, interleaved
        assert diff_records(a, b) == []

    def test_report_names_first_divergence_with_context(self):
        def mutate(events):
            events[1]["attrs"] = {"rcpts": 5}
        text, n = diff_report(_stream(), _stream(mutate),
                              a_name="good.jsonl", b_name="bad.jsonl")
        assert n == 1
        assert "run 1 conn 1 event 1 — value" in text
        assert "context (good.jsonl)" in text and "> seq" in text

    def test_report_warns_on_ring_tails_and_version_skew(self):
        meta_a = {"type": "meta", "version": RECORD_VERSION, "events": 4,
                  "dropped": 0}
        meta_b = {"type": "meta", "version": RECORD_VERSION + 1, "events": 9,
                  "dropped": 5}
        text, _ = diff_report([meta_a] + _stream(), [meta_b] + _stream())
        assert "format versions differ" in text
        assert "ring tail" in text


# -- invariant watchdogs ------------------------------------------------------

def _hybrid_prelude(arch="hybrid"):
    return [_ev(1, "run.begin", conn=0,
                attrs={"arch": arch, "storage": "mbox"}),
            _ev(2, "conn.open", attrs={"ip": "1.2.3.4"})]


class TestInvariants:
    def test_hybrid_fork_is_a_fork_ledger_violation(self):
        events = _hybrid_prelude() + [_ev(3, "fork", attrs={"pid": 9})]
        (v,) = check_events(events)
        assert v.invariant == "fork-ledger" and "hybrid" in v.message
        assert v.event["seq"] == 3

    def test_vanilla_delegate_is_a_fork_ledger_violation(self):
        events = _hybrid_prelude("vanilla") + [_ev(3, "delegate",
                                                   attrs={"depth": 0})]
        (v,) = check_events(events)
        assert v.invariant == "fork-ledger" and "vanilla" in v.message

    def test_hybrid_accept_without_delegate_flagged_at_close(self):
        events = _hybrid_prelude() + [_ev(3, "conn.close",
                                          attrs={"outcome": "accepted"})]
        (v,) = check_events(events)
        assert v.invariant == "fork-ledger"
        assert "0 delegation(s), expected 1" in v.message

    def test_clean_hybrid_connection_passes(self):
        events = _hybrid_prelude() + [
            _ev(3, "delegate", attrs={"depth": 0}),
            _ev(4, "data", attrs={"bytes": 100}),
            _ev(5, "conn.close", attrs={"outcome": "accepted"}),
            _ev(6, "delivery", attrs={"rcpts": 1, "bytes": 100}),
        ]
        assert check_events(events) == []

    def test_delivery_without_queued_mail_flagged(self):
        (v,) = check_events([_ev(1, "delivery",
                                 attrs={"rcpts": 1, "bytes": 10})])
        assert v.invariant == "queue-conservation"

    def test_close_without_open_flagged(self):
        (v,) = check_events([_ev(1, "conn.close",
                                 attrs={"outcome": "accepted"})])
        assert v.invariant == "queue-conservation"

    def test_refcount_disagreeing_with_ledger_flagged(self):
        events = [
            _ev(1, "mfs.nwrite",
                attrs={"mail_id": "M1", "rcpts": 2, "bytes": 5,
                       "dedup": False, "refcount": 2,
                       "store_bytes": DATA_HEADER_SIZE + 5}),
            _ev(2, "mfs.refcount",
                attrs={"mail_id": "M1", "delta": 2, "refcount": 3}),
        ]
        (v,) = check_events(events)
        assert v.invariant == "mfs-refcount" and "refcount 3" in v.message

    def test_negative_refcount_flagged(self):
        (v,) = check_events([_ev(1, "mfs.refcount",
                                 attrs={"mail_id": "M1", "delta": -1,
                                        "refcount": -1})])
        assert v.invariant == "mfs-refcount" and "negative" in v.message

    def test_store_bytes_drift_flagged(self):
        base = DATA_HEADER_SIZE + 5

        def nwrite(seq, mail_id, store_bytes):
            return _ev(seq, "mfs.nwrite",
                       attrs={"mail_id": mail_id, "rcpts": 1, "bytes": 5,
                              "dedup": False, "refcount": 1,
                              "store_bytes": store_bytes})
        # second write reports 3 bytes too many against the event ledger
        (v,) = check_events([nwrite(1, "M1", base),
                             nwrite(2, "M2", 2 * base + 3)])
        assert v.invariant == "mfs-refcount" and "byte" in v.message

    def test_poisoned_cache_hit_flagged_once(self):
        fill = _ev(1, "dnsbl.fill", conn=0,
                   attrs={"key": "z/k", "value": 1, "strategy": "ip"})
        bad_hit = {"ip": "1.1.1.1", "key": "z/k", "hit": True,
                   "listed": False}
        events = [fill,
                  _ev(2, "dnsbl.lookup", conn=0, attrs=dict(bad_hit)),
                  _ev(3, "dnsbl.lookup", conn=0, attrs=dict(bad_hit))]
        violations = check_events(events)
        assert len(violations) == 1           # deduped per (invariant, key)
        assert violations[0].invariant == "dnsbl-coherence"

    def test_prefix_bitmap_hits_checked_bitwise(self):
        bitmap = 1 << (127 - 3)               # only .3 of the /25 is listed
        events = [
            _ev(1, "dnsbl.fill", conn=0,
                attrs={"key": "z/p", "value": bitmap, "strategy": "prefix"}),
            _ev(2, "dnsbl.lookup", conn=0,
                attrs={"ip": "10.0.0.3", "key": "z/p", "hit": True,
                       "listed": True}),
            _ev(3, "dnsbl.lookup", conn=0,
                attrs={"ip": "10.0.0.4", "key": "z/p", "hit": True,
                       "listed": True}),     # .4 is not in the bitmap
        ]
        (v,) = check_events(events)
        assert v.invariant == "dnsbl-coherence"
        assert v.event["attrs"]["ip"] == "10.0.0.4"

    def test_live_engine_attaches_ring_context(self):
        with capture(watchdogs=True) as tr:
            rec = tr.recorder
            rec.emit("run.begin", 0.0, run=1,
                     attrs={"arch": "hybrid", "storage": "mbox"})
            rec.emit("conn.open", 0.0, run=1, conn=1,
                     attrs={"ip": "1.2.3.4"})
            rec.emit("fork", 0.1, run=1, conn=1,
                     attrs={"t0": 0.0, "pid": 3})
            violations = tr.invariants.finish()
        (v,) = violations
        assert v.invariant == "fork-ledger"
        assert [r["kind"] for r in v.context] == ["run.begin", "conn.open",
                                                  "fork"]

    def test_violation_report_marks_the_triggering_event(self):
        events = _hybrid_prelude() + [_ev(3, "fork", attrs={"pid": 9})]
        violations = check_events(events)
        text = violation_report(violations)
        assert "1 invariant violation(s)" in text
        assert "[fork-ledger]" in text
        assert "> seq      3" in text
        assert violation_report([]) == "invariants: all clean"

    def test_unknown_invariant_rejected(self):
        engine = InvariantEngine()
        with pytest.raises(ObsError):
            engine._violate("made-up", None, "nope", None)


# -- CLI ----------------------------------------------------------------------

class TestRecordCli:
    def test_record_flag_writes_recording(self, tmp_path, capsys):
        out = tmp_path / "sinkhole.events.jsonl"
        assert cli_main(["mfs-sinkhole", "--record", str(out)]) == 0
        assert "event record(s)" in capsys.readouterr().out
        records = read_trace(out)
        assert records[0]["type"] == "meta"
        assert records[0]["version"] == RECORD_VERSION
        kinds = {r["kind"] for r in records if r["type"] == "event"}
        assert kinds <= set(EVENTS) and "conn.open" in kinds

    def test_record_gzip_matches_plain(self, tmp_path):
        plain = tmp_path / "a.jsonl"
        gz = tmp_path / "b.jsonl.gz"
        assert cli_main(["mfs-sinkhole", "--record", str(plain)]) == 0
        assert cli_main(["mfs-sinkhole", "--record", str(gz)]) == 0
        assert read_trace(gz) == read_trace(plain)

    def test_record_refuses_to_overwrite(self, tmp_path, capsys):
        out = tmp_path / "precious.jsonl"
        out.write_text("previous capture\n")
        assert cli_main(["fig4", "--record", str(out)]) == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert out.read_text() == "previous capture\n"

    def test_diff_report_identical_recordings(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        cli_main(["mfs-sinkhole", "--record", str(a)])
        cli_main(["mfs-sinkhole", "--record", str(b)])
        capsys.readouterr()
        assert cli_main(["diff-report", str(a), str(b)]) == 0
        assert "no divergences" in capsys.readouterr().out

    def test_diff_report_names_first_divergence(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        cli_main(["mfs-sinkhole", "--record", str(a)])
        lines = a.read_text().splitlines()
        for i, line in enumerate(lines):
            if '"conn.open"' in line:
                lines[i] = line.replace('"ip":"', '"ip":"66.')
                break
        b.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli_main(["diff-report", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "first divergence" in out and "value" in out
        assert "conn.open" in out

    def test_diff_report_missing_file(self, tmp_path, capsys):
        assert cli_main(["diff-report", str(tmp_path / "a"),
                         str(tmp_path / "b")]) == 2
        assert "cannot read recording" in capsys.readouterr().err


class TestMalformedInput:
    def _bad_jsonl(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"type": "meta", "version": 1}\n{oops\n')
        return path

    def test_trace_report_names_file_and_line(self, tmp_path, capsys):
        path = self._bad_jsonl(tmp_path)
        assert cli_main(["trace-report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1           # exactly one error line
        assert f"{path}:2" in err

    def test_series_report_names_file_and_line(self, tmp_path, capsys):
        path = self._bad_jsonl(tmp_path)
        assert cli_main(["series-report", str(path)]) == 2
        assert f"{path}:2" in capsys.readouterr().err

    def test_diff_report_rejects_malformed_recording(self, tmp_path, capsys):
        good = tmp_path / "good.jsonl"
        write_trace(good, [_ev(1, "conn.open", attrs={"ip": "1.2.3.4"})])
        bad = self._bad_jsonl(tmp_path)
        assert cli_main(["diff-report", str(good), str(bad)]) == 2
        assert f"{bad}:2" in capsys.readouterr().err

    def test_corrupt_gzip_reported_with_position(self, tmp_path):
        path = tmp_path / "r.jsonl.gz"
        write_trace(path, [_ev(1, "conn.open", attrs={"ip": "1.2.3.4"})])
        path.write_bytes(path.read_bytes()[:-8])     # chop the gzip tail
        with pytest.raises(TraceFormatError) as excinfo:
            read_trace(path)
        assert "gzip" in excinfo.value.reason

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('[1, 2, 3]\n')
        with pytest.raises(TraceFormatError) as excinfo:
            read_trace(path)
        assert excinfo.value.line == 1

    def test_bad_csv_cell_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        write_trace(path, [_ev(1, "conn.open", attrs={"ip": "1.2.3.4"})])
        text = path.read_text().replace(",1,", ",one,")
        path.write_text(text)
        with pytest.raises(TraceFormatError) as excinfo:
            read_trace(path)
        assert excinfo.value.path == str(path)

    @pytest.mark.parametrize("command, line, reason", [
        ("trace-report", '{"foo": 1}', "unknown record type None"),
        ("trace-report", '{"type": ["span"]}', "unknown record type"),
        ("trace-report", '{"type": "span", "run": 1}',
         "span record lacks conn, phase, t0, t1"),
        ("series-report", '{"type": "sample"}',
         "sample record lacks sim, t, run, metrics"),
        ("diff-report", '{"foo": 1}', "unknown record type None"),
    ], ids=["no-type", "unhashable-type", "span-lacks-fields",
            "sample-lacks-fields", "diff-no-type"])
    def test_record_without_indexed_fields_rejected(self, tmp_path, capsys,
                                                    command, line, reason):
        path = tmp_path / "r.jsonl"
        path.write_text('{"type": "meta", "version": 1}\n' + line + "\n")
        argv = [command, str(path)]
        if command == "diff-report":
            argv.append(str(path))
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1           # exactly one error line
        assert f"{path}:2: {reason}" in err

    def test_csv_record_without_indexed_fields_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        write_trace(path, [{"type": "meta", "version": 1},
                           {"type": "span", "run": 1, "conn": 1,
                            "phase": "data", "t0": 0.5}])
        with pytest.raises(TraceFormatError) as excinfo:
            read_trace(path)
        assert excinfo.value.line == 3
        assert excinfo.value.reason == "span record lacks t1"
