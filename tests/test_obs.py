"""Tests for the unified observability layer (repro.obs).

Covers the tentpole guarantees: typed registry semantics, deterministic
histogram buckets, span nesting inside the simulated server, zero-overhead
no-op behaviour when disabled, byte-identical traces at any ``--jobs``, the
span-vs-metrics reconciliation, and the contract ↔ documentation diff.
"""

import re
from pathlib import Path

import pytest

from repro.clients import ClosedLoopClient
from repro.clients.closed import run_closed_timed
from repro.core import make_dnsbl_bank
from repro.harness.cli import main as cli_main
from repro.harness.parallel import run_experiments
from repro.obs import (BENCH_FIELDS, EVENTS, INVARIANTS, METRICS,
                       NULL_TRACER, Counter, MetricsRegistry, ObsError,
                       SERIES_FIELDS, capture, read_trace, reconcile,
                       trace_report, tracer, write_trace)
from repro.server import MailServerSim, ServerConfig
from repro.sim import Simulator
from repro.traces import bounce_sweep_trace

REPO = Path(__file__).resolve().parent.parent


# -- registry -----------------------------------------------------------------

class TestRegistry:
    def test_counter_and_gauge_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("a.count").inc()
        reg.counter("a.count").inc(4)
        assert reg.counter("a.count").value == 5
        reg.gauge("a.depth").set(3.0)
        reg.gauge("a.depth").set(1.0)
        gauge = reg.gauge("a.depth")
        assert gauge.value == 1.0 and gauge.peak == 3.0

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ObsError):
            reg.gauge("x")

    def test_as_dict_is_sorted_and_skippable(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        reg.counter("wall").inc()
        dump = reg.as_dict(skip=("wall",))
        assert list(dump) == ["a", "b"]

    def test_declared_metrics_cover_server_and_subsystems(self):
        prefixes = {name.split(".")[0] for name in METRICS}
        assert prefixes == {"server", "kernel", "dnsbl", "mfs", "net"}


class TestHistogram:
    def test_bucket_edges_are_pure_function_of_args(self):
        reg = MetricsRegistry()
        h1 = reg.histogram("h1", low=1e-3, high=1e3, per_decade=10)
        reg2 = MetricsRegistry()
        h2 = reg2.histogram("h1", low=1e-3, high=1e3, per_decade=10)
        assert h1.edges == h2.edges
        assert h1.edges[0] == pytest.approx(1e-3)
        assert h1.edges[-1] >= 1e3
        # log-spaced: constant ratio between consecutive edges
        ratios = [h1.edges[i + 1] / h1.edges[i]
                  for i in range(len(h1.edges) - 1)]
        assert max(ratios) == pytest.approx(min(ratios))

    def test_underflow_and_overflow_slots(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", low=1.0, high=100.0, per_decade=1)
        h.observe(0.5)                   # below the lowest edge
        h.observe(1e9)                   # above the highest edge
        assert h.counts[0] == 1
        assert h.counts[-1] == 1
        assert h.count == 2

    def test_percentile_nearest_rank(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", low=1.0, high=1000.0, per_decade=1)
        for value in (1.5, 2.0, 50.0, 500.0):
            h.observe(value)
        # p50 falls in the [1,10) bucket → its upper edge
        assert h.percentile(50) == pytest.approx(10.0)
        assert h.percentile(100) == pytest.approx(1000.0)

    def test_quantile_empty_returns_none(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", low=1.0, high=1000.0, per_decade=1)
        assert h.quantile(0.5) is None
        with pytest.raises(ObsError):
            h.percentile(50)          # percentile keeps raising on empty

    def test_quantile_matches_percentile_when_in_range(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", low=1.0, high=1000.0, per_decade=1)
        for value in (1.5, 2.0, 50.0, 500.0):
            h.observe(value)
        assert h.quantile(0.5) == pytest.approx(h.percentile(50))
        assert h.quantile(0.99) == pytest.approx(h.percentile(99))

    def test_quantile_clamps_overflow_to_top_edge(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", low=1.0, high=100.0, per_decade=1)
        h.observe(5.0)
        h.observe(1e9)                # lands in the overflow slot
        assert h.percentile(100) == float("inf")
        assert h.quantile(1.0) == h.edges[-1]

    def test_quantile_rejects_out_of_range(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", low=1.0, high=100.0, per_decade=1)
        h.observe(5.0)
        for bad in (-0.1, 1.5):
            with pytest.raises(ObsError):
                h.quantile(bad)

    def test_dump_lists_only_nonzero_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", low=1.0, high=1000.0, per_decade=1)
        h.observe(5.0)
        dump = h.dump()
        assert dump["count"] == 1
        assert len(dump["buckets"]) == 1


# -- runtime ------------------------------------------------------------------

class TestRuntime:
    def test_disabled_by_default(self):
        tr = tracer()
        assert tr is NULL_TRACER and not tr.enabled
        assert tr.begin_run(arch="hybrid") == 0
        assert tr.recorder is None
        assert tr.span_count == 0 and list(tr.records()) == []

    def test_capture_enables_and_restores(self):
        assert not tracer().enabled
        with capture() as tr:
            assert tracer() is tr and tr.enabled
            with capture() as inner:
                assert tracer() is inner
            assert tracer() is tr
        assert not tracer().enabled

    def test_wall_clock_metrics_excluded_from_records(self):
        with capture() as tr:
            tr.note_kernel(10, 5, 0.125)
        dumps = [r["metrics"] for r in tr.records() if r["type"] == "metrics"]
        assert dumps, "kernel counters should produce a capture-level dump"
        for dump in dumps:
            assert "kernel.wall_seconds" not in dump
            assert dump["kernel.events"] == 10


# -- server spans -------------------------------------------------------------

def _traced_run(config, n=60, bounce=0.3, unfinished=0.1, resolver=None,
                **server_kw):
    trace = bounce_sweep_trace(bounce, n_connections=n,
                               unfinished_ratio=unfinished)
    with capture(context={"exp": "unit"}) as tr:
        sim = Simulator()
        server = MailServerSim(sim, config, resolver=resolver, **server_kw)
        client = ClosedLoopClient(sim, server, trace, concurrency=10)
        client.start()
        sim.run()
        server.finalize(sim.now)
    return server, list(tr.records())


def _cut_dnsbl_run():
    """Vanilla then hybrid, each with a DNSBL bank, cut while checks wait.

    ``run_closed_timed`` stops both servers at a hard ``until`` that falls
    inside some connections' DNS answer waits, so the trace holds sessions
    still in flight — the case the reconciliation tolerance exists for.
    """
    trace = bounce_sweep_trace(0.5, n_connections=60, unfinished_ratio=0.1)
    listed = {conn.client_ip for conn in trace.connections[::3]}
    with capture(context={"exp": "snap"}) as tr:
        for arch in ("vanilla", "hybrid"):
            def factory(sim, arch=arch):
                config = ServerConfig(architecture=arch, process_limit=8,
                                      dnsbl_mode="ip",
                                      dnsbl_use_trace_time=False)
                bank = make_dnsbl_bank(listed, "ip", n_providers=2)
                return MailServerSim(sim, config, resolver=bank,
                                     reject_blacklisted=True)
            run_closed_timed(trace, factory, concurrency=6, duration=1.5,
                             warmup=0.375)
    return list(tr.records())


class TestServerSpans:
    def test_hybrid_emits_every_lifecycle_phase(self):
        server, records = _traced_run(ServerConfig.hybrid())
        phases = {r["phase"] for r in records if r["type"] == "span"}
        assert {"connection", "envelope", "delegate", "data",
                "delivery"} <= phases
        assert "fork" not in phases       # the hybrid pool never forks

    def test_vanilla_emits_fork_spans(self):
        server, records = _traced_run(
            ServerConfig(architecture="vanilla", process_limit=5))
        forks = [r for r in records
                 if r["type"] == "span" and r["phase"] == "fork"]
        assert len(forks) == server.metrics.forks > 0

    def test_session_spans_nest_inside_their_connection(self):
        server, records = _traced_run(ServerConfig.hybrid())
        spans = [r for r in records if r["type"] == "span"]
        conn_bounds = {r["conn"]: (r["t0"], r["t1"]) for r in spans
                       if r["phase"] == "connection"}
        nested = [r for r in spans
                  if r["phase"] in ("envelope", "dnsbl", "delegate", "data")]
        assert nested
        for span in nested:
            t0, t1 = conn_bounds[span["conn"]]
            assert t0 <= span["t0"] <= span["t1"] <= t1
        # delivery is asynchronous: it may outlive the connection, but can
        # never start before it
        for span in spans:
            if span["phase"] == "delivery":
                assert span["t0"] >= conn_bounds[span["conn"]][0]

    def test_connection_outcomes_match_metrics(self):
        server, records = _traced_run(ServerConfig.hybrid())
        outcomes = [r["attrs"]["outcome"] for r in records
                    if r["type"] == "span" and r["phase"] == "connection"]
        m = server.metrics
        assert outcomes.count("accepted") == (m.connections_finished
                                              - m.bounce_connections
                                              - m.unfinished_connections)
        assert outcomes.count("bounce") == m.bounce_connections
        assert outcomes.count("unfinished") == m.unfinished_connections

    def test_disabled_tracing_attaches_nothing(self):
        sim = Simulator()
        server = MailServerSim(sim, ServerConfig.hybrid())
        assert server._tr is None and server._run == 0
        assert sim._obs is None

    def test_run_records_carry_architecture(self):
        server, records = _traced_run(ServerConfig.hybrid())
        runs = [r for r in records if r["type"] == "run"]
        assert runs[0]["attrs"]["arch"] == "hybrid"


# -- reconciliation -----------------------------------------------------------

class TestReconciliation:
    def test_spans_reconcile_with_metrics(self):
        trace = bounce_sweep_trace(0.4, n_connections=80,
                                   unfinished_ratio=0.1)
        zone_ips = {c.client_ip for c in trace}
        with capture(context={"exp": "unit"}) as tr:
            sim = Simulator()
            config = ServerConfig(architecture="vanilla", process_limit=20,
                                  dnsbl_mode="ip")
            server = MailServerSim(sim, config,
                                   resolver=make_dnsbl_bank(zone_ips, "ip"))
            client = ClosedLoopClient(sim, server, trace, concurrency=10)
            client.start()
            sim.run()
            server.finalize(sim.now)
        records = list(tr.records())
        checks = reconcile(records)
        labels = {c.label for c in checks}
        assert {"finished connections", "accepted mails", "dnsbl checks",
                "mailbox writes", "forks"} <= labels
        assert all(c.ok for c in checks)
        text, all_ok = trace_report(records)
        assert all_ok
        for heading in ("per-phase latency", "fork-avoidance breakdown",
                        "reconciliation"):
            assert heading in text

    def test_dnsbl_spans_equal_lookups_when_cut_mid_wait(self):
        records = _cut_dnsbl_run()
        spans: dict[int, int] = {}
        for r in records:
            if r["type"] == "span" and r["phase"] == "dnsbl":
                spans[r["run"]] = spans.get(r["run"], 0) + 1
        lookups = {r["run"]: r["metrics"]["server.dnsbl.lookups"]
                   for r in records if r["type"] == "metrics" and r["run"]}
        assert spans == lookups
        # the cut did catch checks mid-wait: each check asks both
        # providers, and more checks started than finished
        (capture_dump,) = [r["metrics"] for r in records
                           if r["type"] == "metrics" and r["run"] == 0]
        started = (capture_dump["dnsbl.cache.hits"]
                   + capture_dump["dnsbl.cache.misses"]) / 2
        assert started > sum(spans.values())


class TestTraceReportSnapshot:
    """The exact ``trace-report`` text of one small, seeded, cut-off run.

    A literal snapshot: any change to span emission, the report layout or
    the simulated timings shows up here as a readable text diff.
    """

    def test_cut_dnsbl_run_report(self):
        assert trace_report(_cut_dnsbl_run()) == (_CUT_DNSBL_REPORT, True)


_CUT_DNSBL_REPORT = """\
per-phase latency (simulated seconds)
experiment    phase          count       total       p50       p90       p99
snap          connection        84      16.791    0.1870    0.3603    0.4739
snap          data              19       1.216    0.0639    0.0654    0.0677
snap          delegate          12       0.001    0.0000    0.0001    0.0001
snap          delivery          19       0.036    0.0016    0.0032    0.0032
snap          dnsbl             89       6.019    0.0289    0.1724    0.2521
snap          envelope          85      13.331    0.1467    0.2878    0.3723
snap          fork               6       0.017    0.0024    0.0048    0.0048

fork-avoidance breakdown
experiment    arch        conns  forks  deleg  accept  bounce  unfin  reject no-worker
snap          hybrid         52      0     12      12      21      1      18        40
snap          vanilla        32      6      0       7      13      1      11         0

critical-path blame (exclusive simulated seconds; delivery is async)
experiment    arch      conns    total envelope    dnsbl     fork delegate     data    other delivery
snap          hybrid       52     8.89     4.62     3.47     0.00     0.00     0.77     0.03     0.02
snap          vanilla      32     7.90     2.86     2.24     0.02     0.00     0.44     2.33     0.02
(excluded 6 span(s) from 5 connection(s) still in flight at cutoff)

slowest connections (top 5 by end-to-end latency)
experiment     run  conn arch     outcome       total  dominant segments
snap             1    15 vanilla  accepted      0.474  dnsbl 0.212, envelope 0.121, other 0.076
snap             1    19 vanilla  rejected      0.451  other 0.403, envelope 0.030, dnsbl 0.017
snap             2    32 hybrid   accepted      0.439  dnsbl 0.252, envelope 0.120, data 0.064
snap             1    21 vanilla  bounce        0.435  other 0.285, envelope 0.121, dnsbl 0.029
snap             1    31 vanilla  rejected      0.413  other 0.211, dnsbl 0.172, envelope 0.030

critical-path reconciliation: blamed (+overlap) vs raw span totals (tolerance 1%)
experiment    phase             blamed       spans  ok
snap          connection        16.791      16.791  yes
snap          data               1.216       1.216  yes
snap          delegate           0.001       0.001  yes
snap          delivery           0.036       0.036  yes
snap          dnsbl              5.715       5.715  yes
snap          envelope          13.195      13.195  yes
snap          fork               0.017       0.017  yes

kernel scheduler
experiment          events       steps  depth-peak
snap                  1457        1216          14

reconciliation: spans vs metrics registry (tolerance 1%)
experiment     run invariant                    spans   metrics  ok
snap             1 finished connections            32        32  yes
snap             1 accepted mails                   7         7  yes
snap             1 dnsbl checks                    33        33  yes
snap             1 mailbox writes                   7         7  yes
snap             1 forks                            6         6  yes
snap             2 finished connections            52        52  yes
snap             2 accepted mails                  12        12  yes
snap             2 dnsbl checks                    56        56  yes
snap             2 mailbox writes                  12        12  yes"""


# -- determinism and export ---------------------------------------------------

class TestTraceDeterminism:
    def test_serial_and_jobs2_traces_are_byte_identical(self):
        exp_ids = ["mfs-sinkhole", "fig4"]
        serial = run_experiments(exp_ids, "quick", jobs=1, traced=True)
        pooled = run_experiments(exp_ids, "quick", jobs=2, traced=True)
        flat_serial = [r for o in serial for r in o.records]
        flat_pooled = [r for o in pooled for r in o.records]
        assert flat_serial == flat_pooled
        assert any(r["type"] == "span" for r in flat_serial)

    def test_repeated_capture_is_identical(self):
        _, first = _traced_run(ServerConfig.hybrid())
        _, second = _traced_run(ServerConfig.hybrid())
        assert first == second

    def test_serial_and_jobs2_series_are_byte_identical(self, tmp_path):
        exp_ids = ["fig8", "fig4"]
        serial = run_experiments(exp_ids, "quick", jobs=1, traced=True,
                                 series_interval=1.0)
        pooled = run_experiments(exp_ids, "quick", jobs=2, traced=True,
                                 series_interval=1.0)
        a, b = tmp_path / "serial.series", tmp_path / "pooled.series"
        write_trace(a, (r for o in serial for r in o.series))
        write_trace(b, (r for o in pooled for r in o.series))
        assert a.read_bytes() == b.read_bytes()
        samples = [r for o in serial for r in o.series
                   if r["type"] == "sample"]
        assert samples                      # fig8 actually sampled
        assert all(set(r) <= set(SERIES_FIELDS) for r in samples)
        # the trace itself stays byte-identical too when both are captured
        flat_serial = [r for o in serial for r in o.records]
        flat_pooled = [r for o in pooled for r in o.records]
        assert flat_serial == flat_pooled


class TestExport:
    def test_jsonl_roundtrip(self, tmp_path):
        _, records = _traced_run(ServerConfig.hybrid(), n=20)
        path = tmp_path / "trace.jsonl"
        assert write_trace(path, records) == len(records)
        assert read_trace(path) == records

    def test_csv_roundtrip(self, tmp_path):
        _, records = _traced_run(ServerConfig.hybrid(), n=20)
        path = tmp_path / "trace.csv"
        write_trace(path, records)
        back = read_trace(path)
        spans = [r for r in back if r["type"] == "span"]
        originals = [r for r in records if r["type"] == "span"]
        assert len(spans) == len(originals)
        assert spans[0]["t0"] == originals[0]["t0"]
        assert spans[0].get("attrs") == originals[0].get("attrs")


class TestCli:
    def test_trace_flag_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "fig4.jsonl"
        assert cli_main(["fig4", "--trace", str(out)]) == 0
        records = read_trace(out)
        assert records[0]["type"] == "meta"
        assert records[0]["version"] == 1
        assert "trace record(s)" in capsys.readouterr().out

    def test_trace_report_subcommand(self, tmp_path, capsys):
        out = tmp_path / "fig4.jsonl"
        cli_main(["fig4", "--trace", str(out)])
        capsys.readouterr()
        assert cli_main(["trace-report", str(out)]) == 0
        assert "per-phase latency" in capsys.readouterr().out

    def test_trace_report_missing_file(self, tmp_path):
        assert cli_main(["trace-report", str(tmp_path / "nope.jsonl")]) == 2

    def test_refuses_to_overwrite_existing_outputs(self, tmp_path, capsys):
        for flag in ("--trace", "--series"):
            out = tmp_path / f"existing{flag}.jsonl"
            out.write_text("precious previous capture\n")
            assert cli_main(["fig4", flag, str(out)]) == 2
            assert "refusing to overwrite" in capsys.readouterr().err
            assert out.read_text() == "precious previous capture\n"

    def test_force_overwrites(self, tmp_path, capsys):
        out = tmp_path / "fig4.jsonl"
        out.write_text("old\n")
        assert cli_main(["fig4", "--trace", str(out), "--force"]) == 0
        assert read_trace(out)[0]["type"] == "meta"

    def test_series_flag_and_report(self, tmp_path, capsys):
        out = tmp_path / "f8.series"
        assert cli_main(["fig8", "--series", str(out)]) == 0
        assert "series record(s)" in capsys.readouterr().out
        records = read_trace(out)
        assert records[0]["type"] == "meta"
        assert records[0]["interval"] == 1.0
        assert any(r["type"] == "sample" for r in records)
        assert cli_main(["series-report", str(out)]) == 0
        report = capsys.readouterr().out
        assert "goodput over time" in report
        assert "fig8" in report

    def test_live_requires_serial(self, capsys):
        assert cli_main(["fig4", "--live", "--jobs", "2"]) == 2
        assert "--live needs --jobs 1" in capsys.readouterr().err


# -- contract ↔ documentation diff -------------------------------------------

class TestContractDocSync:
    """docs/OBSERVABILITY.md must list every event and metric, exactly."""

    @staticmethod
    def _documented(section_heading):
        text = (REPO / "docs" / "OBSERVABILITY.md").read_text()
        match = re.search(rf"^## {re.escape(section_heading)}$(.*?)(?=^## |\Z)",
                          text, re.M | re.S)
        assert match, f"missing section {section_heading!r}"
        return set(re.findall(r"^\| `([^`]+)`", match.group(1), re.M))

    def test_every_span_documented(self):
        phases = {spec.span for spec in EVENTS.values() if spec.span}
        assert self._documented("Span catalogue") == phases

    def test_every_metric_documented(self):
        assert self._documented("Metric catalogue") == set(METRICS)

    def test_every_series_field_documented(self):
        assert (self._documented("Time-series record format")
                == set(SERIES_FIELDS))

    def test_every_bench_field_documented(self):
        assert (self._documented("Benchmark artifact format")
                == set(BENCH_FIELDS))

    def test_every_event_documented(self):
        assert self._documented("Event catalogue") == set(EVENTS)

    def test_every_invariant_documented(self):
        assert self._documented("Invariant catalogue") == set(INVARIANTS)
