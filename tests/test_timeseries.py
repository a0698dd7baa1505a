"""Tests for windowed time-series sampling (repro.obs.timeseries).

Covers the sampling mechanics (window boundaries, delta encoding, baseline
attachment, multi-``run()`` captures), the ``series-report`` renderer, and
the ``--live`` dashboard callback.
"""

import io

import pytest

from repro.clients import ClosedLoopClient
from repro.core import make_dnsbl_bank
from repro.obs import ObsError, capture, series_report
from repro.obs.timeseries import LiveDashboard, SeriesCursor
from repro.server import MailServerSim, ServerConfig
from repro.sim import Simulator
from repro.traces import bounce_sweep_trace


def _sampled_server(interval=1.0, bounce=0.3, n=80, make_resolver=None,
                    config=None):
    trace = bounce_sweep_trace(bounce, n_connections=n, unfinished_ratio=0.1)
    with capture(context={"exp": "unit"}, series_interval=interval) as tr:
        sim = Simulator()
        # the resolver must be built inside the capture — instruments bind
        # to the active registry at construction time
        resolver = make_resolver(trace) if make_resolver else None
        server = MailServerSim(sim, config or ServerConfig.hybrid(),
                               resolver=resolver)
        client = ClosedLoopClient(sim, server, trace, concurrency=10)
        client.start()
        sim.run()
        server.finalize(sim.now)
    return server, list(tr.series_records())


class TestSeriesCursor:
    def test_rejects_non_positive_interval(self):
        with capture(series_interval=1.0) as tr:
            with pytest.raises(ObsError):
                SeriesCursor(tr, 1, 0.0, tr.registry)

    def test_boundaries_are_multiples_of_interval(self):
        _, records = _sampled_server(interval=0.5)
        times = [r["t"] for r in records if r["type"] == "sample"]
        assert times
        assert all(t == pytest.approx(round(t / 0.5) * 0.5) for t in times)
        # samples arrive in simulated-time order per simulator
        assert times == sorted(times)

    def test_counter_samples_are_deltas_summing_to_total(self):
        # a partial trailing window (run() without until) is dropped by
        # design, so the deltas cover everything up to the last boundary
        server, records = _sampled_server()
        accepted = sum(r["metrics"].get("server.mails.accepted", 0)
                       for r in records if r["type"] == "sample")
        assert 0 < accepted <= server.metrics.mails_accepted
        last = max(r["t"] for r in records if r["type"] == "sample")
        assert server.metrics.mails_accepted - accepted < 20  # just the tail
        assert last >= 1.0

    def test_unchanged_metrics_and_empty_samples_omitted(self):
        _, records = _sampled_server()
        samples = [r for r in records if r["type"] == "sample"]
        assert all(r["metrics"] for r in samples)
        assert all("kernel.wall_seconds" not in r["metrics"]
                   for r in samples)

    def test_sampling_survives_multiple_run_calls(self):
        with capture(context={"exp": "unit"}, series_interval=1.0) as tr:
            sim = Simulator()

            def worker():
                for _ in range(40):
                    tr.note_kernel(1, 0, 0.0)
                    yield sim.timeout(0.1)

            sim.process(worker())
            sim.run(until=2.0)        # warmup phase ...
            sim.run(until=4.0)        # ... then the measured phase
        times = [r["t"] for r in tr.series_records()
                 if r["type"] == "sample"]
        assert times == [1.0, 2.0, 3.0, 4.0]

    def test_run_until_flushes_trailing_windows(self):
        with capture(series_interval=1.0) as tr:
            sim = Simulator()

            def worker():
                tr.note_kernel(7, 0, 0.0)
                yield sim.timeout(0.5)

            sim.process(worker())
            sim.run(until=3.0)        # no events after 0.5, three boundaries
        samples = [r for r in tr.series_records() if r["type"] == "sample"]
        assert samples                # the until-flush emitted the tail
        assert samples[0]["metrics"]["kernel.events"] >= 7

    def test_attach_baseline_excludes_preexisting_counts(self):
        with capture(series_interval=1.0) as tr:
            tr.registry.counter("kernel.events").inc(1000)   # before attach
            sim = Simulator()

            def worker():
                tr.note_kernel(5, 0, 0.0)
                yield sim.timeout(1.5)

            sim.process(worker())
            sim.run(until=2.0)
        samples = [r for r in tr.series_records() if r["type"] == "sample"]
        total = sum(r["metrics"].get("kernel.events", 0) for r in samples)
        # the 5 noted events plus the kernel's own few — but never the
        # 1000 pre-attach ones
        assert 5 <= total < 100

    def test_disabled_capture_has_no_cursor(self):
        sim = Simulator()
        assert sim._series is None
        with capture() as _:          # tracing without series
            sim2 = Simulator()
            assert sim2._series is None

    def test_undeclared_sample_field_rejected(self):
        with capture(series_interval=1.0) as tr:
            with pytest.raises(ObsError):
                tr._emit_sample({"type": "sample", "bogus": 1})


class TestSeriesReport:
    def test_report_shows_goodput_and_warmup(self):
        _, records = _sampled_server()
        text = series_report(records)
        assert "goodput over time" in text
        assert "unit" in text
        assert "sampled counters" in text

    def test_report_shows_dnsbl_cache_ramp(self):
        config = ServerConfig(architecture="vanilla", process_limit=20)
        _, records = _sampled_server(
            n=120,
            make_resolver=lambda trace: make_dnsbl_bank(
                {c.client_ip for c in trace}, "ip"),
            config=config)
        text = series_report(records)
        assert "dnsbl cache hit-rate warm-up" in text
        assert "final hit rate" in text
        assert "warm (>= 90% of final)" in text

    def test_empty_series_renders_placeholder(self):
        assert "(no sample records in file)" in series_report([])


class TestLiveDashboard:
    def _sample(self, t, accepted, sim=1, run=1, exp="fig8"):
        return {"type": "sample", "exp": exp, "sim": sim, "t": t,
                "run": run,
                "metrics": {"server.mails.accepted": accepted}}

    def test_non_tty_writes_one_line_per_sample(self):
        stream = io.StringIO()
        dash = LiveDashboard(stream, interval=1.0)
        dash.on_sample(self._sample(1.0, 10))
        dash.on_sample(self._sample(2.0, 5))
        dash.close()
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert "t=1.0s" in lines[0] and "10 mails" in lines[0]
        assert "15 mails" in lines[1]          # cumulative

    def test_state_resets_on_new_simulator(self):
        stream = io.StringIO()
        dash = LiveDashboard(stream, interval=1.0)
        dash.on_sample(self._sample(1.0, 10, sim=1))
        dash.on_sample(self._sample(1.0, 3, sim=2))
        assert "3 mails" in stream.getvalue().splitlines()[-1]

    def test_dnsbl_hit_rate_rendered(self):
        stream = io.StringIO()
        dash = LiveDashboard(stream, interval=1.0)
        dash.on_sample({"type": "sample", "exp": "x", "sim": 1, "t": 1.0,
                        "run": 0, "metrics": {"dnsbl.cache.hits": 3,
                                              "dnsbl.cache.misses": 1}})
        assert "dnsbl hit 75%" in stream.getvalue()
