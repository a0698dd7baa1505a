"""Tests for the continuous-benchmark pipeline (repro.harness.bench)."""

import json
from pathlib import Path

import pytest

from repro.harness import bench
from repro.obs import BENCH_FIELDS


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """One real (tiny) bench run shared by the schema tests."""
    out = tmp_path_factory.mktemp("bench")
    artifact, path = bench.run_bench(quick=True, out_dir=str(out),
                                     figures=("fig4",))
    return artifact, path


class TestArtifact:
    def test_keys_match_contract_exactly(self, artifact):
        art, _ = artifact
        assert set(art) == set(BENCH_FIELDS)
        assert art["schema"] == bench.SCHEMA == "repro-bench/3"

    def test_written_file_round_trips(self, artifact):
        art, path = artifact
        assert path.name == f"BENCH_{art['runstamp']}.json"
        assert json.loads(path.read_text()) == art

    def test_measurements_are_sane(self, artifact):
        art, _ = artifact
        assert art["kernel_events_per_sec"] > 0
        assert art["kernel_steps_per_sec"] > 0
        assert art["figures"]["fig4"] >= 0
        assert art["peak_rss_kb"] > 0
        assert art["total_wall_seconds"] > 0
        assert art["scale"] == "quick"

    def test_kernel_microbench_reports_throughput(self):
        stats = bench.kernel_microbench(quick=True)
        assert stats["kernel_events_per_sec"] > 1000


def _write(path, **overrides):
    base = {"schema": "repro-bench/1", "runstamp": "20260101T000000Z",
            "python": "3.11", "platform": "test", "scale": "quick",
            "kernel_events_per_sec": 100_000,
            "kernel_steps_per_sec": 90_000,
            "figures": {"fig4": 1.0, "table1": 2.0},
            "tracing_overhead_pct": 1.0, "peak_rss_kb": 1000,
            "total_wall_seconds": 3.0}
    base.update(overrides)
    path.write_text(json.dumps(base))
    return path


class TestCompare:
    def test_identical_artifacts_pass(self, tmp_path):
        old = _write(tmp_path / "old.json")
        text, regressions = bench.compare(old, old)
        assert regressions == []
        assert "no regressions" in text

    def test_events_per_sec_drop_over_threshold_flagged(self, tmp_path):
        old = _write(tmp_path / "old.json")
        new = _write(tmp_path / "new.json", kernel_events_per_sec=85_000)
        _, regressions = bench.compare(old, new, threshold=10.0)
        assert regressions == ["kernel_events_per_sec"]

    def test_drop_under_threshold_not_flagged(self, tmp_path):
        old = _write(tmp_path / "old.json")
        new = _write(tmp_path / "new.json", kernel_events_per_sec=95_000)
        _, regressions = bench.compare(old, new, threshold=10.0)
        assert regressions == []

    def test_figure_wall_growth_flagged(self, tmp_path):
        old = _write(tmp_path / "old.json")
        new = _write(tmp_path / "new.json",
                     figures={"fig4": 1.3, "table1": 2.0})
        _, regressions = bench.compare(old, new, threshold=10.0)
        assert regressions == ["figures.fig4 (s)"]

    def test_noisy_entries_reported_but_never_flagged(self, tmp_path):
        old = _write(tmp_path / "old.json")
        new = _write(tmp_path / "new.json", tracing_overhead_pct=50.0,
                     peak_rss_kb=9_999_999)
        text, regressions = bench.compare(old, new, threshold=10.0)
        assert regressions == []
        assert "tracing_overhead_pct" in text

    def test_main_compare_exits_nonzero_on_regression(self, tmp_path,
                                                      capsys):
        old = _write(tmp_path / "old.json")
        new = _write(tmp_path / "new.json", kernel_events_per_sec=80_000)
        assert bench.main(["compare", str(old), str(new),
                           "--threshold", "10"]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        assert bench.main(["compare", str(old), str(old)]) == 0

    def test_main_compare_missing_file_exits_2(self, tmp_path, capsys):
        assert bench.main(["compare", str(tmp_path / "a.json"),
                           str(tmp_path / "b.json")]) == 2
        assert "cannot compare" in capsys.readouterr().err

    def test_schema_2_baseline_compares_against_schema_3(self, tmp_path):
        """The committed ``/2`` baseline stays usable: its two fields that
        ``/3`` dropped are skipped with a warning, never flagged."""
        path = (Path(__file__).resolve().parent.parent
                / "BENCH_20260807T062546Z.json")
        old = json.loads(path.read_text())
        assert old["schema"] == "repro-bench/2"
        new = {key: value for key, value in old.items()
               if key not in ("sched", "kernel_timeout_churn_per_sec")}
        new["schema"] = bench.SCHEMA
        assert set(new) == set(BENCH_FIELDS)
        new_path = tmp_path / "new.json"
        new_path.write_text(json.dumps(new))
        text, regressions = bench.compare(str(path), str(new_path))
        assert regressions == []
        assert ("warning: only in old artifact (skipped): "
                "kernel_timeout_churn_per_sec, sched") in text
        assert "only in new artifact" not in text
        assert "no regressions" in text
