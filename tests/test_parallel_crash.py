"""Worker crash propagation for repro.harness.parallel.

A crashing experiment must surface as :class:`ExperimentFailure` carrying
``(experiment id, exception summary, formatted worker traceback)`` — never
as a bare pool exception with the worker's stack lost — and the CLI must
print that traceback to stderr.
"""

import pytest

import repro.harness.figures as figures
from repro.harness.cli import main as cli_main
from repro.harness.experiment import Experiment
from repro.harness.parallel import ExperimentFailure, run_experiments
from repro.obs import tracer
from repro.obs.flightrec import TAIL_EVENTS


class _Exploding(Experiment):
    experiment_id = "exploding"
    title = "always raises (test fixture)"

    def run(self, scale="quick"):
        raise ValueError("boom from the worker")


class _ExplodingAfterEvents(_Exploding):
    experiment_id = "exploding-late"

    def run(self, scale="quick"):
        recorder = tracer().recorder
        for i in range(45):
            recorder.emit("smtp.rcpt", float(i), 1, 1, (True,))
        raise ValueError("boom after 45 events")


@pytest.fixture
def exploding(monkeypatch):
    import repro.harness.cli as cli
    patched = dict(figures.EXPERIMENTS)
    patched["exploding"] = _Exploding
    # workers resolve EXPERIMENTS through the figures module at call time
    # (the fork start method carries the patch into the pool); the CLI
    # holds its own reference, so patch both
    monkeypatch.setattr(figures, "EXPERIMENTS", patched)
    monkeypatch.setattr(cli, "EXPERIMENTS", patched)
    return patched


class TestRunExperiments:
    def test_serial_crash_raises_with_worker_traceback(self, exploding):
        with pytest.raises(ExperimentFailure) as excinfo:
            run_experiments(["exploding"], "quick", jobs=1)
        failure = excinfo.value
        assert failure.exp_id == "exploding"
        assert "ValueError: boom from the worker" in str(failure)
        assert "boom from the worker" in failure.worker_traceback
        assert "Traceback" in failure.worker_traceback

    def test_pool_crash_raises_with_worker_traceback(self, exploding):
        with pytest.raises(ExperimentFailure) as excinfo:
            run_experiments(["fig4", "exploding"], "quick", jobs=2)
        failure = excinfo.value
        assert failure.exp_id == "exploding"
        assert "Traceback" in failure.worker_traceback

    def test_first_failure_in_request_order_wins(self, exploding):
        exploding["exploding2"] = _Exploding
        with pytest.raises(ExperimentFailure) as excinfo:
            run_experiments(["exploding", "exploding2"], "quick", jobs=2)
        assert excinfo.value.exp_id == "exploding"

    def test_crash_ships_the_ring_tail(self, exploding):
        exploding["exploding-late"] = _ExplodingAfterEvents
        with pytest.raises(ExperimentFailure) as excinfo:
            run_experiments(["exploding-late"], "quick", jobs=1,
                            watchdogs=True)
        tail = excinfo.value.recorder_tail
        assert TAIL_EVENTS == 32
        assert [r["seq"] for r in tail] == list(range(14, 46))
        assert {r["exp"] for r in tail} == {"exploding-late"}
        assert tail[-1]["attrs"] == {"valid": True}

    def test_crash_during_traced_run_still_propagates(self, exploding):
        with pytest.raises(ExperimentFailure):
            run_experiments(["exploding"], "quick", jobs=1, traced=True,
                            series_interval=1.0)


class TestCliSurface:
    def test_cli_prints_worker_traceback_and_exits_1(self, exploding,
                                                     capsys):
        assert cli_main(["exploding", "--no-cache"]) == 1
        err = capsys.readouterr().err
        assert "error: experiment 'exploding' failed" in err
        assert "worker traceback" in err
        assert "ValueError: boom from the worker" in err

    def test_cli_jobs2_prints_worker_traceback(self, exploding, capsys):
        assert cli_main(["fig4", "exploding", "--no-cache",
                         "--jobs", "2"]) == 1
        err = capsys.readouterr().err
        assert "exploding" in err and "worker traceback" in err
