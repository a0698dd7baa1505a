"""Benchmark-suite configuration.

Each ``test_figNN.py`` module regenerates one table/figure of the paper via
the experiment harness, timed by pytest-benchmark, and asserts that the
paper's anchor claims hold.  Each figure is timed over three rounds, and
every round starts from an empty trace memo (:mod:`repro.traces.memo`), so
it includes its own trace generation whichever benchmark ran before it.

Run:  pytest benchmarks/ --benchmark-only
"""

import pytest


def run_experiment(benchmark, exp_id, scale="quick"):
    """Execute one harness experiment under the benchmark timer and verify
    its paper-vs-measured anchors."""
    from repro.harness import EXPERIMENTS
    from repro.traces import clear_trace_memo

    experiment = EXPERIMENTS[exp_id]()
    result = benchmark.pedantic(experiment.run, args=(scale,),
                                setup=clear_trace_memo, rounds=3,
                                iterations=1)
    failed = [a for a in result.anchors if not a.holds]
    assert not failed, (
        f"{exp_id}: paper anchors failed: "
        f"{[(a.description, a.paper_value, a.measured_value) for a in failed]}")
    return result


@pytest.fixture
def experiment_runner(benchmark):
    def runner(exp_id, scale="quick"):
        return run_experiment(benchmark, exp_id, scale)
    return runner
