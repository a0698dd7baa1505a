"""Intra-experiment run sharding: determinism and cache compatibility.

The shard list and its order depend only on ``(experiment, scale)`` and
the parent reduces payloads in plan order, so ``--jobs N`` must be
result- and trace-identical to ``--jobs 1``, and per-shard cache entries
written at one job count must be read back at any other.
"""

from __future__ import annotations

import pytest

import repro.harness.figures as figures
from repro.harness.cache import ResultCache
from repro.harness.experiment import WHOLE, Experiment
from repro.harness.parallel import SHARD_RUN_STRIDE, run_experiments


class _Sharded(Experiment):
    """Tiny deterministic shardable experiment (test fixture)."""

    experiment_id = "sharded-test"
    title = "tiny shardable experiment"
    PLAN = ["0:a", "0:b", "1:a", "1:b"]

    def shard_plan(self, scale="quick"):
        return list(self.PLAN)

    def run_shard(self, scale, shard):
        from repro.obs.trace import tracer
        from repro.sim import Simulator

        run = tracer().begin_run(arch="test", storage="none")
        sim = Simulator()
        ticks: list[float] = []
        index = self.PLAN.index(shard)

        def proc():
            for _ in range(5 + index):
                yield sim.timeout(0.5)
                ticks.append(sim.now)

        sim.process(proc())
        sim.run()
        return {"shard": shard, "run": run, "ticks": ticks}

    def reduce_shards(self, scale, payloads):
        result = self.result(["shard", "total"], scale)
        for payload in payloads:
            result.add_row(shard=payload["shard"],
                           total=sum(payload["ticks"]))
        return result


@pytest.fixture
def sharded(monkeypatch):
    patched = dict(figures.EXPERIMENTS)
    patched["sharded-test"] = _Sharded
    # the fork start method carries the patch into pool workers
    monkeypatch.setattr(figures, "EXPERIMENTS", patched)
    return patched


def test_direct_run_composes_shards_serially(sharded):
    result = _Sharded().run(scale="quick")
    assert [row["shard"] for row in result.rows] == _Sharded.PLAN


@pytest.mark.parametrize("jobs", [1, 4])
def test_jobs_count_does_not_change_results(sharded, jobs):
    serial = _Sharded().run(scale="quick")
    outcome = run_experiments(["sharded-test"], "quick", jobs=jobs)[0]
    assert outcome.result.rows == serial.rows
    assert not outcome.cached


def test_traced_shards_get_disjoint_run_id_blocks(sharded):
    outcome = run_experiments(["sharded-test"], "quick", jobs=2,
                              traced=True)[0]
    run_ids = [r["run"] for r in outcome.records if r["type"] == "run"]
    # shard i counts runs from i * SHARD_RUN_STRIDE; merge is plan-ordered
    assert run_ids == [i * SHARD_RUN_STRIDE + 1 for i in range(4)]


def test_jobs_counts_are_cache_compatible(sharded, tmp_path):
    cache = ResultCache(tmp_path, src_hash="test")
    first = run_experiments(["sharded-test"], "quick", jobs=1,
                            cache=cache)[0]
    assert not first.cached
    # every shard the serial run wrote must satisfy the parallel run
    second = run_experiments(["sharded-test"], "quick", jobs=4,
                             cache=cache)[0]
    assert second.cached
    assert second.result.rows == first.result.rows
    assert cache.hits == len(_Sharded.PLAN)


def test_partial_cache_runs_only_missing_shards(sharded, tmp_path):
    cache = ResultCache(tmp_path, src_hash="test")
    run_experiments(["sharded-test"], "quick", jobs=1, cache=cache)
    # invalidate one shard: the next run recomputes exactly that one
    path = cache._path("sharded-test", "quick", "1:a")
    path.unlink()
    outcome = run_experiments(["sharded-test"], "quick", jobs=2,
                              cache=cache)[0]
    assert not outcome.cached          # one shard was fresh
    assert [row["shard"] for row in outcome.result.rows] == _Sharded.PLAN


def test_shard_cache_round_trip_and_validation(tmp_path):
    cache = ResultCache(tmp_path, src_hash="test")
    payload = {"shard": "0:a", "ticks": [0.5, 1.0]}
    cache.put("exp", "quick", "0:a", payload)
    assert cache.get("exp", "quick", "0:a") == payload
    # entries echo their shard id; a mismatched read must miss
    assert cache.get("exp", "quick", "0:b") is None
    assert cache.get("exp", "full", "0:a") is None


def test_fig8_and_storage_figures_declare_shards():
    fig8 = figures.EXPERIMENTS["fig8"]()
    plan = fig8.shard_plan("quick")
    assert plan and all(":" in shard for shard in plan)
    assert plan == fig8.shard_plan("quick")   # deterministic
    fig10 = figures.EXPERIMENTS["fig10"]()
    assert len(fig10.shard_plan("quick")) > 1
    # every experiment is a plan: non-empty, unique ids, and one WHOLE
    # shard for an experiment that overrides run()
    for cls in figures.EXPERIMENTS.values():
        for scale in ("quick", "full"):
            plan = cls().shard_plan(scale)
            assert plan and len(set(plan)) == len(plan), cls.experiment_id
            if cls.run_shard is Experiment.run_shard:
                assert plan == [WHOLE], cls.experiment_id


def test_experiment_without_run_or_shards_raises():
    class _Empty(Experiment):
        experiment_id = "empty"

    with pytest.raises(NotImplementedError,
                       match="implements neither run\\(\\) nor the shard API"):
        _Empty().run("quick")
    with pytest.raises(NotImplementedError):
        _Empty().run_shard("quick", WHOLE)
