"""Tests of the benchmark itself: seeded inputs and exact counts.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

The exact-count tests run each workload's traced pass twice, in fresh
interpreters with different hash seeds, and take about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
import workloads  # noqa: E402

#: how far another seed may move each shape property: absolute for the
#: ratios, relative for the sizes
SHAPE_TOLERANCE = {
    "bounce_ratio": 0.03,
    "unfinished_ratio": 0.02,
    "spam_share": 0.03,
    "multi_rcpt_share": 0.04,
}
SHAPE_RELATIVE_TOLERANCE = {"connections": 0.05, "rcpts_per_mail": 0.05}


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_same_seed_same_inputs(workload):
    build = workloads.INPUTS[workload]
    first = workloads.digest(build(11))
    assert workloads.digest(build(11)) == first
    assert workloads.digest(build(12)) != first


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_other_seeds_keep_the_shape(workload):
    build = workloads.INPUTS[workload]
    base = workloads.shape(build(1))
    for seed in (2, 3, 4):
        shape = workloads.shape(build(seed))
        for key, tolerance in SHAPE_TOLERANCE.items():
            assert abs(shape[key] - base[key]) <= tolerance, (seed, key)
        for key, tolerance in SHAPE_RELATIVE_TOLERANCE.items():
            assert abs(shape[key] / base[key] - 1) <= tolerance, (seed, key)


def test_loopback_sends_each_mailbox_once_per_mail():
    for conn in workloads.loopback(5).connections:
        for mail in conn.mails:
            boxes = [r.mailbox for r in mail.recipients]
            assert len(boxes) == len(set(boxes))


def test_metric_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", bench.END_TO_END),
                       ("per_layer", bench.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] \
            == list(table)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def _exact_counts(workload: str, seed: int, hash_seed: int) -> dict:
    code = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import run; "
            f"print(json.dumps(run.exact_counts({workload!r}, {seed})))")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(HERE)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_exact_counts_repeat(workload):
    first = _exact_counts(workload, 3, hash_seed=1)
    second = _exact_counts(workload, 3, hash_seed=2)
    assert first == second
    layer = "sim" if workload in bench.DES_WORKLOADS else "net"
    assert any(v for k, v in first.items() if k.startswith(layer))
