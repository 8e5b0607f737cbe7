"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Each workload runs one pass untraced and one traced; both must pass every
golden check and give identical op results. A wrong golden must count as a
failed op, and a directory without the package source must make the
benchmark exit non-zero without a result line.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def goldens():
    return run.load_goldens()


def _run(workload, goldens, out_dir, trace=0, seed=3):
    return run.run_workload(workload, seed, 0, trace, goldens=goldens, setup_runs=1,
                            out_dir=out_dir)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_and_traced_run_agree(workload, goldens, tmp_path):
    plain = _run(workload, goldens, tmp_path)
    assert plain["correct"], plain["failures"]
    assert plain["failed"] == 0 and plain["attempted"] > 0
    assert set(plain["metrics"]) == set(run.END_TO_END)
    assert all(value > 0 for value in plain["metrics"].values())

    traced = _run(workload, goldens, tmp_path, trace=1)
    assert traced["correct"], traced["failures"]
    assert set(traced["metrics"]) == set(run.PER_LAYER)
    assert traced["facets"] == plain["facets"]
    assert (tmp_path / f"spans-{workload}-seed3.jsonl").stat().st_size > 0

    layers = traced["metrics"]
    if workload == "cli":
        self_times = {k: v for k, v in layers.items() if k.endswith(".self_s")}
        assert max(self_times, key=self_times.get) == "graphs.scan.self_s"
        assert layers["verify.claims_checked"] == 67 * 2
    else:
        assert layers["graphs.scan.calls"] == 0
    if workload == "long-chain":
        assert layers["graphs.pivot.calls"] == 0
        assert layers["recurrences.eval_recurrence.peak_alloc_mb"] > 0


def test_wrong_golden_counts_as_failed(goldens, tmp_path):
    bad = copy.deepcopy(goldens)
    bad["oracle-large"]["count/tri/19"] = "17712"
    result = _run("oracle-large", bad, tmp_path)
    assert not result["correct"]
    # count_ids, count_boundary_classes and enumerate_mis on tri 19 check that count
    assert result["failed"] == 3
    assert result["failed_frac"] == pytest.approx(3 / result["attempted"])
    assert json.loads(run.last_line(result))["failed"] == 3


def test_refuses_directory_without_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_metrics_printed():
    config = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in config["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)


def test_point_pairs_stay_in_range_and_keep_the_work_fixed():
    import random

    rng = random.Random(0)
    for _ in range(1000):
        n1, n2 = workloads.point_pair(rng)
        assert workloads.POINT_MIN <= n1 <= n2 <= workloads.POINT_MAX
        assert n1 % workloads.POINT_STEP == n2 % workloads.POINT_STEP == 0
        total = workloads.POINT_MIN ** 2 + workloads.POINT_MAX ** 2
        assert abs(n1 * n1 + n2 * n2 - total) / total < 0.05
