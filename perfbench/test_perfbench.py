"""Self-tests of the benchmark (not part of the library's suite).

    python3 -m pytest perfbench -q

Smoke runs use the shortest run length, so each makes one pass (two
when traced); the whole module takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import fastest  # noqa: E402
from tracing import per_layer_spec  # noqa: E402
from workloads import WORKLOADS, load_oracle, make_plan  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@lru_cache(maxsize=None)
def result(workload: str, trace: int, attempt: int = 0) -> dict:
    proc = run_bench(workload, 7, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_what_the_runs_print():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert BENCH["per_layer"] == per_layer_spec()
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    assert "setup_s" in e2e
    assert all(m["bound"] <= 0.25 for m in BENCH["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    res = result(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_per_layer(workload):
    res = result(workload, 1)
    assert res["correct"] and res["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_for_the_same_seed(workload):
    counted = [m["name"] for m in BENCH["per_layer"] if m["unit"] not in ("s", "ms")]
    first, second = result(workload, 1), result(workload, 1, attempt=1)
    assert {n: first["metrics"][n]["value"] for n in counted} == \
        {n: second["metrics"][n]["value"] for n in counted}


def test_plans_depend_only_on_the_seed():
    for workload in WORKLOADS:
        assert make_plan(workload, 5) == make_plan(workload, 5)
    assert make_plan("realize-mix", 5) != make_plan("realize-mix", 6)


def test_fastest_is_the_elementwise_minimum():
    passes = [{"glue_s": [3.0, 1.0, 2.0]}, {"glue_s": [2.5, 1.5, 4.0]}]
    assert fastest(passes, "glue_s") == [2.5, 1.0, 2.0]


def test_corrupted_digest_is_a_failure_not_a_crash():
    oracle = load_oracle()
    item = oracle["catalog_cli"][3]
    item["sha256"] = "0" * 64
    request = {"mode": "pass", "plan": make_plan("catalog-cli", 1), "trace": False,
               "oracle": oracle}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(request), cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["attempted"] == len(oracle["catalog_cli"])
    assert res["failed"] == 1
    assert "digest" in res["errors"][0]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("catalog-cli", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
