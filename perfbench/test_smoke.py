"""Smoke test of the benchmark at toy size.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload, untraced and traced, must print every metric that
BENCHMARK.json names, with its unit, and fail nothing.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
                           "--seconds", "1", "--trace", str(trace), "--toy"],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"], proc.stderr[-3000:]
    assert result["attempted"] >= 1
    assert any(line.startswith("failed_frac 0.000000") for line in lines)
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
