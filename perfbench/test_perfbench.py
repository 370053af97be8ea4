"""Smoke tests of the benchmark: ``python3 -m pytest perfbench -q``.

Every workload runs at smoke size (``--tiny``), untraced and traced, in
a child process, and its result object must match ``BENCHMARK.json``.
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

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def run_bench(workload, trace, cwd=ROOT, bench_dir=HERE):
    return subprocess.run(
        [sys.executable, os.path.join(bench_dir, "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0.1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize(
    "workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))
        if not trace:
            assert value["value"] > 0, metric["name"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("sim-paper", 0, cwd=tmp_path,
                     bench_dir=str(tmp_path / "perfbench"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
