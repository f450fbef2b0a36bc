"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload on the tiny smoke grids in both output modes and checks
the result line against BENCHMARK.json; then checks that the benchmark
refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace, smoke=True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd + (["--smoke"] if smoke else []), cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr[-3000:]
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0, smoke=False)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
