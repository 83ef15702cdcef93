"""Smoke tests of the benchmark harness: the same code path at tiny sizes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import workloads
from worker import Loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_a_correct_result(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.05",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)


def test_traced_figures_do_not_grow_with_the_budget():
    calls = []
    for seconds in ("0.05", "0.5"):
        done = _run(ROOT, "--workload", "criterion", "--seed", "4", "--seconds", seconds,
                    "--trace", "1", "--smoke")
        assert done.returncode == 0, done.stderr
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        calls.append({k: v["value"] for k, v in metrics.items() if k.endswith(".calls")})
    assert calls[0] == calls[1]
    assert calls[0]["phasemat.check_general.calls"] > 0


def test_rejects_a_budget_that_runs_no_task():
    done = _run(ROOT, "--workload", "dhsp", "--seed", "1", "--seconds", "0", "--trace", "0",
                "--smoke")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_expected_value_counts_as_failed_task(tmp_path, monkeypatch):
    wl = workloads.build("dense_cli", 5, tmp_path, smoke=True)
    true_column = oracles.dft_column

    def corrupted(x, n):
        col = true_column(x, n).copy()
        col[0] += 1e-6
        return col

    monkeypatch.setattr(oracles, "dft_column", corrupted)
    loop = Loop(wl.tasks)
    for index in range(wl.cycle):
        loop.step(index)
    dft_tasks = sum(1 for t in wl.tasks[: wl.cycle] if t.kind == "s_dft")
    assert dft_tasks > 0
    assert loop.attempted == wl.cycle
    assert loop.failed == dft_tasks
    assert len(loop.ok_seconds) == wl.cycle - dft_tasks


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "dhsp", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
