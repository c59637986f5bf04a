"""Smoke test of the benchmark itself, at n = 2 so it runs in seconds.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
from spans import per_layer_metrics
from workloads import TOP_N, WORKLOADS

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def bench(*args, cwd=REPO):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_spec_names_the_metrics_the_benchmark_reports():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer_metrics(TOP_N)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_appears_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--n", "2")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = run.END_TO_END if trace == 0 else per_layer_metrics(2)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    # every traced run replays every workload, so no layer reads 0
    assert all(m["value"] != 0 for m in result["metrics"].values())


TAMPER = {
    "verify-cold": lambda e: replace(e, checks_per_n=e.checks_per_n + 1),
    "explore-warm": lambda e: replace(
        e, green={**e.green, "additive": {**e.green["additive"], "R": 0}}),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expectation_is_a_failed_op(workload, trace, monkeypatch, capsys):
    real = run.expect
    monkeypatch.setattr(run, "expect", lambda n, f: TAMPER[workload](real(n, f)))
    monkeypatch.chdir(REPO)
    status = run.main(["--workload", workload, "--seed", "1", "--seconds", "0.1",
                       "--trace", str(trace), "--n", "2"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert status == 1
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "verify-cold", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
