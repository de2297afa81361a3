"""Smoke test of the benchmark at its smallest input size.

Runs ``perfbench/run.py --size smoke`` in subprocesses from the repository
root and checks the result line against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, workload: str, seed: int, trace: int = 0, env=None):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
        env={**os.environ, **(env or {})})
    lines = proc.stdout.splitlines()
    return proc.returncode, lines


def result(lines):
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_is_correct_and_prints_every_metric(workload):
    code, lines = bench(ROOT, workload, seed=3)
    assert code == 0, lines
    out = result(lines)
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_run_prints_every_layer_metric():
    code, lines = bench(ROOT, "learn-blackbox", seed=4, trace=1)
    assert code == 0, lines
    out = result(lines)
    assert out["correct"] is True and out["failed"] == 0
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert out["metrics"]["learning.rounds"]["value"] >= 1


def _digest_and_counts(lines):
    counts = {k: v["value"] for k, v in result(lines)["metrics"].items()
              if v["unit"] == "count"}
    return lines[-2], counts


def test_same_seed_repeats_artifacts_and_counts_exactly():
    first = _digest_and_counts(bench(ROOT, "props-heavy", seed=5)[1])
    second = _digest_and_counts(bench(ROOT, "props-heavy", seed=5)[1])
    assert first == second
    other = _digest_and_counts(bench(ROOT, "props-heavy", seed=6)[1])
    assert other[0] != first[0]


@pytest.mark.xfail(reason="the program's tableau pops formulas from a set, so its "
                          "witnesses depend on PYTHONHASHSEED", strict=False)
def test_artifacts_do_not_depend_on_the_hash_seed():
    one = bench(ROOT, "props-heavy", seed=2, env={"PYTHONHASHSEED": "1"})[1]
    two = bench(ROOT, "props-heavy", seed=2, env={"PYTHONHASHSEED": "2"})[1]
    assert one[-2] == two[-2]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    code, lines = bench(tmp_path, "learn-blackbox", seed=1)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
