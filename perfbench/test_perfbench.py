"""Checks of the benchmark itself: its catalogue, a smoke run, and refusal outside a checkout.

    python -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_catalogue():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [(n, u) for n, u, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [(n, u) for n, u, _ in run.PER_LAYER]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_smoke_run_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--trace", "both", "--smoke", "--seconds", "0.5"],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    catalogue = [(n, u) for n, u, _ in run.END_TO_END + run.PER_LAYER]
    expected = {f"{w}/{n}": u for w in WORKLOADS for n, u in catalogue}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {tuple(line.split()[:3:2]) for line in lines[:-1] if not line.startswith("#")}
    assert set(catalogue) <= printed


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clouds-m3000", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
