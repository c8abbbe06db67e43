"""Smoke test of the benchmark: every workload on a one-round corpus, and
corrupted answers must fail the run.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

LIB = run.load_library()
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, trace: int = 0) -> tuple[int, dict]:
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "60",
                     "--trace", str(trace)], rounds=1)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_clean(capsys, workload):
    code, result = _run(capsys, workload)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    # the whole one-round corpus plus the warm-up job
    assert result["attempted"] == len(WORKLOADS[workload].kinds) + 1
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_trace_counts_repeat(capsys):
    counts = []
    for _ in range(2):
        code, result = _run(capsys, "ore-analyse", trace=1)
        assert code == 0 and result["correct"]
        counts.append({k: m["value"] for k, m in result["metrics"].items()
                       if m["unit"] in ("count", "ratio") and k != "trace.overhead"})
    assert counts[0] == counts[1]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert counts[0]["ore.is_4ore.calls"] > 0 and counts[0]["packing.max_packing.nodes"] > 0


def test_corrupted_witness_fails(capsys, monkeypatch):
    original = LIB.colouring.is_k_dicritical

    def corrupted(d, k, budget=None):
        report = original(d, k, budget)
        if report.witnesses:
            arc = min(report.witnesses)
            report.witnesses[arc] = LIB.colouring.Colouring(k - 1, (1,) * d.n)
        return report

    monkeypatch.setattr(LIB.colouring, "is_k_dicritical", corrupted)
    code, result = _run(capsys, "crit-ore")
    assert code != 0
    assert not result["correct"] and result["failed"] > 0


def test_corrupted_packing_fails(capsys, monkeypatch):
    original = LIB.packing.max_packing

    def corrupted(d, budget=None):
        packing = original(d, budget)
        return replace(packing, digon_items=packing.digon_items[1:])

    monkeypatch.setattr(LIB.packing, "max_packing", corrupted)
    code, result = _run(capsys, "ore-analyse")
    assert code != 0
    assert not result["correct"] and result["failed"] > 0


def test_fails_without_the_package(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_reference_speed_scales_by_the_calibration():
    speed = run.ReferenceSpeed()
    ref = speed.REFERENCE_NS
    assert speed.factor(ref, ref) == 1.0
    # a CPU twice as slow as the reference halves every time measured on it
    assert speed.factor(2 * ref, 2 * ref) == 0.5
    assert speed.calibrate() > 0 and len(speed.samples_ns) == 1
