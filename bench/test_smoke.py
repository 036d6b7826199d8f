"""Smoke test of the benchmark harness, fingerprints and tracer (seconds).

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_end_to_end_metrics():
    res = result_of(run_bench("smoke", 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, m in res["metrics"].items():
        assert m["value"] > 0, name
    assert res["metrics"]["success_rate"]["value"] == 1.0


def test_traced_layers_and_repeatable_counts():
    for _ in range(2):  # the second run compares its counts with the first
        res = result_of(run_bench("smoke", 1))
        assert res["correct"], res
        metrics = {k: v["value"] for k, v in res["metrics"].items()}
        assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
        assert metrics["cli.main.calls"] == 2
        assert metrics["gate.assemble_gate.calls"] == 1
        assert metrics["gate.protocols_per_gate"] == 3  # nu = 1, 2, 3 at N = 3
        assert metrics["thermal.trials"] == 4
        assert metrics["evolution.rk4_steps"] == 3 * 2 * 4000
        assert metrics["basis.build.calls"] > 0 and metrics["hamiltonian.drive_matrix.calls"] > 0
        layers = ("basis", "hamiltonian", "spectra", "evolution", "gate", "thermal", "cli")
        covered = sum(metrics[f"{x}.self_s"] for x in layers)
        assert abs(covered + metrics["trace.unattributed_s"] - metrics["trace.wall_s"]) < 1e-6


def test_coarse_step_fails_fingerprint():
    res = result_of(run_bench("smoke_coarse", 0))
    assert not res["correct"]
    assert res["failed"] == res["attempted"] > 0


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("smoke", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
