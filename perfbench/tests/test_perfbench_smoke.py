"""Harness smoke test: every workload at its tiny size finishes, matches its
golden outputs and reports every metric BENCHMARK.json declares.

The tiny sizes check the harness only; they are never reported as results.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

# Self times that a workload's job never enters; every other one is nonzero.
ZERO_FINDER = {"numtheory.find_zeros_s", "numtheory.z_eval_s"}
NOT_RUN = {
    "zeros-3000": set(),
    "library-primes-3e5": ZERO_FINDER | {"spectral.periodicity_s",
                                         "spectral.direct_bins_s"},
}


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_tiny_workload_reports_every_metric(workload):
    proc = bench(ROOT, workload, 0)
    plain = result(proc)
    assert plain["correct"] and plain["attempted"] >= 1
    assert list(plain["metrics"]) == [m["name"] for m in DECLARED["end_to_end"]]
    assert "fail_ratio" in proc.stdout

    traced = result(bench(ROOT, workload, 1))
    assert traced["correct"] and traced["attempted"] >= 2
    layers = {name: m["value"] for name, m in traced["metrics"].items()}
    assert list(layers) == [m["name"] for m in DECLARED["per_layer"]]
    # A span wrapped at an attribute the pipeline does not call through
    # reads 0; one that is not closed before its parent makes cli.self_s < 0.
    for name, value in layers.items():
        if name.endswith("_s") and not name.startswith("trace."):
            if name in NOT_RUN[workload]:
                assert value == 0.0, name
            else:
                assert value > 0.0, name
    assert layers["cli.self_s"] >= 0.0


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "zeros-3000", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
