"""tools/bench.py: compare on small records, record's argument check and
its run header; no benchmark is run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "tools" / "bench.py"


def result(correct=True, **values):
    return {"correct": correct, "attempted": 4, "failed": 0 if correct else 1,
            "metrics": {name: {"value": v, "unit": "s"}
                        for name, v in values.items()}}


def bench_file(path, label, wall, layer, correct=True):
    run = {"commit": label, "workloads": {"zeros-3000": {
        "untraced": result(correct, wall_s=wall, setup_s=0.08),
        "traced": result(**{"numtheory.find_zeros_s": layer,
                            "numtheory.sieve_s": 0.0}),
        "traced_fixed_malloc": result(**{"numtheory.find_zeros_s": layer}),
    }}}
    path.write_text(json.dumps({"runs": {label: run}}))
    return path


def compare(a, b):
    proc = subprocess.run([sys.executable, str(BENCH), "compare", str(a),
                           str(b)], capture_output=True, text=True)
    return proc.returncode, proc.stdout


@pytest.fixture
def parent(tmp_path):
    return bench_file(tmp_path / "a.json", "parent", wall=0.040, layer=0.020)


def test_compare_prints_every_ratio_and_flags_nothing_within_limits(
        parent, tmp_path):
    # wall_s 20% higher is inside its 0.25 bound, a layer 9% slower inside
    # the 10% limit; a time that stays 0 reads as ratio 1
    child = bench_file(tmp_path / "b.json", "change", wall=0.048, layer=0.0218)
    status, out = compare(parent, f"{child}:change")
    assert status == 0, out
    assert "wall_s" in out and " 1.200" in out and " 1.090" in out
    assert "numtheory.sieve_s" in out and out.count("numtheory.find_zeros_s") == 2
    assert "0 flagged" in out


def test_compare_flags_a_bound_a_slower_layer_and_a_correct_flip(
        parent, tmp_path):
    child = bench_file(tmp_path / "b.json", "change", wall=0.052, layer=0.023,
                       correct=False)
    status, out = compare(parent, child)
    assert status == 1
    lines = out.splitlines()
    assert any("wall_s" in ln and ln.endswith("BOUND") for ln in lines)
    assert sum(ln.endswith("SLOWER") for ln in lines) == 2
    assert any("untraced" in ln and ln.endswith("CORRECT") for ln in lines)
    assert "4 flagged" in out


def test_compare_needs_a_label_where_a_file_holds_several(parent, tmp_path):
    data = json.loads(parent.read_text())
    data["runs"]["change"] = data["runs"]["parent"]
    both = tmp_path / "both.json"
    both.write_text(json.dumps(data))
    status, out = compare(f"{both}:parent", f"{both}:change")
    assert status == 0 and "0 flagged" in out
    proc = subprocess.run([sys.executable, str(BENCH), "compare", str(both),
                           f"{both}:change"], capture_output=True, text=True)
    assert proc.returncode != 0 and "FILE:LABEL" in proc.stderr


@pytest.mark.parametrize("labels", [["only"], []])
def test_record_wants_one_label_per_checkout(tmp_path, labels):
    # refused before any benchmark starts, and nothing is written
    out = tmp_path / "BENCH.json"
    roots = ["--root", str(tmp_path)] * (len(labels) + 1)
    proc = subprocess.run(
        [sys.executable, str(BENCH), "record", str(out), *roots,
         *[arg for label in labels for arg in ("--label", label)]],
        capture_output=True, text=True)
    assert proc.returncode != 0 and "one --label per --root" in proc.stderr
    assert not out.exists()


def test_checkout_records_every_thread_variable_the_jobs_inherit(
        tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for var in bench.THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    header = bench.checkout(tmp_path)
    assert {var: header[var] for var in bench.THREAD_VARS} == {
        "OPENBLAS_NUM_THREADS": None, "GOTO_NUM_THREADS": None,
        "OMP_NUM_THREADS": "2"}
