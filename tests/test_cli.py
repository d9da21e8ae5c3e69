import csv
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from zetaspectra import analysis, cli, spectral
from zetaspectra.cli import ConfigError, RunConfig, main, run, selftest
from zetaspectra.numtheory import MissedZeroError


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "zetaspectra", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def read_csv(path: Path):
    with path.open() as fh:
        return list(csv.DictReader(fh))


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "run" in cp.stdout and "selftest" in cp.stdout


def test_default_run_reproduces_zero_scenario(tmp_path):
    out = tmp_path / "out"
    cp = run_cli("run", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    rows = read_csv(out / "series.csv")
    assert len(rows) == 100
    assert sum(int(float(r["value"])) for r in rows) == 29
    manifest = json.loads((out / "manifest.json").read_text())
    assert [f["name"] for f in manifest["files"]] == [
        "series.csv", "spectrum.csv", "spiral.csv", "peaks.csv",
        "recon.csv", "ratios.csv", "pnt.csv"]
    assert all(c["pass"] for c in manifest["checks"])
    check_names = [c["name"] for c in manifest["checks"]]
    assert "conjugate_symmetry" in check_names
    assert "parseval" in check_names
    assert "periodicity_z1" in check_names
    # data files only go to the out dir; stdout stays clean
    assert cp.stdout == ""


def test_synthetic_train_top_peak(tmp_path):
    out = tmp_path / "out"
    cp = run_cli("run", "--source", "synthetic", "--gap", "10",
                 "--length", "100", "--out", str(out), "--emit", "peaks")
    assert cp.returncode == 0, cp.stderr
    rows = read_csv(out / "peaks.csv")
    assert float(rows[0]["implied_gap"]) == pytest.approx(10.0)


def test_emit_none_writes_manifest_only(tmp_path):
    out = tmp_path / "out"
    cp = run_cli("run", "--out", str(out), "--emit", "none", "--t-max", "30")
    assert cp.returncode == 0, cp.stderr
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == []
    assert all(c["pass"] for c in manifest["checks"])


def test_t_max_where_the_count_estimate_underflows(tmp_path):
    # t_max / 2pi underflows to 0; the run finds no zeros and ends normally
    out = tmp_path / "out"
    cp = run_cli("run", "--out", str(out), "--emit", "none",
                 "--t-max", "1e-323")
    assert cp.returncode == 0, cp.stderr
    assert all(c["pass"] for c in
               json.loads((out / "manifest.json").read_text())["checks"])


def test_emit_subset(tmp_path):
    out = tmp_path / "out"
    cp = run_cli("run", "--out", str(out), "--emit", "series,spiral",
                 "--t-max", "30")
    assert cp.returncode == 0, cp.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "series.csv", "spiral.csv"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert [f["name"] for f in manifest["files"]] == ["series.csv", "spiral.csv"]


def test_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ("run", "--t-max", "50", "--k-terms", "7")
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        if name.endswith(".csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_zero_file_source(tmp_path):
    table = tmp_path / "zeros.txt"
    table.write_text("# three ordinates\n14.134725\n21.022040\n25.010858\n")
    out = tmp_path / "out"
    cp = run_cli("run", "--source", "zeros-file", "--zero-file", str(table),
                 "--out", str(out), "--emit", "series")
    assert cp.returncode == 0, cp.stderr
    rows = read_csv(out / "series.csv")
    marked = [r["index"] for r in rows if float(r["value"]) == 1.0]
    assert marked == ["14", "21", "25"]


def test_zero_file_not_clipped_without_t_max(tmp_path):
    table = tmp_path / "zeros.txt"
    table.write_text("14.134725\n236.524230\n")
    out = tmp_path / "out"
    cp = run_cli("run", "--source", "zeros-file", "--zero-file", str(table),
                 "--out", str(out), "--emit", "series")
    assert cp.returncode == 0, cp.stderr
    rows = read_csv(out / "series.csv")
    assert len(rows) == 238  # grid grows to cover the last ordinate
    marked = [r["index"] for r in rows if float(r["value"]) == 1.0]
    assert marked == ["14", "237"]


def test_prime_source(tmp_path):
    out = tmp_path / "out"
    cp = run_cli("run", "--source", "primes", "--limit", "30",
                 "--out", str(out), "--emit", "series")
    assert cp.returncode == 0, cp.stderr
    rows = read_csv(out / "series.csv")
    marked = [int(r["index"]) for r in rows if float(r["value"]) == 1.0]
    assert marked == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@pytest.mark.parametrize("args, restricted", [
    (("--limit", "10000"), "periodicity check restricted to 6825 of 9974 bins"),
    (("--limit", "1000", "--z", "1,100"), None),
], ids=["primes-1e4", "primes-1e3-z100"])
def test_periodicity_exact_on_prime_runs(args, restricted, tmp_path):
    # a float phase 2 pi (l + zN) k / N put these checks above 1e-9
    out = tmp_path / "out"
    cp = run_cli("run", "--source", "primes", *args, "--out", str(out),
                 "--emit", "none")
    assert cp.returncode == 0, cp.stderr
    checks = json.loads((out / "manifest.json").read_text())["checks"]
    assert all(c["pass"] and c["max_error"] <= 1e-9 for c in checks), checks
    assert all(c["max_error"] == 0.0 for c in checks
               if c["name"].startswith("periodicity_z"))
    lines = [line for line in cp.stderr.splitlines() if "restricted" in line]
    assert lines == ([restricted] if restricted else [])


def test_periodicity_exact_on_every_bin_of_the_zero_scenario(tmp_path):
    # the benchmark's zeros-3000 run: 2205 marks on 3001 bins, all checked
    out = tmp_path / "out"
    cp = run_cli("run", "--t-max", "3000", "--out", str(out), "--emit", "none")
    assert cp.returncode == 0, cp.stderr
    assert "restricted" not in cp.stderr
    checks = json.loads((out / "manifest.json").read_text())["checks"]
    errors = {c["name"]: c["max_error"] for c in checks
              if c["name"].startswith("periodicity_z")}
    assert errors == {"periodicity_z1": 0.0, "periodicity_z2": 0.0,
                      "periodicity_z3": 0.0}


def test_usage_errors_exit_2(tmp_path):
    assert run_cli("run", "--source", "nonsense").returncode == 2
    assert run_cli("run", "--delta", "-1", "--out",
                   str(tmp_path / "x")).returncode == 2
    assert run_cli("run", "--source", "zeros-file", "--out",
                   str(tmp_path / "y")).returncode == 2


@pytest.mark.parametrize("args", [
    ("--source", "synthetic", "--gap", "200", "--length", "50"),
    ("--source", "zeros-file", "--zero-file", "/nonexistent/zeros.txt"),
    ("--source", "zeros-file", "--zero-file", "MALFORMED"),
    ("--t-max", "0.5"),
    ("--k-terms", "500"),
    ("--z", "1,100000000000000000"),
    ("--z", "1,1"),
    ("--t-max", "nan"),
    ("--t-max", "inf"),
    ("--delta", "nan"),
    ("--source", "synthetic", "--gap", "nan"),
    ("--tol", "nan"),
    ("--tol", "inf"),
    ("--source", "zeros-file", "--zero-file", "UNDECODABLE"),
], ids=["gap-beyond-span", "missing-table", "malformed-table", "grid-below-3",
        "k-beyond-grid", "z-beyond-int64", "z-repeated", "t-max-nan",
        "t-max-inf", "delta-nan", "gap-nan", "tol-nan", "tol-inf",
        "undecodable-table"])
def test_bad_input_exits_2_before_any_output(args, tmp_path):
    tables = {"MALFORMED": tmp_path / "zeros.txt",
              "UNDECODABLE": tmp_path / "zeros-utf16.txt"}
    tables["MALFORMED"].write_text("14.1\nnot-a-number\n")
    tables["UNDECODABLE"].write_text("14.1\n", encoding="utf-16")
    args = [str(tables.get(a, a)) for a in args]
    out = tmp_path / "out"
    cp = run_cli("run", *args, "--out", str(out))
    assert cp.returncode == 2
    assert len(cp.stderr.splitlines()) == 1, cp.stderr
    assert cp.stderr.startswith("usage error: ")
    assert not out.exists()


def test_missed_zero_exits_2_before_any_output(tmp_path, monkeypatch, capsys):
    # a height where the scan cannot separate a close pair (a run to
    # t = 30000 meets one near 24000, too slow to run here)
    def missed(t_min, t_max):
        raise MissedZeroError(f"found no zeros in ({t_min}, {t_max}]")

    monkeypatch.setattr(cli, "find_zeros", missed)
    out = tmp_path / "out"
    assert main(["run", "--t-max", "30000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("usage error: ")
    assert not out.exists()


def test_run_config_validation_direct():
    with pytest.raises(ConfigError):
        RunConfig(threshold_fraction=2.0).validate()
    with pytest.raises(ConfigError):
        RunConfig(k_terms="many").validate()
    with pytest.raises(ConfigError):
        RunConfig(emit=("series", "bogus")).validate()
    with pytest.raises(ConfigError):
        RunConfig(z_values=(0,)).validate()
    with pytest.raises(ConfigError):
        RunConfig(tol=0.0).validate()


def test_reconstruct_runs_before_the_csv_writers(tmp_path, monkeypatch):
    # the inverse FFT's temporaries set the run's peak memory; taken before
    # the writers fragment the heap, that peak does not move with the heap
    calls = []

    def spy(name):
        fn = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    writers = [name for name in dir(cli)
               if name.startswith("write_") and name.endswith("_csv")]
    for name in ["reconstruct", *writers]:
        monkeypatch.setattr(cli, name, spy(name))
    assert run(RunConfig(out_dir=str(tmp_path / "out"))) == 0
    assert calls[0] == "reconstruct"
    assert sorted(calls[1:]) == writers


def test_failed_check_exits_1(tmp_path):
    # force a check to fail by tightening the tolerance below roundoff
    config = RunConfig(source="synthetic", gap=10.0, length=100,
                       out_dir=str(tmp_path / "out"), emit=(),
                       tol=1e-300)
    status = run(config)
    assert status == 1
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert any(not c["pass"] for c in manifest["checks"])


def test_selftest_cli():
    cp = run_cli("selftest")
    assert cp.returncode == 0, cp.stdout + cp.stderr
    for suite in ("round_trip", "periodicity", "symmetry", "parseval", "spiral"):
        assert suite in cp.stdout


def test_selftest_runs_twice_identically():
    first = run_cli("selftest")
    second = run_cli("selftest")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def _bumped(spectrum, k):
    """The spectrum with bin k moved by 1e-3."""
    bins = spectrum.bins.copy()
    bins[k] += 1e-3
    return replace(spectrum, bins=bins)


def _spiral_off_its_circle(spectrum):
    x, y = analysis.fermat_spiral(spectrum)
    x[5] += 1e-3
    return x, y


EXACT_DIRECT_BINS = spectral.direct_bins
# each fault is injected into what the suite's detector reads, so the
# detector itself must report it
FAULTS = {
    "round_trip": (cli, "idft", lambda s: spectral.idft(_bumped(s, 3))),
    # each shifted sum taken at l + zN + 1, a shift that is not a multiple of N
    "periodicity": (spectral, "direct_bins",
                    lambda values, indices: EXACT_DIRECT_BINS(
                        values, indices + (indices >= len(values)))),
    "symmetry": (cli, "conjugate_symmetry_check",
                 lambda s: spectral.conjugate_symmetry_check(_bumped(s, 2))),
    "parseval": (cli, "parseval_check",
                 lambda series, s: spectral.parseval_check(series,
                                                           _bumped(s, 4))),
    "spiral": (cli, "fermat_spiral", _spiral_off_its_circle),
}


@pytest.mark.parametrize("suite", list(FAULTS))
def test_selftest_detects_injected_fault(suite, monkeypatch, capsys):
    monkeypatch.setattr(*FAULTS[suite])
    assert selftest() == 1
    out = capsys.readouterr().out
    assert f"selftest FAILED: {suite}\n" in out


def test_cli_import_leaves_scipy_out():
    cp = subprocess.run(
        [sys.executable, "-c",
         "import sys, zetaspectra.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.strip() == "False"
