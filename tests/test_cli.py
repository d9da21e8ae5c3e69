import ast
import csv
import json
import math
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from zetaspectra import (EventSequence, GridSpec, MangoldtSeries, Spectrum,
                         analysis, build_series, cli, dft, dft_direct,
                         spectral)
from zetaspectra.cli import RunConfig, main, run, selftest
from zetaspectra.numtheory import DomainError, MissedZeroError, ZeroTableError


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


def test_manifest_records_the_python_version(tmp_path):
    # read from sys.version, from which platform.python_version() parses it
    out = tmp_path / "out"
    cp = run_cli("run", "--out", str(out), "--emit", "none", "--t-max", "30")
    assert cp.returncode == 0, cp.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["versions"]["python"] == platform.python_version()


def test_t_max_next_to_the_least_float(tmp_path):
    # t_max = 1e-323, a subnormal: the run finds no zeros and ends normally
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


# all bins while N x marks <= 2^25, else the last 2^25 // marks: 9974 x 1229
# marks fit, 99992 x 9592 do not, and 2^25 // 9592 = 3498
@pytest.mark.parametrize("args, restricted", [
    (("--limit", "10000"), None),
    (("--limit", "100000"),
     "periodicity check restricted to 3498 of 99992 bins"),
    (("--limit", "1000", "--z", "1,100"), None),
], ids=["primes-1e4", "primes-1e5", "primes-1e3-z100"])
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
    ("--source", "primes", "--limit", "10", "--delta", "1e-320"),
    ("--source", "synthetic", "--gap", "1e-300"),
    ("--source", "primes", "--limit", "100000000000000000000", "--delta",
     "1e11"),
    ("--t-max", "1e15", "--delta", "1e6"),
    # argparse's own errors take the same path as a refused configuration
    ("--source", "nonsense"),
    ("--limit", "2.5"),
    ("--z", "1,x"),
    ("--k-terms", "2.5"),
    ("--bogus",),
    (),  # no subcommand at all: no help dump, one line
], ids=["gap-beyond-span", "missing-table", "malformed-table", "grid-below-3",
        "k-beyond-grid", "z-beyond-int64", "z-repeated", "t-max-nan",
        "t-max-inf", "delta-nan", "gap-nan", "tol-nan", "tol-inf",
        "undecodable-table", "grid-length-infinite", "train-beyond-array",
        "limit-beyond-array", "t-max-past-rosser", "source-unknown",
        "limit-not-int", "z-not-int", "k-not-int", "option-unknown",
        "no-command"])
def test_bad_input_exits_2_before_any_output(args, tmp_path):
    # a grid coarse enough to pass leaves these two to their own rules
    rule = {("--delta", "1e11"): "sieve limit",
            ("--delta", "1e6"): "Rosser's rule"}.get(args[-2:], "")
    tables = {"MALFORMED": tmp_path / "zeros.txt",
              "UNDECODABLE": tmp_path / "zeros-utf16.txt"}
    tables["MALFORMED"].write_text("14.1\nnot-a-number\n")
    tables["UNDECODABLE"].write_text("14.1\n", encoding="utf-16")
    args = [str(tables.get(a, a)) for a in args]
    out = tmp_path / "out"
    cp = run_cli(*(["run", *args, "--out", str(out)] if args else []))
    assert cp.returncode == 2
    assert len(cp.stderr.splitlines()) == 1, cp.stderr
    assert cp.stderr.startswith("usage error: ") and rule in cp.stderr
    assert not out.exists()


def test_the_library_owns_the_rules_run_refuses_after_the_fft():
    # run states none of these rules itself: the k-beyond-grid,
    # z-beyond-int64 and grid-below-3 cases above exit 2 through these
    # DomainErrors, which main maps like a refused configuration
    series = build_series(EventSequence(np.array([3.0, 50.0])),
                          GridSpec(delta=1.0, length=100))
    spectrum = dft(series)
    with pytest.raises(DomainError, match="k_terms"):
        analysis.reconstruct(spectrum, 101)
    with pytest.raises(DomainError, match="overflows int64"):
        spectral.periodicity_check(series, [2 ** 62])
    two = dft(build_series(EventSequence(np.array([1.0])),
                           GridSpec(delta=1.0, length=2)))
    with pytest.raises(DomainError, match="3 bins"):
        analysis.frequency_ratio_series(two)


GRID4 = GridSpec(delta=1.0, length=4)


@pytest.mark.parametrize("refuse", [
    lambda: GridSpec(delta=math.nan, length=4),
    lambda: MangoldtSeries(values=[0.0, 0.5, 1.0, 0.0], grid=GRID4),
    lambda: EventSequence(np.array([2.0, 1.0])),
    lambda: Spectrum(bins=np.zeros(3), source_grid=GRID4),
    lambda: dft_direct(np.zeros(3), GRID4),
    lambda: analysis.detect_peaks(Spectrum(np.ones(4), GRID4), 2.0),
    lambda: analysis.pnt_ratio(math.nan),
    lambda: analysis.pnt_ratio(math.inf),
    lambda: analysis.pnt_ratio(math.inf, 5),
    lambda: analysis.pnt_ratio(100, -1),
    lambda: analysis.pnt_ratio(100, 25.0),
], ids=["grid-delta-nan", "series-value-half", "events-decreasing",
        "spectrum-bin-count", "dft-direct-length", "peaks-threshold",
        "pnt-x-nan", "pnt-x-inf", "pnt-x-inf-count", "pnt-count-negative",
        "pnt-count-float"])
def test_every_library_refusal_is_a_domain_error(refuse):
    # these were bare ValueErrors (or, for pnt_ratio, an OverflowError, a
    # NaN returned or a bad count accepted), which main did not map to exit 2
    with pytest.raises(DomainError):
        refuse()


def test_a_zero_table_error_is_a_domain_error():
    assert issubclass(ZeroTableError, DomainError)


def test_every_raise_under_src_is_one_main_maps_to_exit_2():
    # main catches DomainError (ZeroTableError is one), MissedZeroError and
    # OSError; ArgumentTypeError is argparse's type hook, which ends in
    # _Parser.error. Any other raise would reach the user as a traceback.
    allowed = {"DomainError", "ZeroTableError", "MissedZeroError",
               "ArgumentTypeError"}
    raised = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                exc = getattr(node.exc, "func", node.exc)  # X(...) or X
                name = getattr(exc, "id", getattr(exc, "attr", None))
                raised.append((path.name, node.lineno, name))
    assert raised
    assert [r for r in raised if r[2] not in allowed] == []


@pytest.mark.parametrize("blocker", ["series.csv", "out"],
                         ids=["file-is-a-directory", "out-is-a-file"])
def test_an_unwritable_path_exits_2_without_a_traceback(blocker, tmp_path):
    # series.csv pre-made as a directory cannot be opened for writing, and a
    # regular file named like the output directory cannot be made one
    out = tmp_path / "out"
    if blocker == "out":
        out.write_text("")
    else:
        (out / blocker).mkdir(parents=True)
    cp = run_cli("run", "--t-max", "30", "--out", str(out))
    assert cp.returncode == 2
    # the run's two log lines come first, then the one error line
    lines = cp.stderr.splitlines()
    assert len(lines) == 3 and "Traceback" not in cp.stderr, cp.stderr
    assert lines[-1].startswith("usage error: ") and str(out) in lines[-1]


class SeriesBuilt(Exception):
    pass


def _no_series(*args, **kwargs):
    raise SeriesBuilt


@pytest.mark.parametrize("args, option", [
    (("--delta", "1e-300"), "delta"),
    (("--t-max", "100000", "--delta", "1e-300"), "delta"),
    (("--source", "primes", "--limit", "10", "--delta", "1e-300"), "delta"),
    (("--source", "primes", "--limit", "10000000000"), "delta"),
    (("--source", "synthetic", "--gap", "1", "--t-max", "1e10"), "delta"),
    (("--source", "primes", "--limit", "10", "--length", "3037000500"),
     "length"),
    (("--source", "synthetic", "--gap", "1", "--length", "3037000500"),
     "length"),
], ids=["delta", "zeros-delta", "primes-delta", "primes-limit",
        "synthetic-t-max", "primes-length", "synthetic-length"])
def test_a_grid_too_long_is_refused_before_any_allocation(args, option,
                                                         tmp_path,
                                                         monkeypatch, capsys):
    # more than isqrt(2^63 - 1) samples: the literal sum's phases would
    # leave int64. GridSpec's refusal names the grid, not the --z values,
    # and comes before any zero, prime or train (GBs here) is made. Left
    # unpatched, a run that missed it would sieve or fill gigabytes.
    for builder in ("find_zeros", "sieve_primes", "synthetic_train",
                    "build_series"):
        monkeypatch.setattr(cli, builder, _no_series)
    out = tmp_path / "out"
    assert main(["run", *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("usage error: ") and option in err
    assert "3037000499" in err and "z values" not in err
    assert not out.exists()


def test_the_longest_grid_passes_to_the_series(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "build_series", _no_series)
    with pytest.raises(SeriesBuilt):
        main(["run", "--source", "primes", "--limit", "10", "--length",
              "3037000499", "--out", str(tmp_path / "out")])


def test_missed_zero_exits_2_before_any_output(tmp_path, monkeypatch, capsys):
    # a finder that cannot account for every zero, say a Gram block that
    # stays short after every halving or shows more sign changes than
    # intervals; stubbed, since none is in reach
    def missed(t_min, t_max, delta=None):
        raise MissedZeroError(f"found no zeros in ({t_min}, {t_max}]")

    monkeypatch.setattr(cli, "find_zeros", missed)
    out = tmp_path / "out"
    assert main(["run", "--t-max", "30000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("usage error: ")
    assert not out.exists()


def test_run_config_validation_direct():
    with pytest.raises(DomainError):
        RunConfig(threshold_fraction=2.0).validate()
    with pytest.raises(DomainError):
        RunConfig(k_terms="many").validate()
    with pytest.raises(DomainError):
        RunConfig(emit=("series", "bogus")).validate()
    with pytest.raises(DomainError):
        RunConfig(z_values=(0,)).validate()
    # the checks take no tolerance: validate alone refuses a bad one
    for tol in (0.0, math.nan, math.inf, -1.0):
        with pytest.raises(DomainError, match="tol"):
            RunConfig(tol=tol).validate()
    # one positive-and-finite test per float field, named in the message
    for field, value in [("t_max", 0.0), ("t_max", math.inf), ("gap", -1.0),
                         ("delta", 0.0)]:
        with pytest.raises(DomainError, match=field.replace("_", "-")):
            RunConfig(**{field: value}).validate()
    # 2.7 terms ran as 2, a limit of 100.5 sieved to 100, and z = 1.5 or a
    # length of 100.5 raised after the output directory existed
    for field, value in [("k_terms", 2.7), ("k_terms", True),
                         ("k_terms", "2.5"), ("limit", 100.5),
                         ("limit", True), ("z_values", (1.5,)),
                         ("z_values", (1, True)), ("length", 100.5)]:
        with pytest.raises(DomainError, match="integer"):
            RunConfig(**{field: value}).validate()
    # numpy integers pass, and the manifest echoes them as ints
    config = RunConfig(limit=np.int64(100), k_terms=np.int32(5),
                       z_values=(np.int64(2),), length=np.int64(50))
    config.validate()
    values = (config.limit, config.k_terms, *config.z_values, config.length)
    assert [(v, type(v)) for v in values] == [(100, int), (5, int), (2, int),
                                              (50, int)]


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


def _refuse_constant(token):
    raise ValueError(f"not JSON: {token}")


@pytest.mark.parametrize("error, status", [
    (math.nan, 1), (RunConfig.tol, 1), (0.5 * RunConfig.tol, 0),
], ids=["nan", "tol", "half-tol"])
def test_the_cli_decides_each_verdict_as_error_below_tol(error, status,
                                                         tmp_path,
                                                         monkeypatch, capsys):
    # the checks return their errors; a NaN and an error equal to the
    # tolerance both fail, because the comparison is a strict err < tol
    monkeypatch.setattr(cli, "parseval_check", lambda series, spectrum: error)
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), "--emit", "none"]) == status
    # strict JSON: a NaN error is written as null, not as the bare token NaN
    checks = json.loads((out / "manifest.json").read_text(),
                        parse_constant=_refuse_constant)["checks"]
    (parseval,) = [c for c in checks if c["name"] == "parseval"]
    assert parseval["pass"] is (status == 0)
    assert parseval["max_error"] == (None if math.isnan(error) else error)
    assert all(c["pass"] for c in checks if c is not parseval)
    failed = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("CHECK FAILED")]
    assert failed == ([] if status == 0 else
                      [f"CHECK FAILED: parseval max_error {error:.3e} "
                       f"(tol {RunConfig.tol})"])


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
    "round_trip": (cli, "reconstruct",
                   lambda s: analysis.reconstruct(_bumped(s, 3))),
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
