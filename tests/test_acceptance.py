"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values marked "oracle" were computed with independent
references (multiprecision zeta/zero values, trial division, brute-force
transform sums) before the implementation and frozen here.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from zetaspectra import (build_series, detect_peaks, dft, dft_direct,
                         fermat_spiral, find_zeros, frequency_ratio_series,
                         parseval_check, periodicity_check, pnt_ratio,
                         reconstruct, riemann_siegel_Z)

from conftest import ZEROS_BELOW_100, random_indicator, series_from_values


def verdict(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_zero_finder():
    start = time.monotonic()
    found = find_zeros(0.0, 100.0)
    worst = max(abs(g - w) for g, w in zip(found.events, ZEROS_BELOW_100))
    counts_ok = True
    for t_max, true_count in ((30.0, 3), (100.0, 29), (500.0, 269)):
        counts_ok &= len(find_zeros(0.0, t_max)) == true_count
    elapsed = time.monotonic() - start
    verdict("1 zero finder", len(found) == 29 and worst < 1e-6 and counts_ok
            and elapsed < 10.0,
            f"29 zeros, max dev {worst:.2e}, {elapsed:.1f}s")


@pytest.mark.parametrize("n", [4, 16, 128, 1000])
def test_criterion_02_transform_fidelity(n):
    series = random_indicator(n, np.random.default_rng(100 + n))
    fast = dft(series).bins
    direct = dft_direct(series.values, series.grid).bins
    worst = float(np.max(np.abs(fast - direct)))
    verdict(f"2 fast path vs direct sum (N={n})", worst < 1e-9,
            f"max bin dev {worst:.2e}")


def test_criterion_03_periodicity():
    rng = np.random.default_rng(300)
    worst = 0.0
    for n in (32, 101, 256):
        series = random_indicator(n, rng)
        for report in periodicity_check(series, [1, 2, 3], tol=1e-9):
            worst = max(worst, report.max_abs_diff)
            assert report.max_abs_diff < report.tol
    verdict("3 shifted-argument periodicity", worst < 1e-9,
            f"max |X(nu+zN)-X(nu)| {worst:.2e}")


def test_criterion_04_conjugate_symmetry(zeros100_series):
    spec = dft(zeros100_series)
    amp = spec.amplitudes
    worst = max(abs(amp[l] - amp[100 - l]) for l in range(1, 100))
    verdict("4 conjugate symmetry on the zero scenario", worst < 1e-9,
            f"max asymmetry {worst:.2e}")


def test_criterion_05_reconstruction(zeros100_series):
    spec = dft(zeros100_series)
    values = zeros100_series.values
    full = float(np.max(np.abs(reconstruct(spec, "all") - values)))
    residuals = [float(np.sqrt(np.mean((reconstruct(spec, k) - values) ** 2)))
                 for k in (1, 5, 10, 25, 50, 100)]
    monotone = all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
    verdict("5 full reconstruction + monotone residual",
            full < 1e-9 and monotone,
            f"full residual {full:.2e}, "
            f"rms by k {['%.3f' % r for r in residuals]}")


def test_criterion_06_peak_gap():
    values = np.zeros(100)
    values[::10] = 1.0
    spec = dft(series_from_values(values))
    f = spec.frequencies[detect_peaks(spec)[0]]
    ok = abs(1.0 / f - 10.0) <= 1.0 / (0.1 - spec.freq_step) - 10.0
    verdict("6 impulse-train peak gap", ok and f == pytest.approx(0.1),
            f"top peak f={f}, gap={1.0 / f}")


def test_criterion_07_ratios_and_pnt():
    spec = dft(random_indicator(1000, np.random.default_rng(700)))
    t = np.arange(1, 999)
    ratio_dev = float(np.max(np.abs(frequency_ratio_series(spec)
                                    - (t + 1) / t)))
    # trial-division oracle values, frozen
    oracle = {10 ** 3: 1.160502886868999, 10 ** 4: 1.131950831715873,
              10 ** 5: 1.1043198105999443, 10 ** 6: 1.0844899477790797}
    values = [pnt_ratio(x) for x in sorted(oracle)]
    pnt_ok = all(abs(v - oracle[x]) < 1e-6
                 for v, x in zip(values, sorted(oracle)))
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    verdict("7 frequency ratios + prime-counting analogy",
            ratio_dev < 1e-12 and pnt_ok and decreasing,
            f"ratio dev {ratio_dev:.1e}, pnt {['%.4f' % v for v in values]}")


def test_criterion_08_spiral(zeros100_series):
    spec = dft(zeros100_series)
    x, y = fermat_spiral(spec)
    worst = float(np.max(np.abs(x ** 2 + y ** 2 - spec.frequencies ** 2)))
    increasing = bool(np.all(np.diff(np.hypot(x, y)) > 0))
    verdict("8 spiral identity", worst < 1e-12 and increasing,
            f"max |x^2+y^2-f^2| {worst:.2e}")


def test_criterion_09_parseval_and_dc(zeros100_series):
    spec = dft(zeros100_series)
    rel_error = parseval_check(zeros100_series, spec)
    dc_exact = spec.bins[0] == complex(zeros100_series.mark_count)
    verdict("9 Parseval + DC count", rel_error < 1e-9 and dc_exact,
            f"rel err {rel_error:.2e}, DC {spec.bins[0].real:.0f}")


def test_criterion_10_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        cp = subprocess.run(
            [sys.executable, "-m", "zetaspectra", "run", "--t-max", "100",
             "--out", str(out)],
            capture_output=True, text=True)
        assert cp.returncode == 0, cp.stderr
        outs.append(out)
    identical = True
    for path in sorted(outs[0].iterdir()):
        if path.suffix == ".csv":
            identical &= path.read_bytes() == (outs[1] / path.name).read_bytes()
    verdict("10 byte-identical reruns", identical)
