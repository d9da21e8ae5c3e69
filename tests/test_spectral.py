import math

import numpy as np
import pytest

from zetaspectra import (GridSpec, Spectrum, amplitude_phase,
                         conjugate_symmetry_check, dft, dft_direct, idft,
                         parseval_check, periodicity_check, spectral)
from zetaspectra.spectral import _bin_block, direct_bins

from conftest import random_indicator, series_from_values
from oracles import dft_brute, idft_brute


def spectrum_from_bins(bins, delta=1.0):
    bins = np.asarray(bins, dtype=complex)
    grid = GridSpec(delta=delta, length=bins.size)
    return Spectrum(bins=bins, freq_step=1.0 / (bins.size * delta),
                    source_grid=grid)


# ---------------------------------------------------------------------------
# Forward transform
# ---------------------------------------------------------------------------

def test_dft_unit_impulse_at_origin():
    series = series_from_values([1, 0, 0, 0, 0, 0, 0, 0])
    spec = dft(series)
    assert np.allclose(spec.bins, np.ones(8), atol=1e-12)


def test_dft_all_zero():
    series = series_from_values(np.zeros(16))
    assert np.all(dft(series).bins == 0)


def test_dft_four_point_case():
    series = series_from_values([1, 0, 1, 0])
    spec = dft(series)
    assert np.allclose(spec.bins, [2, 0, 2, 0], atol=1e-12)
    # brute-force double loop agrees
    assert np.allclose(spec.bins, dft_brute([1, 0, 1, 0]), atol=1e-12)


@pytest.mark.parametrize("n", [4, 16, 128, 1000])
def test_fast_path_matches_direct_sum(n):
    series = random_indicator(n, np.random.default_rng(n))
    fast = dft(series).bins
    direct = dft_direct(series.values, series.grid).bins
    assert np.max(np.abs(fast - direct)) < 1e-9


def test_both_paths_match_brute_oracle():
    series = random_indicator(32, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    brute = dft_brute(list(series.values))
    assert np.max(np.abs(dft(series).bins - brute)) < 1e-9
    # the literal sum also takes weights other than 1, of both signs, with
    # zeros between them
    weighted = rng.normal(scale=3.0, size=32) * (rng.random(32) < 0.4)
    for values in (series.values, weighted):
        brute = dft_brute(list(values))
        assert np.max(np.abs(dft_direct(values, series.grid).bins - brute)) < 1e-9


def test_direct_bins_matches_fft_and_repeats_at_shifted_indices():
    n = 45
    rng = np.random.default_rng(n)
    values = rng.normal(scale=3.0, size=n) * (rng.random(n) < 0.4)
    l = np.unique(np.linspace(0, n - 1, 40).astype(int))
    assert np.max(np.abs(direct_bins(values, l) - np.fft.fft(values)[l])) < 1e-9
    for shifted in (l + 7 * n, l - 2 * n, (l + 10 ** 9 * n).astype(float)):
        assert np.array_equal(direct_bins(values, shifted),
                              direct_bins(values, l))


def _requested(kind, n, rng):
    if kind == "all":
        return np.arange(n)
    if kind == "unsorted-with-duplicates":
        return rng.permutation(np.concatenate([np.arange(n),
                                               rng.integers(0, n, 30)]))
    if kind == "every-tenth":
        return np.arange(0, n, 10)
    return np.array([n // 3])  # a single bin


# N = 101 is prime and N = 100 composite; neither is a multiple of the
# block size 8 that both get, so the last block runs past N - 1.
@pytest.mark.parametrize("n", [101, 100])
@pytest.mark.parametrize("kind, blocked", [
    ("all", True), ("unsorted-with-duplicates", True),
    ("every-tenth", False), ("single", False)])
def test_direct_bins_in_both_block_regimes(n, kind, blocked, monkeypatch):
    rng = np.random.default_rng(n)
    indices = _requested(kind, n, rng)
    sizes = []

    def spy(*args):
        sizes.append(_bin_block(*args))
        return sizes[-1]

    monkeypatch.setattr(spectral, "_bin_block", spy)
    weighted = rng.normal(scale=3.0, size=n) * (rng.random(n) < 0.4)
    assert weighted.min() < 0.0 < weighted.max()
    for values in (weighted, np.zeros(n)):
        got = direct_bins(values, indices)
        assert (sizes[-1] > 1) == blocked, sizes
        assert n % sizes[-1] or not blocked
        assert np.max(np.abs(got - np.fft.fft(values)[indices])) < 1e-9
        brute = np.array(dft_brute(list(values)))
        assert np.max(np.abs(got - brute[indices])) < 1e-9
        for shifted in (indices + 7 * n, indices - 2 * n,
                        (indices + 10 ** 9 * n).astype(float)):
            assert np.array_equal(direct_bins(values, shifted), got)
            assert (sizes[-1] > 1) == blocked, sizes


# The CLI's periodicity check asks for its bins and their shifts by 1, 2 and
# 3 N in one request; every shift reduces onto the base bins, so four indices
# share each block and the sparse requests at 1e5 and 1e6 are blocked too
# (B = 64 and 8).
@pytest.mark.parametrize("n, marks, count, blocked", [
    (3001, 2205, 3001, True),  # run --t-max 3000
    (9974, 1229, 6825, True),  # --source primes --limit 1e4
    (99992, 9592, 874, True),  # --limit 1e5
    (999984, 78498, 106, True),  # --limit 1e6
])
def test_block_size_at_the_cli_requests(n, marks, count, blocked):
    bins = np.unique(np.linspace(0, n - 1, count).astype(int))
    request = np.concatenate([bins + z * n for z in range(4)])
    b = _bin_block(request % n, n, marks)
    assert (b > 1) == blocked
    assert b & (b - 1) == 0 and b * marks <= 2 ** 20


@pytest.mark.parametrize("indices", [[0.5], [1, 2.25], [np.nan], [2.0 ** 64]])
def test_direct_bins_rejects_non_integer_indices(indices):
    with pytest.raises(ValueError):
        direct_bins(np.ones(8), indices)


def test_frequency_axis():
    series = random_indicator(50, np.random.default_rng(3))
    spec = dft(series)
    n, delta = 50, 1.0
    assert spec.freq_step == 1.0 / (n * delta)
    # frequencies are l * freq_step by construction
    assert np.array_equal(spec.frequencies,
                          spec.freq_step * np.arange(n, dtype=float))
    assert np.allclose(np.diff(spec.frequencies), spec.freq_step, rtol=1e-15)


def test_frequency_axis_respects_delta():
    series = random_indicator(40, np.random.default_rng(4))
    series = series_from_values(series.values, delta=0.25)
    spec = dft(series)
    assert spec.freq_step == pytest.approx(1.0 / (40 * 0.25))


def test_dft_linearity():
    # disjoint marks, so that a + b is an indicator series too
    rng = np.random.default_rng(17)
    for _ in range(5):
        a = (rng.random(64) < 0.2).astype(float)
        b = (rng.random(64) < 0.2) * (1.0 - a)
        lhs = dft(series_from_values(a + b)).bins
        rhs = dft(series_from_values(a)).bins + dft(series_from_values(b)).bins
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_dc_bin_counts_marks(zeros100_series):
    spec = dft(zeros100_series)
    assert spec.bins[0].real == float(zeros100_series.mark_count)
    assert spec.bins[0].imag == 0.0


def test_parseval(zeros100_series):
    spec = dft(zeros100_series)
    report = parseval_check(zeros100_series, spec)
    assert report.passed
    assert report.time_energy == float(zeros100_series.mark_count)
    assert report.rel_error < 1e-9


# ---------------------------------------------------------------------------
# Inverse transform
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [8, 64, 97, 256])
def test_round_trip(n):
    series = random_indicator(n, np.random.default_rng(n + 1))
    back = idft(dft(series))
    assert np.max(np.abs(back - series.values)) < 1e-9


def test_idft_all_zero_spectrum():
    spec = spectrum_from_bins(np.zeros(8))
    assert np.all(idft(spec) == 0)


def test_idft_four_point_case():
    spec = spectrum_from_bins([2, 0, 2, 0])
    assert np.allclose(idft(spec), [1, 0, 1, 0], atol=1e-12)
    assert np.allclose(idft_brute([2, 0, 2, 0]), [1, 0, 1, 0], atol=1e-12)


def test_idft_imag_residue_small_for_real_series():
    series = random_indicator(81, np.random.default_rng(9))
    # what idft discards
    residue = np.max(np.abs(np.fft.ifft(dft(series).bins).imag))
    assert residue < 1e-9


# ---------------------------------------------------------------------------
# Polar decomposition
# ---------------------------------------------------------------------------

def test_amplitude_phase_units():
    spec = spectrum_from_bins([1 + 0j, -2j, 0j])
    amplitude, phase = amplitude_phase(spec)
    assert amplitude[0] == 1.0 and phase[0] == 0.0
    assert amplitude[1] == 2.0
    assert phase[1] == pytest.approx(-math.pi / 2)
    assert amplitude[2] == 0.0 and phase[2] == 0.0


def test_amplitude_phase_reproduces_bins():
    series = random_indicator(60, np.random.default_rng(21))
    spec = dft(series)
    for value, amp, phase in zip(spec.bins, *amplitude_phase(spec)):
        assert abs(amp * np.exp(1j * phase) - value) < 1e-12
        assert -math.pi < phase <= math.pi


def test_phase_range_half_open():
    _, phases = amplitude_phase(spectrum_from_bins([-1 + 0j, complex(-1, -0.0)]))
    for phase in phases:
        assert phase == pytest.approx(math.pi)
        assert phase > -math.pi


def test_amplitude_phase_columns_equal_per_bin_math():
    # The printed cells depend on these bits: np.abs and np.arctan2 differ
    # from abs() and math.atan2 in the last place on many bins.
    rng = np.random.default_rng(10 ** 4)
    bins = rng.normal(size=10 ** 4) + 1j * rng.normal(size=10 ** 4)
    bins[:4] = [0j, complex(-0.0, 0.0), -1 + 0j, complex(-1, -0.0)]
    want_amp, want_phase = [], []
    for value in bins.tolist():
        phase = math.atan2(value.imag, value.real) if abs(value) else 0.0
        want_amp.append(abs(value))
        want_phase.append(math.pi if phase == -math.pi else phase)
    amplitude, phase = amplitude_phase(spectrum_from_bins(bins))
    assert np.array_equal(amplitude, want_amp)
    assert np.array_equal(phase, want_phase)


# ---------------------------------------------------------------------------
# Periodicity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("z", [1, 3, 10 ** 9])
def test_periodicity_random_series(z):
    series = random_indicator(101, np.random.default_rng(31))
    (report,) = periodicity_check(series, [z])
    assert report.passed
    assert report.max_abs_diff < 1e-9
    assert report.max_abs_diff == 0.0  # exact phases: equal bit for bit


def test_periodicity_impulse_n8_z2():
    series = series_from_values([0, 0, 0, 1, 0, 0, 0, 0])
    (report,) = periodicity_check(series, [2], tol=1e-12)
    assert report.max_abs_diff < 1e-12


def test_periodicity_multiple_z():
    series = random_indicator(64, np.random.default_rng(41))
    reports = periodicity_check(series, [1, 2, 3])
    assert [r.z for r in reports] == [1, 2, 3]
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_checks_reject_a_tolerance_not_positive_and_finite(tol):
    series = series_from_values([0, 0, 0, 1, 0, 0, 0, 1])
    spectrum = dft(series)
    with pytest.raises(ValueError, match="tol"):
        periodicity_check(series, [1], tol=tol)
    with pytest.raises(ValueError, match="tol"):
        conjugate_symmetry_check(spectrum, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        parseval_check(series, spectrum, tol=tol)


def test_periodicity_rejects_bad_args():
    series = random_indicator(16, np.random.default_rng(1))
    with pytest.raises(ValueError):
        periodicity_check(series, [0])
    with pytest.raises(ValueError):
        periodicity_check(series, [1], tol=0.0)
    # the identity holds for integer shift multiples only
    with pytest.raises(ValueError):
        periodicity_check(series, [2.5])
    with pytest.raises(ValueError):
        periodicity_check(series, [1, 3.001])
    with pytest.raises(ValueError):
        periodicity_check(series, [1], bins=np.array([0.5]))
    with pytest.raises(ValueError):  # z * N beyond int64
        periodicity_check(series, [2 ** 62])


def test_periodicity_without_shifts_sums_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(spectral, "direct_bins",
                        lambda *args: calls.append(args))
    series = random_indicator(64, np.random.default_rng(42))
    assert periodicity_check(series, []) == []
    assert calls == []


def test_periodicity_sums_base_and_shifts_in_one_call(monkeypatch):
    calls = []
    exact = spectral.direct_bins

    def spy(values, indices):
        calls.append(np.array(indices))
        return exact(values, indices)

    monkeypatch.setattr(spectral, "direct_bins", spy)
    series = random_indicator(64, np.random.default_rng(43))
    reports = periodicity_check(series, [1, 2, 3])
    assert [r.max_abs_diff for r in reports] == [0.0, 0.0, 0.0]
    (indices,) = calls
    assert np.array_equal(indices, np.arange(4 * 64))


def test_periodicity_bin_subset():
    series = random_indicator(128, np.random.default_rng(51))
    (report,) = periodicity_check(series, [2], bins=np.array([0, 5, 63, 127]))
    assert report.passed
    # bins beyond 0..N-1, up to the int64 limit, where l + z*N would wrap
    series = random_indicator(101, np.random.default_rng(52))
    far = np.array([np.iinfo(np.int64).max - 1, -7, 250])
    (report,) = periodicity_check(series, [3], bins=far)
    assert report.passed and report.max_abs_diff == 0.0
    # no bins at all: nothing differs
    (report,) = periodicity_check(series, [1], bins=[])
    assert report.passed and report.max_abs_diff == 0.0


# ---------------------------------------------------------------------------
# Conjugate symmetry
# ---------------------------------------------------------------------------

def test_symmetry_real_series():
    series = random_indicator(90, np.random.default_rng(61))
    report = conjugate_symmetry_check(dft(series))
    assert report.passed
    assert report.max_asymmetry < 1e-9


def test_symmetry_four_point_case():
    report = conjugate_symmetry_check(spectrum_from_bins([2, 0, 2, 0]))
    assert report.max_asymmetry == 0.0


def test_symmetry_detects_perturbation():
    series = random_indicator(64, np.random.default_rng(71))
    bins = dft(series).bins.copy()
    bins[5] += 1e-3
    report = conjugate_symmetry_check(spectrum_from_bins(bins))
    assert not report.passed
    assert report.max_asymmetry == pytest.approx(
        abs(abs(bins[5]) - abs(bins[64 - 5])), rel=1e-12)
