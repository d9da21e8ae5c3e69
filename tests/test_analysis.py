import math

import numpy as np
import pytest

from zetaspectra import (DomainError, EventSequence, GridSpec, Spectrum,
                         build_series, detect_peaks, dft, find_zeros,
                         fermat_spiral, frequency_ratio_series, pnt_ratio,
                         reciprocal_series, reconstruct, sieve_primes)

from conftest import random_indicator, series_from_values
from oracles import dft_brute, prime_powers, trial_division_primes

# pi(x) * ln(x) / x from the trial-division oracle, frozen
PNT_ORACLE = {
    10 ** 3: 1.160502886868999,
    10 ** 4: 1.131950831715873,
    10 ** 5: 1.1043198105999443,
    10 ** 6: 1.0844899477790797,
}


def impulse_train(n, gap, delta=1.0):
    values = np.zeros(n)
    values[::gap] = 1.0
    return series_from_values(values, delta=delta)


# ---------------------------------------------------------------------------
# Frequency ratios
# ---------------------------------------------------------------------------

def test_ratio_first_is_two():
    spec = dft(random_indicator(32, np.random.default_rng(1)))
    assert frequency_ratio_series(spec)[0] == 2.0


def test_ratio_at_t_50():
    spec = dft(random_indicator(64, np.random.default_rng(2)))
    ratios = frequency_ratio_series(spec)
    assert ratios[49] == pytest.approx(51 / 50)
    assert ratios[49] == pytest.approx(1.02)


def test_ratio_edge_n_1000():
    spec = dft(random_indicator(1000, np.random.default_rng(3)))
    ratios = frequency_ratio_series(spec)
    # the pair t = 499 ends at the half-spectrum edge bin N//2 = 500
    assert ratios[498] == 500 / 499
    assert ratios[498] == pytest.approx(1.002004008, abs=1e-9)
    # the two readings of the top frequency: the Nyquist bin and the last bin
    f = spec.frequencies
    assert f[500] / f[499] == pytest.approx(ratios[498])
    assert f[999] / f[499] == pytest.approx(999 / 499)


def test_ratio_identity_exact():
    spec = dft(random_indicator(200, np.random.default_rng(4)))
    ratios = frequency_ratio_series(spec)
    t = np.arange(1, 199)
    assert ratios.shape == t.shape
    assert np.max(np.abs(ratios - (t + 1) / t)) < 1e-12


def test_ratio_needs_three_bins():
    with pytest.raises(ValueError):
        frequency_ratio_series(dft(series_from_values([1, 0])))


# ---------------------------------------------------------------------------
# Reciprocals
# ---------------------------------------------------------------------------

def test_reciprocal_simple():
    spec = dft(random_indicator(100, np.random.default_rng(5)))
    recips = reciprocal_series(spec)
    assert recips.shape == (99,)
    # f_10 = 0.1 on the unit grid of 100 samples
    assert recips[9] == pytest.approx(10.0)
    assert recips[24] == pytest.approx(4.0)  # t=25: 1/(25/100)


def test_reciprocal_edge_is_two_on_unit_grid():
    spec = dft(random_indicator(100, np.random.default_rng(6)))
    recips = reciprocal_series(spec)
    assert recips[49] == 2.0  # t = N//2 = 50: 2/f_s
    assert recips[-1] == pytest.approx(100 / 99)  # the last bin nears 1/f_s


def test_reciprocal_tracks_delta():
    series = series_from_values(impulse_train(64, 8).values, delta=0.5)
    recips = reciprocal_series(dft(series))
    assert recips[31] == 1.0  # 2 * delta
    assert recips[-1] == pytest.approx(0.5 * 64 / 63)


# ---------------------------------------------------------------------------
# Spiral
# ---------------------------------------------------------------------------

def test_spiral_named_angles():
    # quarter-turn frequency grid: f_l = l * pi/2
    bins = np.zeros(4, dtype=complex)
    grid = GridSpec(delta=2.0 / (4.0 * math.pi), length=4)
    spec = Spectrum(bins=bins, source_grid=grid)
    x, y = fermat_spiral(spec)
    assert (x[0], y[0]) == (0.0, 0.0)
    assert x[1] == pytest.approx(0.0, abs=1e-12)
    assert y[1] == pytest.approx(math.pi / 2)
    assert x[2] == pytest.approx(-math.pi)
    assert y[2] == pytest.approx(0.0, abs=1e-12)


def test_spiral_radius_identity(zeros100_series):
    spec = dft(zeros100_series)
    x, y = fermat_spiral(spec)
    f = spec.frequencies
    assert np.max(np.abs(x ** 2 + y ** 2 - f ** 2)) < 1e-12
    radii = np.hypot(x, y)
    assert np.max(np.abs(radii - f)) < 1e-12
    assert np.all(np.diff(radii) > 0)


# ---------------------------------------------------------------------------
# Peaks
# ---------------------------------------------------------------------------

def test_peaks_impulse_train_gap_10():
    spec = dft(impulse_train(100, 10))
    peaks = detect_peaks(spec)
    assert peaks.dtype == np.intp and peaks.size
    top = peaks[0]
    assert top == 10
    assert spec.frequencies[top] == pytest.approx(0.1)
    assert 1.0 / spec.frequencies[top] == pytest.approx(10.0)


def no_peaks(peaks):
    return peaks.dtype == np.intp and peaks.shape == (0,)


def test_peaks_single_mark_flat_spectrum():
    values = np.zeros(64)
    values[7] = 1.0
    assert no_peaks(detect_peaks(dft(series_from_values(values))))


def test_peaks_two_marks_four_apart():
    values = np.zeros(64)
    values[11] = 1.0
    values[15] = 1.0
    spec = dft(series_from_values(values))
    top = detect_peaks(spec)[0]
    # amplitude profile is 2|cos(pi l / 16)|: strongest line at l=16, gap 4
    assert abs(spec.frequencies[top] - 0.25) <= spec.freq_step
    assert 1.0 / spec.frequencies[top] == pytest.approx(4.0, abs=1e-9)
    assert top == 16
    assert spec.amplitudes[top] == pytest.approx(2.0)


def test_peaks_empty_spectrum():
    assert no_peaks(detect_peaks(dft(series_from_values(np.zeros(16)))))


@pytest.mark.parametrize("n", [16, 64, 97, 100])
def test_peaks_none_on_a_dc_only_spectrum(n):
    # every sample marked: all weight in the DC bin; the FFT leaves the
    # other bins at roundoff level (up to 6e-15 at N = 97), which must not
    # read as lines
    assert no_peaks(detect_peaks(dft(series_from_values(np.ones(n)))))
    exact = Spectrum(bins=np.eye(1, n)[0] * n + 0j,
                     source_grid=GridSpec(1.0, n))
    assert no_peaks(detect_peaks(exact, threshold_fraction=1.0))


def test_peaks_sorted_and_tie_broken():
    spec = dft(impulse_train(100, 10))
    peaks = detect_peaks(spec, threshold_fraction=0.5)
    amps = spec.amplitudes[peaks].tolist()
    assert amps == sorted(amps, reverse=True)
    top_ties = [l for l, a in zip(peaks.tolist(), amps) if a == amps[0]]
    assert top_ties == sorted(top_ties)


def test_peaks_threshold_validation():
    series = impulse_train(64, 8)
    with pytest.raises(ValueError):
        detect_peaks(dft(series), threshold_fraction=0.0)
    with pytest.raises(ValueError):
        detect_peaks(dft(series), threshold_fraction=1.5)


def test_peaks_superposed_trains_recover_both_gaps():
    n, d1, d2 = 240, 8, 5
    values = np.zeros(n)
    values[::d1] = 1.0
    values[::d2] = 1.0
    series = series_from_values(values)
    spec = dft(series)
    # cross-check the amplitude profile against the brute-force oracle
    brute = np.abs(np.array(dft_brute(list(values))))
    assert np.max(np.abs(spec.amplitudes - brute)) < 1e-9
    found = spec.frequencies[detect_peaks(spec, threshold_fraction=0.4)]
    for gap in (d1, d2):
        assert np.min(np.abs(found - 1.0 / gap)) <= spec.freq_step + 1e-12


@pytest.fixture(scope="module")
def zeros_to_3000():
    return find_zeros(0.0, 3000.0).events


@pytest.mark.parametrize("delta", [1.0, 0.5, 0.25])
@pytest.mark.parametrize("t_max", [1e3, 3e3])
def test_peaks_of_the_zeros_spectrum_sit_at_prime_powers(zeros_to_3000,
                                                         t_max, delta):
    # Landau (1911): the sum of x^(-i gamma) over the zeros gamma <= T is
    # -(T/2pi) Lambda(x)/sqrt(x) + O(log T), so the spectrum of the zeros
    # has a line at nu = log(x)/2pi for each prime power x, and the grid
    # folds every frequency modulo 1/delta. The lines of x <= e^(2 pi) =
    # 535.5 fill |nu| <= 1: the half-spectrum at delta = 0.5 and a whole
    # period at 1. At delta = 0.25 the half-spectrum reaches |nu| = 2, where
    # the lines of x up to e^(4 pi) = 286 751 lie closer than a bin: 99% of
    # 1 <= nu <= 2 is within one bin of one at T = 1e3 (N = 4001), 89% at
    # T = 3e3 (N = 11 999), so a peak there would pass wherever it sat, and
    # only the peaks with |nu| <= 1 are checked. Four of the 38 peaks at
    # T = 1e3 lie beyond (bins 1159, 1261, 1675 and 1677, 160 to 679 bins
    # from every line of x <= 535), each within 0.11 bins of the line of a
    # prime power between 1451 and 37 579.
    events = EventSequence(zeros_to_3000[zeros_to_3000 <= t_max])
    spec = dft(build_series(events, GridSpec.for_events(events, delta)))
    found = spec.frequencies[detect_peaks(spec)]
    period = 1.0 / delta
    inner = found[np.abs((found + period / 2) % period - period / 2) <= 1.0]
    powers = np.array(prime_powers(535))
    lines = np.log(powers) / (2 * np.pi)

    def bins_off(nu, lines):
        d = (nu - np.concatenate([lines, -lines])) % period
        return np.min(np.minimum(d, period - d)) / spec.freq_step

    assert inner.size >= 10
    assert max(bins_off(nu, lines) for nu in inner) <= 1.0
    # the strongest lines have the largest Lambda(x)/sqrt(x), so they name
    # prime powers up to e^pi = 23.1, whose lines cover few bins; at
    # delta = 0.25 and T = 3e3 the fourth strongest is the line of 41, 276
    # bins from every line of x <= 23, so this holds at delta >= 0.5 only
    if delta >= 0.5:
        assert max(bins_off(nu, lines[powers <= 23])
                   for nu in found[:5]) <= 1.0


def test_landau_sum_over_the_zeros_separates_prime_powers(zeros_to_3000):
    # Landau (1911): sum_{0 < gamma <= T} x^(-i gamma) is
    # -(T/2pi) Lambda(x)/sqrt(x) + O(log T), with Lambda(p^k) = log p and 0
    # at every other x. At T = 3000 the main terms for x <= 59 are at least
    # 58.5 and the residuals at most 9.1, so a bound of half the smallest
    # main term tells the prime powers from the rest.
    t = 3000.0
    x = np.arange(2, 60)
    sums = np.exp(-1j * np.outer(np.log(x), zeros_to_3000)).sum(axis=1)
    powers = prime_powers(59)
    primes = trial_division_primes(59)
    mangoldt = np.array([math.log(next(p for p in primes if n % p == 0))
                         if n in powers else 0.0 for n in x.tolist()])
    main = -(t / (2 * np.pi)) * mangoldt / np.sqrt(x)
    half = np.min(np.abs(main[mangoldt > 0])) / 2
    assert np.max(np.abs(sums - main)) < half
    assert x[np.abs(sums) > half].tolist() == powers


# The primes <= 1e5 on N = 100 800 = 2^6 3^2 5^2 7 unit samples: N a/q is a
# bin for every q that divides N, and the spectrum there is the exponential
# sum over the primes at the rational a/q.
RATIONALS_N = 100_800


@pytest.fixture(scope="module")
def primes_spectrum():
    primes = sieve_primes(10 ** 5)
    spec = dft(build_series(primes, GridSpec(delta=1.0, length=RATIONALS_N)))
    return primes.events.astype(np.int64), spec


def test_primes_spectrum_at_rationals_is_a_sum_over_residue_classes(
        primes_spectrum):
    # Prime p marks sample p, so X(N a/q) = sum_p e(-a p/q) with
    # e(t) = exp(2 pi i t), which is exactly sum_r e(-a r/q) pi(x; q, r).
    # Error model of the FFT (Higham, Accuracy and Stability of Numerical
    # Algorithms, ch. 24): each bin is reached through at most ceil(log2 N)
    # passes, and each pass rounds one twiddle product and one sum, u each
    # (eps = 2u), on partial sums of at most `marks` unit terms. So the bin is
    # within eps ceil(log2 N) marks of the exact sum, to first order. The
    # reference reduces a r mod q in integers and sums in long double, so
    # its own error (at most about 16 eps_ld per unit term) is the second
    # term; with the angle 2 pi a r/q unreduced in double precision it would
    # be about 20 eps marks by itself.
    p, spec = primes_spectrum
    n, marks = RATIONALS_N, p.size
    pi_ld = 4 * np.arctan(np.longdouble(1))
    bound = marks * (np.finfo(float).eps * math.ceil(math.log2(n))
                     + 16 * np.finfo(np.longdouble).eps)
    checked = 0
    for q in range(2, 31):
        if n % q:
            continue
        counts = np.bincount(p % q, minlength=q).astype(np.longdouble)
        r = np.arange(q)
        for a in range(1, q):
            if math.gcd(a, q) != 1:
                continue
            angle = -2 * pi_ld * ((a * r) % q) / q
            want = np.sum(counts * np.exp(1j * angle.astype(np.clongdouble)))
            got = spec.bins[n // q * a]
            assert np.hypot(got.real - want.real, got.imag - want.imag) \
                <= bound, (a, q)
            checked += 1
    assert checked == 131  # phi(q) summed over the 20 divisors 2 <= q <= 30


def test_primes_spectrum_peaks_sit_at_rationals_with_squarefree_q(
        primes_spectrum):
    # By the prime number theorem for progressions, X(N a/q) is close to
    # pi(x) mu(q)/phi(q) for gcd(a, q) = 1: near pi(x)/phi(q) for squarefree
    # q and small otherwise (Davenport, Multiplicative Number Theory, ch.
    # 25-26). A floor of a tenth of the top peak, about pi(x)/10, keeps
    # exactly the squarefree q with phi(q) <= 8 among the divisors of N; the
    # next ones, q = 21 and 42, have phi(q) = 12.
    _, spec = primes_spectrum
    n = RATIONALS_N
    denominators = {2: 1, 3: 2, 6: 2, 5: 4, 10: 4, 7: 6, 14: 6, 15: 8, 30: 8}
    peaks = detect_peaks(spec, 0.1)
    q = n // np.gcd(peaks, n)
    a = peaks * q // n
    assert sorted(peaks.tolist()) == sorted(
        n // d * k for d in denominators for k in range(1, d // 2 + 1)
        if math.gcd(k, d) == 1)
    assert np.allclose(spec.frequencies[peaks] * q, a, rtol=0, atol=1e-9)
    # strongest first: the amplitudes fall in groups ordered by 1/phi(q),
    # pi(x) = 9592 over 1, 2, 4, 6 and 8
    phi = [denominators[d] for d in q.tolist()]
    assert len(peaks) == 21 and phi == sorted(phi)


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------

def terms(spec, bins):
    """The inverse-transform terms of the given bins, summed one by one."""
    n = spec.nbins
    k = np.arange(n)
    return sum((spec.bins[l] * np.exp(2j * np.pi * l * k / n)).real / n
               for l in bins)


def test_reconstruct_full_recovers_series(zeros100_series):
    recon = reconstruct(dft(zeros100_series), "all")
    assert recon.shape == (100,)
    assert np.max(np.abs(recon - zeros100_series.values)) < 1e-9


def test_reconstruct_dc_only_constant():
    series = random_indicator(50, np.random.default_rng(8))
    spec = dft(series)
    recon = reconstruct(spec, 1)
    assert np.allclose(recon, series.mark_count / 50.0, atol=1e-12)
    assert np.max(np.abs(recon - terms(spec, [0]))) < 1e-12


def test_reconstruct_periodic_train_needs_only_support_bins():
    series = impulse_train(100, 10)
    spec = dft(series)
    # spectrum lives on bins {0, 10, ..., 90}; ten terms recover it exactly
    recon = reconstruct(spec, 10)
    assert np.max(np.abs(recon - series.values)) < 1e-9
    assert np.max(np.abs(recon - terms(spec, range(0, 100, 10)))) < 1e-12


def test_reconstruct_residual_monotone_in_k():
    series = random_indicator(64, np.random.default_rng(9))
    spec = dft(series)
    last = math.inf
    for k in range(1, 65):
        rms = np.sqrt(np.mean((reconstruct(spec, k) - series.values) ** 2))
        assert rms <= last + 1e-12
        last = rms
    assert last < 1e-9


def expected_bins(spec, k):
    """The k strongest bins, ties to the lower index, plus their partners."""
    n = spec.nbins
    top = np.lexsort((np.arange(n), -spec.amplitudes))[:k].tolist()
    return sorted(set(top) | {(n - l) % n for l in top})


def test_reconstruct_partial_sum_matches_term_by_term():
    spec = dft(random_indicator(48, np.random.default_rng(12)))
    for k in (1, 3, 7, 20):
        chosen = expected_bins(spec, k)
        assert len(chosen) < spec.nbins
        diff = reconstruct(spec, k) - terms(spec, chosen)
        assert np.max(np.abs(diff)) < 1e-12


def test_reconstruct_breaks_ties_at_the_kth_amplitude_by_index():
    # spectra with tied amplitudes, so that for most k the k-th amplitude is
    # tied; the choice is the full ranking's, amplitude descending and then
    # bin index. On an impulse train's spectrum the ties among zero bins
    # change no sum; unit bins of four phases tie at every k, each bin
    # adding a term of its own
    n = 24
    exact = Spectrum(bins=np.where(np.arange(n) % 6 == 0, 6.0, 0.0) + 0j,
                     source_grid=GridSpec(1.0, n))
    units = Spectrum(bins=np.array([1, 1j, -1, -1j])[
        np.random.default_rng(n).integers(0, 4, n)],
        source_grid=GridSpec(1.0, n))
    assert np.all(units.amplitudes == 1.0)
    for spec in (exact, dft(impulse_train(n, 4)), units):
        for k in range(1, n):
            diff = reconstruct(spec, k) - terms(spec, expected_bins(spec, k))
            assert np.max(np.abs(diff)) < 1e-12


def test_reconstruct_matches_inverse_transform(zeros100_series):
    spec = dft(zeros100_series)
    inverse = np.fft.ifft(spec.bins).real
    assert np.max(np.abs(reconstruct(spec, "all") - inverse)) < 1e-9


def test_reconstruct_all_bins_is_the_plain_inverse_fft(zeros100_series):
    # "all" and k = N skip the ranking; the result is the inverse FFT itself
    spec = dft(zeros100_series)
    plain = np.fft.ifft(spec.bins).real
    for k in ("all", spec.nbins):
        assert np.array_equal(reconstruct(spec, k), plain)


def test_reconstruct_k_validation(zeros100_series):
    spec = dft(zeros100_series)
    with pytest.raises(ValueError):
        reconstruct(spec, 0)
    with pytest.raises(ValueError):
        reconstruct(spec, 101)


@pytest.mark.parametrize("k", [2.7, 2.0, np.float64(2), True, False, "2",
                               None],
                         ids=["fraction", "whole-float", "numpy-float", "true",
                              "false", "str", "none"])
def test_reconstruct_refuses_a_term_count_that_is_not_an_integer(
        k, zeros100_series):
    # int() would run 2.7 as 2 and True as 1
    with pytest.raises(DomainError, match="integer"):
        reconstruct(dft(zeros100_series), k)


def test_reconstruct_takes_a_numpy_integer_term_count(zeros100_series):
    spec = dft(zeros100_series)
    for k in (np.int64(5), np.int32(5), np.uint8(5)):
        assert np.array_equal(reconstruct(spec, k), reconstruct(spec, 5))


# ---------------------------------------------------------------------------
# Prime-counting ratio
# ---------------------------------------------------------------------------

def test_pnt_ratio_examples():
    assert pnt_ratio(100) == pytest.approx(1.151293, abs=1e-6)
    assert pnt_ratio(2) == pytest.approx(math.log(2) / 2, abs=1e-15)
    assert pnt_ratio(10 ** 6) == pytest.approx(1.084490, abs=1e-6)


def test_pnt_ratio_against_oracle_and_decreasing():
    values = [pnt_ratio(x) for x in sorted(PNT_ORACLE)]
    for got, want in zip(values, (PNT_ORACLE[x] for x in sorted(PNT_ORACLE))):
        assert got == pytest.approx(want, abs=1e-6)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_pnt_ratio_of_a_given_count_equals_the_sieved_one():
    # the CLI counts every checkpoint in one sieve to the largest
    primes = sieve_primes(10 ** 4).events
    for x in (2, 100, 1000, 9973, 10 ** 4):
        count = int(np.searchsorted(primes, x, side="right"))
        assert pnt_ratio(x, count) == pnt_ratio(x)


def test_pnt_ratio_domain():
    with pytest.raises(DomainError):
        pnt_ratio(1)
