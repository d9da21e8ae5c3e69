"""Spectrum-level observables: frequency ratios, spiral geometry, peaks,
harmonic reconstruction, and the prime-counting ratio analogy."""

from __future__ import annotations

import math

import numpy as np

from .numtheory import DomainError, _integer, sieve_primes
from .spectral import Spectrum

__all__ = [
    "frequency_ratio_series",
    "reciprocal_series",
    "fermat_spiral",
    "detect_peaks",
    "reconstruct",
    "pnt_ratio",
]


def frequency_ratio_series(spectrum: Spectrum) -> np.ndarray:
    """Ratios f_{t+1}/f_t = (t+1)/t of consecutive bin frequencies, entry
    t - 1 for t = 1..N-2; the pair that ends at the half-spectrum edge N//2
    is entry N//2 - 2."""
    n = spectrum.nbins
    if n < 3:
        raise DomainError(f"ratios need at least 3 bins, got {n}")
    t = np.arange(1, n - 1, dtype=float)
    return (t + 1.0) / t


def reciprocal_series(spectrum: Spectrum) -> np.ndarray:
    """Reciprocals 1/f_t = N delta / t of the bin frequencies, entry t - 1
    for t = 1..N-1 (DC excluded); at the half-spectrum edge t = N//2, entry
    N//2 - 1, it is about 2 delta, twice the sampling period."""
    return 1.0 / spectrum.frequencies[1:]


def fermat_spiral(spectrum: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Columns x = f cos f and y = f sin f: each bin frequency f plotted at
    angle f and radius f."""
    f = spectrum.frequencies
    return f * np.cos(f), f * np.sin(f)


def detect_peaks(spectrum: Spectrum,
                 threshold_fraction: float = 0.5) -> np.ndarray:
    """Bins of the local amplitude maxima over the half-spectrum, above a
    relative floor, as an intp array (empty when there is none).

    A bin l in 1..N/2 qualifies when its amplitude exceeds both neighbours
    by more than 1e-12 of the largest amplitude, DC included, and reaches
    threshold_fraction of the largest non-DC amplitude. Bins are ordered by
    amplitude descending, ties going to the lower bin; a peak's frequency,
    amplitude and implied gap 1/f are the spectrum's columns at its bin.
    """
    if not 0.0 < threshold_fraction <= 1.0:
        raise DomainError(
            f"threshold_fraction must be in (0, 1], got {threshold_fraction}")
    amp = spectrum.amplitudes
    n = spectrum.nbins
    if n < 3:
        return np.empty(0, dtype=np.intp)
    floor = threshold_fraction * float(np.max(amp[1:]))
    # the FFT leaves flat and DC-only spectra with wiggles of that order
    margin = 1e-12 * float(np.max(amp))
    half = n // 2
    mid = amp[1:half + 1]
    hits = 1 + np.flatnonzero((mid > amp[:half] + margin)
                              & (mid > amp[2:half + 2] + margin)
                              & (mid >= floor))
    return hits[np.lexsort((hits, -amp[hits]))]


def reconstruct(spectrum: Spectrum, k_terms: int | str = "all") -> np.ndarray:
    """Superpose the k strongest bins (with conjugate partners) back into a
    real series, one sample per bin.

    Bins are ranked by amplitude descending, ties to the lower index; each
    selected bin contributes its inverse-transform term, and its conjugate
    partner is always included so every partial sum is a real cosine
    superposition. Selecting all N bins gives the inverse FFT itself.
    """
    n = spectrum.nbins
    k = n if k_terms == "all" else _integer("k_terms", k_terms)
    if not 1 <= k <= n:
        raise DomainError(f"k_terms must be an integer in 1..{n} or 'all', "
                          f"got {k_terms!r}")
    bins = spectrum.bins
    if k < n:  # with every bin chosen the ranking decides nothing
        # the k largest amplitudes, ties at the k-th to the lower bin index
        amp = spectrum.amplitudes
        kth = np.partition(amp, n - k)[n - k]
        above = np.flatnonzero(amp > kth)
        top = np.concatenate(
            [above, np.flatnonzero(amp == kth)[:k - above.size]])
        chosen = np.zeros(n, dtype=bool)
        chosen[top] = True
        # close under conjugate partners so the partial sum stays real
        chosen[(n - top) % n] = True
        bins = np.where(chosen, bins, 0.0)
    return np.fft.ifft(bins).real


def pnt_ratio(x: int, count: int | None = None) -> float:
    """pi(x) * ln(x) / x; pi(x) is `count` when given, an integer >= 0, else
    counted by the prime sieve."""
    if not (2 <= x < math.inf and (count is None
                                   or _integer("count", count) >= 0)):
        raise DomainError(f"pnt_ratio needs 2 <= x < inf and count >= 0, "
                          f"got x={x}, count={count}")
    if count is None:
        count = len(sieve_primes(int(x)))
    return count * math.log(x) / x
