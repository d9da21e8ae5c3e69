"""Spectrum-level observables: frequency ratios, spiral geometry, peaks,
harmonic reconstruction, and the prime-counting ratio analogy."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numtheory import DomainError, sieve_primes
from .spectral import Spectrum, idft

__all__ = [
    "FrequencyRatioReport",
    "ReciprocalReport",
    "PeakReport",
    "ReconstructionResult",
    "frequency_ratio_series",
    "reciprocal_series",
    "fermat_spiral",
    "detect_peaks",
    "reconstruct",
    "pnt_ratio",
]


@dataclass(frozen=True)
class FrequencyRatioReport:
    """Consecutive-frequency ratios f_{t+1}/f_t for t = 1..N-2.

    On a uniform axis every ratio is (t+1)/t, so the series tends to 1.
    ``edge_t`` is the half-spectrum edge bin N//2; since "largest frequency"
    can mean either the Nyquist bin or the last bin, the edge is compared
    against both.
    """

    ratios: np.ndarray
    edge_t: int  # last pair index inside the half-spectrum: N//2 - 1
    ratio_at_edge: float
    edge_vs_nyquist: float
    edge_vs_last_bin: float


@dataclass(frozen=True)
class ReciprocalReport:
    """Reciprocal frequencies 1/f_t for t = 1..N-1.

    At the half-spectrum edge t = N//2 the reciprocal is ~2*delta, i.e.
    2/f_s for sampling rate f_s = 1/delta; both 1/f_s and 2/f_s are carried
    as candidate limiting values.
    """

    reciprocals: np.ndarray
    edge_t: int
    value_at_edge: float
    candidate_limit_inv_fs: float
    candidate_limit_two_inv_fs: float


@dataclass(frozen=True)
class PeakReport:
    """A dominant spectral line; its reciprocal frequency is the event gap
    that would produce it."""

    bin_index: int
    frequency: float
    amplitude: float
    implied_gap: float


@dataclass(frozen=True)
class ReconstructionResult:
    terms_used: int
    bin_indices: np.ndarray  # ascending, closed under l -> (N - l) % N
    values: np.ndarray
    max_abs_error: float
    rms_error: float


def frequency_ratio_series(spectrum: Spectrum) -> FrequencyRatioReport:
    """Ratios of consecutive bin frequencies plus the half-spectrum edge view."""
    n = spectrum.nbins
    if n < 3:
        raise ValueError(f"need at least 3 bins, got {n}")
    t = np.arange(1, n - 1, dtype=float)
    ratios = (t + 1.0) / t
    edge_t = max(1, min(n // 2 - 1, n - 2))
    f = spectrum.frequencies
    return FrequencyRatioReport(
        ratios=ratios,
        edge_t=edge_t,
        ratio_at_edge=float(ratios[edge_t - 1]),
        edge_vs_nyquist=float((n / 2.0) / edge_t),
        edge_vs_last_bin=float(f[n - 1] / f[edge_t]),
    )


def reciprocal_series(spectrum: Spectrum) -> ReciprocalReport:
    """Reciprocals of the positive bin frequencies (DC excluded)."""
    n = spectrum.nbins
    recips = 1.0 / spectrum.frequencies[1:]
    delta = spectrum.source_grid.delta
    edge_t = max(1, n // 2)
    return ReciprocalReport(
        reciprocals=recips,
        edge_t=edge_t,
        value_at_edge=float(recips[edge_t - 1]),
        candidate_limit_inv_fs=delta,
        candidate_limit_two_inv_fs=2.0 * delta,
    )


def fermat_spiral(spectrum: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Columns x = f cos f and y = f sin f: each bin frequency f plotted at
    angle f and radius f."""
    f = spectrum.frequencies
    return f * np.cos(f), f * np.sin(f)


def detect_peaks(spectrum: Spectrum,
                 threshold_fraction: float = 0.5) -> list[PeakReport]:
    """Local amplitude maxima over the half-spectrum, above a relative floor.

    A bin l in 1..N/2 qualifies when its amplitude strictly exceeds both
    neighbours and reaches threshold_fraction of the largest non-DC
    amplitude. Results are sorted by amplitude descending, ties going to the
    lower bin.
    """
    if not 0.0 < threshold_fraction <= 1.0:
        raise ValueError(
            f"threshold_fraction must be in (0, 1], got {threshold_fraction}")
    amp = spectrum.amplitudes
    n = spectrum.nbins
    if n < 3:
        return []
    ceiling = float(np.max(amp[1:]))
    if ceiling == 0.0:
        return []
    floor = threshold_fraction * ceiling
    margin = 1e-12 * ceiling  # flat spectra carry roundoff-level wiggle
    half = n // 2
    mid = amp[1:half + 1]
    hits = 1 + np.flatnonzero((mid > amp[:half] + margin)
                              & (mid > amp[2:half + 2] + margin)
                              & (mid >= floor))
    hits = hits[np.lexsort((hits, -amp[hits]))]
    return [PeakReport(bin_index=int(l), frequency=f, amplitude=float(amp[l]),
                       implied_gap=1.0 / f)
            for l, f in zip(hits, spectrum.frequencies[hits].tolist())]


def reconstruct(spectrum: Spectrum, k_terms: int | str = "all",
                original: np.ndarray | None = None) -> ReconstructionResult:
    """Superpose the k strongest bins (with conjugate partners) back into a
    series.

    Bins are ranked by amplitude descending, ties to the lower index; each
    selected bin contributes its inverse-transform term, and its conjugate
    partner is always included so every partial sum is a real cosine
    superposition. Selecting all N bins reproduces the exact inverse
    transform. Residuals are reported against ``original`` when given, else
    against the full inverse transform.
    """
    n = spectrum.nbins
    if k_terms == "all":
        k = n
    else:
        k = int(k_terms)
        if not 1 <= k <= n:
            raise ValueError(f"k_terms must be in 1..{n} or 'all', got {k_terms}")

    chosen, bins = np.ones(n, dtype=bool), spectrum.bins
    if k < n:  # with every bin chosen the ranking decides nothing
        # amplitude descending, ties to the lower bin index
        top = np.lexsort((np.arange(n), -np.abs(spectrum.bins)))[:k]
        chosen[:] = False
        chosen[top] = True
        # close under conjugate partners so the partial sum stays real
        chosen[(n - top) % n] = True
        bins = np.where(chosen, bins, 0.0)
    recon = np.fft.ifft(bins).real

    if original is None:
        target = idft(spectrum)
    else:
        target = np.asarray(original, dtype=float)
        if target.shape != (n,):
            raise ValueError("original must have one sample per bin")
    resid = recon - target
    return ReconstructionResult(
        terms_used=k,
        bin_indices=np.flatnonzero(chosen),
        values=recon,
        max_abs_error=float(np.max(np.abs(resid))),
        rms_error=float(np.sqrt(np.mean(resid ** 2))),
    )


def pnt_ratio(x: int, count: int | None = None) -> float:
    """pi(x) * ln(x) / x; pi(x) is `count` when given, else counted by the
    prime sieve."""
    if x < 2:
        raise DomainError(f"pnt_ratio needs x >= 2, got {x}")
    if count is None:
        count = len(sieve_primes(int(x)))
    return count * math.log(x) / x
