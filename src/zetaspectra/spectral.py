"""Discrete Fourier transform of indicator series and transform-level checks.

Forward convention: bin l holds

    X(nu_l) = sum_{k=0}^{N-1} v_k exp(-i 2 pi nu_l (k delta)),   nu_l = l / (N delta)

so the exponent reduces to -i 2 pi l k / N and the frequency axis is in cycles
per location unit. The inverse (``analysis.reconstruct`` with every bin)
carries the +i sign and the 1/N factor. The fast path delegates to the FFT;
``dft_direct`` keeps the literal sum as the reference route, and
``periodicity_check`` evaluates that sum at shifted integer arguments where
the FFT cannot, on every bin while N times the mark count is at most
PERIODICITY_TERMS, else on the last bins up to N - 1. The literal sum is
exact in its phases (reduced in int64, N^2 < 2^63, then read from one table
of exp(-2 pi i j / N)), folds bin r onto min(r, N - r) (real values give
X(N - r) = conj X(r)) and sums blocks of about sqrt(N) bins sharing one
table of rotations, over slices of at most 2^16 terms (see ``direct_bins``).
Per-bin quantities are numpy columns indexed by bin.
``conjugate_symmetry_check`` and ``parseval_check`` return their error as a
float and leave the verdict to the caller's tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, MangoldtSeries
from .numtheory import DomainError, _integer

__all__ = [
    "Spectrum",
    "PeriodicityReport",
    "dft",
    "dft_direct",
    "direct_bins",
    "amplitude_phase",
    "periodicity_check",
    "conjugate_symmetry_check",
    "parseval_check",
]

# isqrt(2^63 - 1): the literal sum reduces each phase (m mod N) k in int64
MAX_LENGTH = 3_037_000_499
# periodicity_check reads at most this many bin x mark terms
PERIODICITY_TERMS = 2 ** 25


@dataclass(frozen=True)
class Spectrum:
    """Complex DFT bins, one per sample of source_grid, which alone sets the
    frequency axis: freq_step = 1/(N delta) cycles per location unit."""

    bins: np.ndarray
    source_grid: GridSpec

    def __post_init__(self):
        bins = np.array(self.bins, dtype=complex)
        if bins.shape != (self.source_grid.length,):
            raise DomainError("bin count must equal the source series length")
        bins.flags.writeable = False
        object.__setattr__(self, "bins", bins)

    @property
    def nbins(self) -> int:
        return int(self.bins.size)

    @property
    def freq_step(self) -> float:
        return 1.0 / (self.source_grid.length * self.source_grid.delta)

    @property
    def frequencies(self) -> np.ndarray:
        """Bin frequencies l * freq_step for l = 0..N-1."""
        return self.freq_step * np.arange(self.nbins, dtype=float)

    @property
    def amplitudes(self) -> np.ndarray:
        return np.abs(self.bins)


@dataclass(frozen=True)
class PeriodicityReport:
    z: int
    max_abs_diff: float
    tol: float
    bins: int  # how many base bins were compared, the last ones up to N - 1


def dft(series: MangoldtSeries) -> Spectrum:
    """Forward transform of an indicator series (fast path)."""
    return Spectrum(np.fft.fft(series.values), series.grid)


def _integers(x, what: str) -> np.ndarray:
    """x as an int64 array; DomainError unless every entry is an integer."""
    x = np.atleast_1d(np.asarray(x))
    try:
        with np.errstate(invalid="ignore"):
            m = x.astype(np.int64)
    except OverflowError:
        m = None
    if m is None or not np.array_equal(m, x):
        raise DomainError(f"{what} must be integers in int64 range")
    return m


def _bin_block(n: int, marks: int) -> int:
    """Bins per block of the literal sum: the power of two near sqrt(N), at
    most 2^20 / marks, so B times the marks is at most 2^20 terms."""
    return 1 << max(0, min(n.bit_length() // 2,
                           ((1 << 20) // max(marks, 1)).bit_length() - 1))


def direct_bins(values: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Literal transform sum evaluated at integer bin indices.

    sum_k v_k exp(-i 2 pi m k / N) for each requested index m, which may lie
    outside 0..N-1 (the shifted-argument checks need that), over the nonzero
    samples only. Real values give X(N - r) = conj X(r), so r = m mod N
    folds onto min(r, N - r), and a bin past N/2 takes its fold's conjugate.
    With a folded bin u B + j (B from ``_bin_block``, a power of two near
    sqrt(N)), block u's row P[u, k] = T[(u B k) mod N] times one table of
    rotations R[j, k] = v_k T[(j k) mod N] shared by all blocks gives its
    bins as one matrix product P @ R.T, summed over slices of the marks of
    at most 2^16 terms where B and the blocks allow; T is the table of N
    twiddles exp(-2 pi i j / N). Every phase is reduced exactly in int64
    first (N^2 < 2^63), so X(l + zN) equals X(l) bit for bit.
    """
    values = np.asarray(values, dtype=float)
    n = max(values.size, 1)
    if n > MAX_LENGTH:
        raise DomainError(f"N = {n} is too large for int64 phase reduction")
    reduced = _integers(indices, "bin indices") % n
    folded = np.minimum(reduced, n - reduced)
    k = np.flatnonzero(values)
    table = np.exp(-2j * np.pi * np.arange(n) / n)
    b = _bin_block(n, k.size)
    blocks, at = np.unique(folded // b, return_inverse=True)
    out = np.zeros((blocks.size, b), dtype=complex)
    width = max(1, (1 << 16) // (b + blocks.size))
    for start in range(0, k.size, width):
        ks = k[start:start + width]
        rotation = table[np.outer(np.arange(b), ks) % n] * values[ks]
        out += table[np.outer(blocks * b, ks) % n] @ rotation.T
    sums = out.ravel()[at * b + folded % b]
    sums.imag[2 * folded == n] = 0.0  # X(N/2) is its own conjugate: real
    return np.where(reduced > folded, sums.conj(), sums)


def dft_direct(values: np.ndarray, grid: GridSpec) -> Spectrum:
    """Forward transform by the literal sum (reference path)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.length,):
        raise DomainError("values length must match the grid")
    return Spectrum(direct_bins(values, np.arange(grid.length)), grid)


def amplitude_phase(spectrum: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude and phase columns, one entry per bin.

    Phases lie in (-pi, pi]; a zero bin gets phase 0 by convention. Both
    columns equal the per-bin abs() and math.atan2 (libm's, as is the complex
    log's phase) bit for bit, so printed cells stay stable; np.abs and
    np.arctan2 differ.
    """
    amplitude = np.hypot(spectrum.bins.real, spectrum.bins.imag)
    with np.errstate(divide="ignore"):  # log 0 = -inf; its phase is reset
        phase = np.log(spectrum.bins).imag
    phase[phase == -math.pi] = math.pi
    phase[amplitude == 0.0] = 0.0
    return amplitude, phase


def periodicity_check(series: MangoldtSeries, z_values: list[int],
                      tol: float = 1e-9) -> list[PeriodicityReport]:
    """Compare the literal sum at bin indices l + z*N against the base bins.

    The shift multiplies each term by exp(-i 2 pi z k) = 1 for integer z.
    ``direct_bins`` reduces every phase exactly before any floating-point
    work, so the check is exact by construction: the difference is 0.0
    unless that index reduction is wrong, which is all it guards; it does
    not exercise the float arithmetic of the sum. DomainError for a z that
    is not an int or a numpy integer (True and 2.0 too), for z < 1, for z*N
    past int64, or unless 0 < tol < inf. Every bin is checked when N times
    the mark count (taken as at least 1) is at most PERIODICITY_TERMS; else
    the last PERIODICITY_TERMS // marks bins, at least one, which end at
    N - 1, where l + z*N is largest. Each report gives that count as ``bins``,
    and its error with the tol, from which the caller decides its verdict.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    n = series.grid.length
    zs = [_integer("shift multiple", z) for z in z_values]
    for z in zs:
        if z < 1:
            raise DomainError(f"shift multiples must be positive, got {z}")
        if z > (np.iinfo(np.int64).max - n) // n:
            raise DomainError(f"shift z*N overflows int64, got z = {z}")
    if not zs:
        return []
    count = min(n, max(1, PERIODICITY_TERMS // max(series.mark_count, 1)))
    # the base bins and every shift in one sum: shifts reduce to base blocks
    shifts = np.array([0, *zs]) * n
    sums = direct_bins(series.values,
                       (shifts[:, None] + np.arange(n - count, n)).ravel())
    sums = sums.reshape(shifts.size, -1)
    diffs = np.max(np.abs(sums[1:] - sums[0]), axis=1, initial=0.0)
    return [PeriodicityReport(z=z, max_abs_diff=d, tol=tol, bins=count)
            for z, d in zip(zs, diffs.tolist())]


def conjugate_symmetry_check(spectrum: Spectrum) -> float:
    """Max over l in 1..N-1 of ||X(l)| - |X(N-l)||, as a float; real input
    makes it ~0."""
    inner = spectrum.amplitudes[1:]
    return float(np.max(np.abs(inner - inner[::-1])))


def parseval_check(series: MangoldtSeries, spectrum: Spectrum) -> float:
    """Relative error of sum_k v_k^2 == (1/N) sum_l |X_l|^2, as a float;
    both sides are the mark count, and the scale is at least 1."""
    time_energy = float(np.sum(series.values ** 2))
    spectral_energy = float(np.sum(np.abs(spectrum.bins) ** 2) / spectrum.nbins)
    return abs(time_energy - spectral_energy) / max(time_energy, 1.0)
