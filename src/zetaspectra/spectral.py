"""Discrete Fourier transform of indicator series and transform-level checks.

Forward convention: bin l holds

    X(nu_l) = sum_{k=0}^{N-1} v_k exp(-i 2 pi nu_l (k delta)),   nu_l = l / (N delta)

so the exponent reduces to -i 2 pi l k / N and the frequency axis is in cycles
per location unit. The inverse carries the +i sign and the 1/N factor. The
fast path delegates to the FFT; ``dft_direct`` keeps the literal sum as the
reference route, and ``periodicity_check`` evaluates that sum at shifted
integer arguments where the FFT cannot. The literal sum is exact in its
phases (reduced in int64, N^2 < 2^63, then read from one table of
exp(-2 pi i j / N)) and sums dense requests in blocks of about sqrt(N) bins
that share one table of rotations (see ``direct_bins``). Per-bin quantities
(``Spectrum.frequencies``, the amplitude and phase from ``amplitude_phase``)
are numpy columns indexed by bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, MangoldtSeries

__all__ = [
    "Spectrum",
    "PeriodicityReport",
    "SymmetryReport",
    "ParsevalReport",
    "dft",
    "dft_direct",
    "direct_bins",
    "idft",
    "amplitude_phase",
    "periodicity_check",
    "conjugate_symmetry_check",
    "parseval_check",
]


@dataclass(frozen=True)
class Spectrum:
    """Complex DFT bins with their frequency axis (cycles per location unit)."""

    bins: np.ndarray
    freq_step: float
    source_grid: GridSpec

    def __post_init__(self):
        bins = np.array(self.bins, dtype=complex)
        if bins.shape != (self.source_grid.length,):
            raise ValueError("bin count must equal the source series length")
        bins.flags.writeable = False
        object.__setattr__(self, "bins", bins)

    @property
    def nbins(self) -> int:
        return int(self.bins.size)

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
    passed: bool


@dataclass(frozen=True)
class SymmetryReport:
    max_asymmetry: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class ParsevalReport:
    time_energy: float
    spectral_energy: float
    rel_error: float
    tol: float
    passed: bool


def _spectrum_for(grid: GridSpec, bins: np.ndarray) -> Spectrum:
    freq_step = 1.0 / (grid.length * grid.delta)
    return Spectrum(bins=bins, freq_step=freq_step, source_grid=grid)


def dft(series: MangoldtSeries) -> Spectrum:
    """Forward transform of an indicator series (fast path)."""
    return _spectrum_for(series.grid, np.fft.fft(series.values))


def _integers(x, what: str) -> np.ndarray:
    """x as an int64 array; ValueError unless every entry is an integer."""
    x = np.atleast_1d(np.asarray(x))
    try:
        with np.errstate(invalid="ignore"):
            m = x.astype(np.int64)
    except OverflowError:
        m = None
    if m is None or not np.array_equal(m, x):
        raise ValueError(f"{what} must be integers in int64 range")
    return m


def _bin_block(reduced: np.ndarray, n: int, marks: int) -> int:
    """Bins per block of the literal sum: a power of two B near sqrt(N), at
    most 2^20 / marks, or 1 where dearer. In multiply-adds per mark, u blocks
    cost u (L + B) + B L and B = 1 costs L per index. L = 50: a lookup took
    5.6-8.4 ns and a multiply-add 0.07-0.16 ns (N = 3001 to 999 984, OpenBLAS,
    2 vCPUs)."""
    b = 1 << max(0, min(n.bit_length() // 2,
                        ((1 << 20) // max(marks, 1)).bit_length() - 1))
    # return_inverse keeps np.unique on its sort, here 8x faster than its hash
    blocks = np.unique(reduced // b, return_inverse=True)[0].size
    return b if blocks * (50 + b) + 50 * b < 50 * reduced.size else 1


def direct_bins(values: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Literal transform sum evaluated at integer bin indices.

    sum_k v_k exp(-i 2 pi m k / N) for each requested index m, which may lie
    outside 0..N-1 (the shifted-argument checks need that), over the nonzero
    samples only. With m mod N = u B + j (B from ``_bin_block``), block u's
    row P[u, k] = T[(u B k) mod N] times one table of rotations R[j, k] =
    v_k T[(j k) mod N] shared by all blocks gives its bins as one matrix
    product P @ R.T, in pieces of about 2^20 terms; T is the table of N
    twiddles exp(-2 pi i j / N). Every phase is reduced exactly in int64
    first, which bounds N^2 below 2^63, so X(l + zN) equals X(l) bit for bit.
    """
    values = np.asarray(values, dtype=float)
    n = max(values.size, 1)
    if n > 3_037_000_499:  # isqrt(2^63 - 1): (m mod N) k must fit in int64
        raise ValueError(f"N = {n} is too large for int64 phase reduction")
    reduced = _integers(indices, "bin indices") % n
    k = np.flatnonzero(values)
    table = np.exp(-2j * np.pi * np.arange(n) / n)
    b = _bin_block(reduced, n, k.size)
    blocks, at = np.unique(reduced // b, return_inverse=True)
    rotation = table[np.outer(np.arange(b), k) % n] * values[k]
    out = np.empty((blocks.size, b), dtype=complex)
    step = max(1, (1 << 20) // max(k.size, 1))
    for start in range(0, blocks.size, step):
        phase = np.outer(blocks[start:start + step] * b % n, k)
        np.remainder(phase, n, out=phase)
        out[start:start + step] = table[phase] @ rotation.T
    return out.ravel()[at * b + reduced % b]


def dft_direct(values: np.ndarray, grid: GridSpec) -> Spectrum:
    """Forward transform by the literal sum (reference path)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.length,):
        raise ValueError("values length must match the grid")
    bins = direct_bins(values, np.arange(grid.length))
    return _spectrum_for(grid, bins)


def idft(spectrum: Spectrum) -> np.ndarray:
    """Inverse transform (1/N) sum_l X_l exp(+i 2 pi l k / N) as a real series.

    For the spectrum of a real series the discarded imaginary residue is
    below 1e-9 per sample.
    """
    return np.fft.ifft(spectrum.bins).real


def amplitude_phase(spectrum: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude and phase columns, one entry per bin.

    Phases lie in (-pi, pi]; a zero bin gets phase 0 by convention. Both
    columns equal the per-bin abs() and math.atan2 bit for bit, which
    np.abs and np.arctan2 do not, so printed cells stay stable.
    """
    re, im = spectrum.bins.real, spectrum.bins.imag
    amplitude = np.hypot(re, im)
    phase = np.frompyfunc(math.atan2, 2, 1)(im, re).astype(float)
    phase[phase == -math.pi] = math.pi
    phase[amplitude == 0.0] = 0.0
    return amplitude, phase


def _check_tol(tol: float) -> None:
    """ValueError unless 0 < tol < inf: a NaN would fail every check and an
    infinite tolerance pass any."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")


def periodicity_check(series: MangoldtSeries, z_values: list[int],
                      tol: float = 1e-9,
                      bins: np.ndarray | None = None) -> list[PeriodicityReport]:
    """Compare the literal sum at bin indices l + z*N against the base bins.

    The shift multiplies each term by exp(-i 2 pi z k) = 1 for integer z.
    ``direct_bins`` reduces every phase exactly before any floating-point
    work, so the check is exact by construction: the difference is 0.0
    unless that index reduction is wrong, which is all it guards; it does
    not exercise the float arithmetic of the sum. Non-integer z raises
    ValueError: the identity does not hold there. ``bins`` restricts the
    checked integer indices (each costs at most one lookup per mark and
    shift); default is all. Bins outside 0..N-1 are taken modulo N first,
    which leaves X unchanged and keeps l + z*N inside int64.
    """
    _check_tol(tol)
    n = series.grid.length
    base_idx = np.arange(n) if bins is None else _integers(bins, "bins") % n
    zs = _integers(z_values, "shift multiples")
    for z in zs.tolist():
        if z < 1:
            raise ValueError(f"shift multiples must be positive, got {z}")
        if z > (np.iinfo(np.int64).max - n) // n:
            raise ValueError(f"shift z*N overflows int64, got z = {z}")
    if not zs.size:
        return []
    # one sum over the base bins and every shift: the shifted indices reduce
    # to the base blocks, which direct_bins sums once
    shifts = np.concatenate([[0], zs]) * n
    sums = direct_bins(series.values, (shifts[:, None] + base_idx).ravel())
    sums = sums.reshape(shifts.size, -1)
    diffs = np.max(np.abs(sums[1:] - sums[0]), axis=1, initial=0.0)
    return [PeriodicityReport(z=z, max_abs_diff=d, tol=tol, passed=d < tol)
            for z, d in zip(zs.tolist(), diffs.tolist())]


def conjugate_symmetry_check(spectrum: Spectrum, tol: float = 1e-9) -> SymmetryReport:
    """Max over l in 1..N-1 of ||X(l)| - |X(N-l)||; real input makes it ~0."""
    _check_tol(tol)
    amp = spectrum.amplitudes
    if spectrum.nbins < 2:
        return SymmetryReport(0.0, tol, True)
    inner = amp[1:]
    asym = float(np.max(np.abs(inner - inner[::-1])))
    return SymmetryReport(max_asymmetry=asym, tol=tol, passed=asym < tol)


def parseval_check(series: MangoldtSeries, spectrum: Spectrum,
                   tol: float = 1e-9) -> ParsevalReport:
    """sum_k v_k^2 == (1/N) sum_l |X_l|^2, relative; equals the mark count."""
    _check_tol(tol)
    time_energy = float(np.sum(series.values ** 2))
    spectral_energy = float(np.sum(np.abs(spectrum.bins) ** 2) / spectrum.nbins)
    scale = max(time_energy, 1.0)
    rel = abs(time_energy - spectral_energy) / scale
    return ParsevalReport(time_energy=time_energy,
                          spectral_energy=spectral_energy,
                          rel_error=rel, tol=tol, passed=rel < tol)
