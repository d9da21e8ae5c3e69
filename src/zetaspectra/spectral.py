"""Discrete Fourier transform of indicator series and transform-level checks.

Forward convention: bin l holds

    X(nu_l) = sum_{k=0}^{N-1} v_k exp(-i 2 pi nu_l (k delta)),   nu_l = l / (N delta)

so the exponent reduces to -i 2 pi l k / N and the frequency axis is in cycles
per location unit. The inverse carries the +i sign and the 1/N factor. The
fast path delegates to the FFT; ``dft_direct`` keeps the literal sum as the
reference route, and ``periodicity_check`` evaluates that sum at shifted
arguments where the FFT cannot. Per-bin quantities (``Spectrum.frequencies``,
the amplitude and phase from ``amplitude_phase``) are numpy columns indexed
by bin.
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
    "dft_values",
    "dft_direct",
    "direct_bins",
    "idft",
    "idft_complex",
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


def dft_values(values: np.ndarray, grid: GridSpec) -> Spectrum:
    """Forward transform of a raw sample array (fast path)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.length,):
        raise ValueError("values length must match the grid")
    return _spectrum_for(grid, np.fft.fft(values))


def dft(series: MangoldtSeries) -> Spectrum:
    """Forward transform of an indicator series (fast path)."""
    return dft_values(series.values, series.grid)


def direct_bins(values: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Literal transform sum evaluated at arbitrary (real) bin indices.

    sum_k v_k exp(-i 2 pi m k / N) for each requested index m; m need not be
    an integer in 0..N-1, which is what the shifted-argument checks need.
    """
    values = np.asarray(values, dtype=float)
    indices = np.atleast_1d(np.asarray(indices, dtype=float))
    n = values.size
    k = np.arange(n, dtype=float)
    out = np.empty(indices.size, dtype=complex)
    block = max(1, (1 << 22) // n)  # bound the outer-product working set
    for start in range(0, indices.size, block):
        chunk = indices[start:start + block]
        out[start:start + chunk.size] = (
            np.exp(-2j * np.pi * np.outer(chunk, k) / n) @ values)
    return out


def dft_direct(values: np.ndarray, grid: GridSpec) -> Spectrum:
    """Forward transform by the literal sum (reference path)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.length,):
        raise ValueError("values length must match the grid")
    bins = direct_bins(values, np.arange(grid.length))
    return _spectrum_for(grid, bins)


def idft_complex(spectrum: Spectrum) -> np.ndarray:
    """Inverse transform (1/N) sum_l X_l exp(+i 2 pi l k / N), kept complex."""
    return np.fft.ifft(spectrum.bins)


def idft(spectrum: Spectrum) -> np.ndarray:
    """Inverse transform as a real series.

    For the spectrum of a real series the discarded imaginary residue is
    below 1e-9 per sample.
    """
    return idft_complex(spectrum).real


def amplitude_phase(spectrum: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude and phase columns, one entry per bin.

    Phases lie in (-pi, pi]; a zero bin gets phase 0 by convention. Both
    columns equal the per-bin abs() and math.atan2 bit for bit, which
    np.abs and np.arctan2 do not, so printed cells stay stable.
    """
    re, im = spectrum.bins.real, spectrum.bins.imag
    amplitude = np.hypot(re, im)
    phase = np.array(list(map(math.atan2, im.tolist(), re.tolist())))
    phase[phase == -math.pi] = math.pi
    phase[amplitude == 0.0] = 0.0
    return amplitude, phase


def periodicity_check(series: MangoldtSeries, z_values: list[int],
                      tol: float = 1e-9,
                      bins: np.ndarray | None = None) -> list[PeriodicityReport]:
    """Compare the literal sum at bin indices l + z*N against the base bins.

    The shift multiplies each term by exp(-i 2 pi z k) = 1, so the max
    difference is pure roundoff for any integer z. ``bins`` restricts the
    checked indices (the literal sum costs O(N) per index); default is all.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    n = series.grid.length
    base_idx = np.arange(n, dtype=float) if bins is None \
        else np.asarray(bins, dtype=float)
    base = direct_bins(series.values, base_idx)
    reports = []
    for z in z_values:
        if z < 1:
            raise ValueError(f"shift multiples must be positive, got {z}")
        shifted = direct_bins(series.values, base_idx + z * n)
        diff = float(np.max(np.abs(shifted - base)))
        reports.append(PeriodicityReport(z=int(z), max_abs_diff=diff, tol=tol,
                                         passed=diff < tol))
    return reports


def conjugate_symmetry_check(spectrum: Spectrum, tol: float = 1e-9) -> SymmetryReport:
    """Max over l in 1..N-1 of ||X(l)| - |X(N-l)||; real input makes it ~0."""
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    amp = spectrum.amplitudes
    if spectrum.nbins < 2:
        return SymmetryReport(0.0, tol, True)
    inner = amp[1:]
    asym = float(np.max(np.abs(inner - inner[::-1])))
    return SymmetryReport(max_asymmetry=asym, tol=tol, passed=asym < tol)


def parseval_check(series: MangoldtSeries, spectrum: Spectrum,
                   tol: float = 1e-9) -> ParsevalReport:
    """sum_k v_k^2 == (1/N) sum_l |X_l|^2, relative; equals the mark count."""
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    time_energy = float(np.sum(series.values ** 2))
    spectral_energy = float(np.sum(np.abs(spectrum.bins) ** 2) / spectrum.nbins)
    scale = max(time_energy, 1.0)
    rel = abs(time_energy - spectral_energy) / scale
    return ParsevalReport(time_energy=time_energy,
                          spectral_energy=spectral_energy,
                          rel_error=rel, tol=tol, passed=rel < tol)
