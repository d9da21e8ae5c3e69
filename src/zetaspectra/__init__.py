"""Indicator series over Riemann zeta zeros and primes, their discrete
Fourier spectra, spectral property checks, and harmonic reconstruction."""

__version__ = "0.1.0"

from .analysis import (FrequencyRatioReport, PeakReport, ReciprocalReport,
                       ReconstructionResult, detect_peaks, fermat_spiral,
                       frequency_ratio_series, pnt_ratio, reciprocal_series,
                       reconstruct)
from .grid import GridSpec, MangoldtSeries, build_series
from .numtheory import (DomainError, EventSequence, MissedZeroError,
                        ZeroTableError, find_zeros, load_zeros,
                        riemann_siegel_Z, sieve_primes, synthetic_train,
                        zero_count_estimate)
from .spectral import (ParsevalReport, PeriodicityReport, Spectrum,
                       SymmetryReport, amplitude_phase,
                       conjugate_symmetry_check, dft, dft_direct, idft,
                       parseval_check, periodicity_check)

__all__ = [
    "__version__",
    # numtheory
    "DomainError", "MissedZeroError", "ZeroTableError",
    "EventSequence", "sieve_primes", "synthetic_train", "riemann_siegel_Z",
    "find_zeros", "load_zeros", "zero_count_estimate",
    # grid
    "GridSpec", "MangoldtSeries", "build_series",
    # spectral
    "Spectrum", "PeriodicityReport", "SymmetryReport", "ParsevalReport",
    "dft", "dft_direct", "idft", "amplitude_phase", "periodicity_check",
    "conjugate_symmetry_check", "parseval_check",
    # analysis
    "FrequencyRatioReport", "ReciprocalReport", "PeakReport",
    "ReconstructionResult", "frequency_ratio_series", "reciprocal_series",
    "fermat_spiral", "detect_peaks", "reconstruct", "pnt_ratio",
]
