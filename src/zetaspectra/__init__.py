"""Indicator series over Riemann zeta zeros and primes, their discrete
Fourier spectra, spectral property checks, and harmonic reconstruction."""

__version__ = "0.1.0"

import os
import sys

# OpenBLAS reads its thread count once, when numpy loads it; a second thread
# only spins here. A thread variable the user set, or numpy imported first,
# wins, and os.environ is left as it was for child processes.
if "numpy" not in sys.modules and not any(
        v in os.environ for v in
        ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy
    del os.environ["OPENBLAS_NUM_THREADS"]

from .analysis import (detect_peaks, fermat_spiral, frequency_ratio_series,
                       pnt_ratio, reciprocal_series, reconstruct)
from .grid import GridSpec, MangoldtSeries, build_series
from .numtheory import (DomainError, EventSequence, MissedZeroError,
                        ZeroTableError, find_zeros, load_zeros,
                        riemann_siegel_Z, sieve_primes, synthetic_train)
from .spectral import (PeriodicityReport, Spectrum, amplitude_phase,
                       conjugate_symmetry_check, dft, dft_direct,
                       parseval_check, periodicity_check)

__all__ = [
    "__version__",
    # numtheory
    "DomainError", "MissedZeroError", "ZeroTableError",
    "EventSequence", "sieve_primes", "synthetic_train", "riemann_siegel_Z",
    "find_zeros", "load_zeros",
    # grid
    "GridSpec", "MangoldtSeries", "build_series",
    # spectral
    "Spectrum", "PeriodicityReport",
    "dft", "dft_direct", "amplitude_phase", "periodicity_check",
    "conjugate_symmetry_check", "parseval_check",
    # analysis
    "frequency_ratio_series", "reciprocal_series", "fermat_spiral",
    "detect_peaks", "reconstruct", "pnt_ratio",
]
