"""Event sequences on the positive reals: primes and zeta-zero ordinates.

The zero machinery evaluates the real function Z(t) = exp(i*theta(t)) * zeta(1/2 + i*t),
whose sign changes bracket the ordinates of the critical-line zeros. Two evaluation
routes are combined:

* Euler-Maclaurin summation of zeta(1/2 + i*t), accurate to ~1e-12 for t <= a few
  thousand (cost grows linearly with t);
* the Riemann-Siegel asymptotic formula (main sum plus five remainder terms), used
  above ``RS_CROSSOVER`` where its truncation error is below 1e-10 (cost grows like
  sqrt(t)).

Measured against an independent multiprecision reference, the combined evaluator
stays within 1e-8 of Z(t) for all t <= 1e4 (worst point is t ~ 10, where the
asymptotic phase series contributes ~6e-9).

Zeros are found in two passes. The scan evaluates Z on the whole grid in one
batch (``_z_batch``: the same routes and constants as the scalar
``riemann_siegel_Z``, as masked matrices of terms in blocks of at most 2^20).
Each sign change is then refined by safeguarded Illinois regula falsi
(``_refine``), about five scalar ``riemann_siegel_Z`` calls per zero.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DomainError",
    "MissedZeroError",
    "ZeroTableError",
    "EventKind",
    "EventSource",
    "EventSequence",
    "sieve_primes",
    "synthetic_train",
    "zeta_half",
    "riemann_siegel_theta",
    "riemann_siegel_Z",
    "find_zeros",
    "load_zeros",
    "zero_count_estimate",
]

TWO_PI = 2.0 * math.pi


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class MissedZeroError(RuntimeError):
    """Scan found a zero count inconsistent with the counting estimate."""


class ZeroTableError(ValueError):
    """Malformed zero-table file (bad literal or broken ordering)."""


class EventKind(enum.Enum):
    ZETA_ZEROS = "zeta_zeros"
    PRIMES = "primes"
    CUSTOM = "custom"


class EventSource(enum.Enum):
    COMPUTED = "computed"
    FILE = "file"
    SYNTHETIC = "synthetic"


@dataclass(frozen=True)
class EventSequence:
    """Strictly increasing positive event locations with a provenance label."""

    events: np.ndarray
    kind: EventKind
    source: EventSource

    def __post_init__(self):
        arr = np.asarray(self.events, dtype=float)
        if arr.ndim != 1:
            raise ValueError("events must be one-dimensional")
        if arr.size and arr[0] <= 0.0:
            raise ValueError("all event locations must be positive")
        if arr.size > 1 and not np.all(np.diff(arr) > 0.0):
            raise ValueError("event locations must be strictly increasing")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "events", arr)

    def __len__(self) -> int:
        return int(self.events.size)


# ---------------------------------------------------------------------------
# Primes
# ---------------------------------------------------------------------------

def sieve_primes(limit: int) -> EventSequence:
    """All primes <= limit, ascending, via the sieve of Eratosthenes."""
    if limit < 2:
        raise DomainError(f"prime sieve needs limit >= 2, got {limit}")
    limit = int(limit)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    primes = np.nonzero(flags)[0].astype(float)
    return EventSequence(primes, EventKind.PRIMES, EventSource.COMPUTED)


def synthetic_train(gap: float, t_max: float) -> EventSequence:
    """Equally spaced events gap, 2*gap, ... up to t_max (an impulse train)."""
    if gap <= 0.0 or t_max < gap:
        raise DomainError(f"need 0 < gap <= t_max, got gap={gap}, t_max={t_max}")
    n = int(math.floor(t_max / gap))
    events = gap * np.arange(1, n + 1, dtype=float)
    return EventSequence(events, EventKind.CUSTOM, EventSource.SYNTHETIC)


# ---------------------------------------------------------------------------
# zeta(1/2 + i t) by Euler-Maclaurin summation
# ---------------------------------------------------------------------------

# Bernoulli numbers B_{2k} as (numerator, denominator) for k = 1..12.
_BERNOULLI_RATIOS = [
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
    (-236364091, 2730),
]
_EM_COEF = [p / q / math.factorial(2 * (k + 1))
            for k, (p, q) in enumerate(_BERNOULLI_RATIOS)]
_EM_TERMS = 12
# Summation cutoff M = max(20, ceil(0.8 t)) keeps the correction series
# decreasing fast enough for ~1e-12 absolute error up to t ~ 5000.
_EM_M_FACTOR = 0.8

_log_cache = np.log(np.arange(1, 64, dtype=float))


def _logs(m: int) -> np.ndarray:
    global _log_cache
    if m > _log_cache.size:
        _log_cache = np.log(np.arange(1, 2 * m, dtype=float))
    return _log_cache[:m]


def _em_cutoff(t):
    """Summation cutoff M = max(20, ceil(0.8 t)), for one t or an array."""
    m = np.maximum(20, np.ceil(_EM_M_FACTOR * np.maximum(t, 1.0)))
    return m.astype(int)


def _em_correct(total, s, m):
    """total plus the Euler-Maclaurin tail after the first m terms of
    sum n^-s; elementwise on arrays of total, s and m as well as on scalars.
    """
    total = total + m ** (1.0 - s) / (s - 1.0) - 0.5 * m ** (-s)
    rising = s
    mpow = m ** (-s - 1.0)
    for k in range(1, _EM_TERMS + 1):
        total = total + _EM_COEF[k - 1] * rising * mpow
        rising = rising * (s + (2 * k - 1)) * (s + 2 * k)
        mpow = mpow / (m * m)
    return total


def zeta_half(t: float) -> complex:
    """zeta(1/2 + i*t) for real t >= 0.

    Euler-Maclaurin form with M = max(20, ceil(0.8 t)) leading terms:

        sum_{n<=M} n^-s  +  M^(1-s)/(s-1)  -  M^-s/2
        + sum_{k=1}^{12} B_{2k}/(2k)! * s(s+1)...(s+2k-2) * M^(-s-2k+1)
    """
    if t < 0.0:
        raise DomainError(f"zeta_half needs t >= 0, got {t}")
    s = complex(0.5, t)
    m = int(_em_cutoff(t))
    return _em_correct(complex(np.exp(-s * _logs(m)).sum()), s, m)


def _zeta_half_rows(t: np.ndarray) -> np.ndarray:
    """zeta_half at every t of one block: the terms n > M(t) are masked."""
    s = 0.5 + 1j * t
    m = _em_cutoff(t)
    logs = _logs(int(m.max()))
    terms = np.exp(np.outer(-s, logs))
    terms[np.arange(1, logs.size + 1) > m[:, None]] = 0.0
    return _em_correct(terms.sum(axis=1), s, m)


# ---------------------------------------------------------------------------
# Riemann-Siegel Z
# ---------------------------------------------------------------------------

def riemann_siegel_theta(t: float) -> float:
    """Phase theta(t) by its asymptotic series through the 1/t^3 term.

    theta(t) = t/2 log(t/2pi) - t/2 - pi/8 + 1/(48 t) + 7/(5760 t^3).
    Absolute error ~4e-9 at t = 10, falling like t^-5.
    """
    if t <= 0.0:
        raise DomainError(f"asymptotic theta needs t > 0, got {t}")
    return _theta_series(t)


def _theta_series(t):
    """riemann_siegel_theta without the domain check, for one t or an array."""
    return ((t / 2.0) * np.log(t / TWO_PI) - t / 2.0 - math.pi / 8.0
            + 1.0 / (48.0 * t) + 7.0 / (5760.0 * t ** 3))


# B_{2k} / (2k (2k-1)) for k = 1..7: Stirling's series for log Gamma.
_STIRLING_COEF = [p / q / ((2 * k + 2) * (2 * k + 1))
                  for k, (p, q) in enumerate(_BERNOULLI_RATIOS[:7])]


def _theta_exact(t):
    """Im log Gamma(1/4 + i t/2) - (t/2) log pi, for t >= 0 or an array.

    Stirling's series at w = 1/4 + i t/2 + 10 (|w| >= 10, truncation below
    1e-16), shifted back by Gamma(w + 1) = w Gamma(w): each of the ten steps
    subtracts arg(1/4 + k + i t/2).
    """
    w = 10.25 + 0.5j * t
    log_gamma = (w - 0.5) * np.log(w) - w + sum(
        c / w ** (2 * k + 1) for k, c in enumerate(_STIRLING_COEF))
    shift = sum(np.arctan2(0.5 * t, 0.25 + k) for k in range(10))
    return log_gamma.imag - shift - 0.5 * t * math.log(math.pi)


# Remainder kernel of the asymptotic formula:
#     Psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p),
# entire after cancelling the removable points p = 1/4 + k/2. Taylor
# derivatives at p are read off a 64-sample FFT on a complex circle; the
# half-step angular offset keeps samples away from the removable points,
# and _PSI_PHASE undoes the rotation that offset puts on coefficient k.
_PSI_ORDER = 13
_PSI_SAMPLES = 64
_PSI_RADIUS = 0.5
_PSI_CIRCLE = _PSI_RADIUS * np.exp(
    2j * np.pi * (np.arange(_PSI_SAMPLES) + 0.5) / _PSI_SAMPLES)
_PSI_PHASE = np.exp(-1j * np.pi * np.arange(_PSI_ORDER) / _PSI_SAMPLES)
_PSI_SCALE = np.array([math.factorial(k) / _PSI_RADIUS ** k
                       for k in range(_PSI_ORDER)])

_PI2 = math.pi ** 2
_PI4 = math.pi ** 4
_PI6 = math.pi ** 6
_PI8 = math.pi ** 8

# Above this height the five-term remainder stays below ~5e-11 (measured);
# below it the Euler-Maclaurin route is used instead.
RS_CROSSOVER = 1000.0


def _psi_derivatives(p):
    """Scaled Taylor coefficients d[k] of Psi at p, or at each p of an array
    (then d[k] is an array over p)."""
    w = np.asarray(p)[..., None] + _PSI_CIRCLE
    vals = np.cos(TWO_PI * (w * w - w - 1.0 / 16.0)) / np.cos(TWO_PI * w)
    coefs = np.fft.fft(vals, axis=-1)[..., :_PSI_ORDER] / _PSI_SAMPLES
    return (coefs * _PSI_PHASE * _PSI_SCALE).real.T


def _rs_correction(tau, m):
    """Remainder terms C0..C4 of the Riemann-Siegel formula at
    tau = sqrt(t/2pi), m = floor(tau); for scalars or arrays of them."""
    d = _psi_derivatives(tau - m)
    c = (
        d[0],
        -d[3] / (96.0 * _PI2),
        d[2] / (64.0 * _PI2) + d[6] / (18432.0 * _PI4),
        -d[1] / (64.0 * _PI2) - d[5] / (3840.0 * _PI4)
        - d[9] / (5308416.0 * _PI6),
        d[0] / (128.0 * _PI2) + 19.0 * d[4] / (24576.0 * _PI4)
        + 11.0 * d[8] / (5898240.0 * _PI6) + d[12] / (2038431744.0 * _PI8),
    )
    remainder = sum(c[k] * tau ** (-k) for k in range(5))
    return (-1) ** (m - 1) * tau ** -0.5 * remainder


def _rs_asymptotic(t: float) -> float:
    """Riemann-Siegel formula: main sum plus remainder terms C0..C4."""
    tau = math.sqrt(t / TWO_PI)
    m = int(tau)
    terms = np.cos(_theta_series(t) - t * _logs(m)) / np.sqrt(
        np.arange(1, m + 1))
    return 2.0 * float(terms.sum()) + _rs_correction(tau, m)


def _rs_rows(t: np.ndarray) -> np.ndarray:
    """_rs_asymptotic at every t of one block; terms n > m(t) are masked."""
    tau = np.sqrt(t / TWO_PI)
    m = tau.astype(int)
    logs = _logs(int(m.max()))
    n = np.arange(1, logs.size + 1)
    terms = np.cos(_theta_series(t)[:, None] - t[:, None] * logs) / np.sqrt(n)
    terms[n > m[:, None]] = 0.0
    return 2.0 * terms.sum(axis=1) + _rs_correction(tau, m)


def riemann_siegel_Z(t: float) -> float:
    """Real Z(t) whose sign changes bracket the critical-line zeros.

    Below t = 10 the value is the Euler-Maclaurin zeta times the exact phase
    factor. Above it the asymptotic phase series is used, with the
    Euler-Maclaurin sum up to RS_CROSSOVER and the Riemann-Siegel asymptotic
    formula beyond.
    """
    if t < 0.0:
        raise DomainError(f"Z is evaluated for t >= 0, got {t}")
    if t < 10.0:
        return (np.exp(1j * _theta_exact(t)) * zeta_half(t)).real
    if t < RS_CROSSOVER:
        return (np.exp(1j * riemann_siegel_theta(t)) * zeta_half(t)).real
    return _rs_asymptotic(t)


# Most complex terms one block of _z_batch holds (16 MiB of complex128), so
# the batch's working set stays a few blocks wide whatever the grid's size.
_Z_BLOCK_TERMS = 2 ** 20


def _blockwise(rows, t: np.ndarray, terms_per_row: int) -> np.ndarray:
    """rows(t), evaluated on consecutive blocks of at most _Z_BLOCK_TERMS
    terms, where each t needs terms_per_row of them."""
    step = max(1, _Z_BLOCK_TERMS // terms_per_row)
    parts = [rows(t[i:i + step]) for i in range(0, t.size, step)]
    return np.concatenate(parts) if parts else t


def _z_batch(ts: np.ndarray) -> np.ndarray:
    """riemann_siegel_Z at every point of ts, by the same routes and constants.

    Each route sums a matrix of terms (one row per t, the terms past the row's
    cutoff masked), block by block. Sorted input keeps the padding small,
    since a block is as wide as its largest cutoff.
    """
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0.0):
        raise DomainError(f"Z is evaluated for t >= 0, got {ts.min()}")
    z = np.empty_like(ts)
    em = ts < RS_CROSSOVER
    t = ts[em]
    low = t < 10.0
    theta = np.empty_like(t)
    theta[low] = _theta_exact(t[low])
    theta[~low] = _theta_series(t[~low])
    zeta = _blockwise(_zeta_half_rows, t, int(_em_cutoff(t.max(initial=0.0))))
    z[em] = (np.exp(1j * theta) * zeta).real
    t = ts[~em]
    z[~em] = _blockwise(_rs_rows, t, _PSI_SAMPLES + int(
        math.sqrt(t.max(initial=0.0) / TWO_PI)))
    return z


# ---------------------------------------------------------------------------
# Zero location
# ---------------------------------------------------------------------------

def zero_count_estimate(t_max: float) -> int:
    """Smooth zero-count estimate, rounded half-up.

    round((T/2pi) log(T/2pi) - T/2pi + 7/8). The neglected fluctuation term
    stays below one at desk scale, so a correct scan can differ from this
    estimate by at most one (e.g. the true counts below 30/50/500 are
    3/10/269 while the estimate gives 4/9/270).
    """
    if t_max <= 0.0:
        return 0
    x = t_max / TWO_PI
    smooth = x * math.log(x) - x + 0.875
    return max(0, int(math.floor(smooth + 0.5)))


def _refine(f, a: float, b: float, fa: float, fb: float,
            width: float) -> tuple[float, float]:
    """Shrink the bracket [a, b] of a sign change of f to width <= width.

    Needs a < b and fa * fb < 0. Illinois regula falsi (Dowell & Jarratt,
    BIT 11, 1971): the secant point replaces the end whose value has the same
    sign, and when one end is kept twice in a row its stored value is halved,
    so the secant stops crowding the other end; the end with the smaller
    |f| counts as the latest iterate, so the first step that replaces it
    already halves the other end's value. Safeguard: when two Illinois
    steps in a row leave the bracket wider than half its width before them,
    the next step bisects, so the width halves at least once every three
    evaluations. Stops early once no float lies strictly inside the bracket,
    so a width below the float spacing ends too. Returns the final bracket,
    which holds the sign change; (x, x) when f(x) == 0 exactly.
    """
    kept = "a" if abs(fb) < abs(fa) else "b"  # the end the last step kept
    start, steps = b - a, 0  # width before the latest Illinois steps; count
    while b - a > width and np.nextafter(a, b) < b:
        bisect = steps == 2
        x = 0.5 * (a + b) if bisect else a + (b - a) * (fa / (fa - fb))
        # Once an end sits on the root to rounding, the secant point lands on
        # that end again; a point width/2 inside it can end the search.
        x = min(max(x, a + 0.5 * width), b - 0.5 * width)
        fx = f(x)
        if fx == 0.0:
            return x, x
        if (fx < 0.0) == (fa < 0.0):
            a, fa = x, fx
            if kept == "b":
                fb *= 0.5
            kept = "b"
        else:
            b, fb = x, fx
            if kept == "a":
                fa *= 0.5
            kept = "a"
        steps += 1
        if bisect or b - a <= 0.5 * start:
            start, steps = b - a, 0
    return a, b


def find_zeros(
    t_min: float,
    t_max: float,
    scan_step: float = 0.05,
    bisect_width: float = 1e-9,
    count_check: bool = True,
) -> EventSequence:
    """Zero ordinates in (t_min, t_max], bracketed by sign changes of Z.

    Z is evaluated on the whole scan grid in one batch. Each bracket is then
    refined by safeguarded Illinois regula falsi, with scalar
    riemann_siegel_Z calls, until the bracket holding the sign change is at
    most bisect_width wide (the name predates the Illinois steps: it is the
    width of the final bracket); the zero is its midpoint. With count_check the
    result size is compared against zero_count_estimate; a discrepancy beyond
    the estimate's intrinsic jitter raises MissedZeroError (the scan step
    straddled a close pair of zeros). The estimate is good to +-1 per
    endpoint, so the allowed band is 1 for scans anchored at 0 and 2
    otherwise.
    """
    if t_min < 0.0 or t_min >= t_max:
        raise DomainError(f"need 0 <= t_min < t_max, got ({t_min}, {t_max})")
    if scan_step <= 0.0:
        raise DomainError(f"scan_step must be positive, got {scan_step}")
    if bisect_width <= 0.0:
        raise DomainError(f"bisect_width must be positive, got {bisect_width}")

    n_steps = int(math.ceil((t_max - t_min) / scan_step))
    ts = np.minimum(t_min + scan_step * np.arange(n_steps + 1), t_max)
    vals = _z_batch(ts)

    zeros = []
    for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
        a, b = _refine(riemann_siegel_Z, float(ts[i]), float(ts[i + 1]),
                       float(vals[i]), float(vals[i + 1]), bisect_width)
        root = 0.5 * (a + b)
        if t_min < root <= t_max:
            zeros.append(root)
    # grid points landing exactly on a zero
    for i in np.nonzero(vals == 0.0)[0]:
        root = float(ts[i])
        if t_min < root <= t_max and not any(abs(root - z) < bisect_width for z in zeros):
            zeros.append(root)
    zeros.sort()

    if count_check:
        expected = zero_count_estimate(t_max) - zero_count_estimate(t_min)
        band = 1 if t_min == 0.0 else 2
        if abs(len(zeros) - expected) > band:
            raise MissedZeroError(
                f"found {len(zeros)} zeros in ({t_min}, {t_max}] but the "
                f"counting estimate gives {expected}; the scan step "
                f"{scan_step} is too coarse to separate adjacent zeros")
    return EventSequence(np.array(zeros), EventKind.ZETA_ZEROS,
                         EventSource.COMPUTED)


# ---------------------------------------------------------------------------
# Zero tables on disk
# ---------------------------------------------------------------------------

def load_zeros(path: str | Path) -> EventSequence:
    """Read one ordinate per line; '#' comments and blank lines are skipped."""
    path = Path(path)
    ordinates: list[float] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = float(line)
            except ValueError:
                raise ZeroTableError(
                    f"{path}:{lineno}: not a decimal ordinate: {line!r}") from None
            if not math.isfinite(value) or value <= 0.0:
                raise ZeroTableError(
                    f"{path}:{lineno}: ordinate must be a positive finite "
                    f"number, got {line!r}")
            if ordinates and value <= ordinates[-1]:
                raise ZeroTableError(
                    f"{path}:{lineno}: ordinate {value} does not increase "
                    f"past {ordinates[-1]}")
            ordinates.append(value)
    return EventSequence(np.array(ordinates), EventKind.ZETA_ZEROS,
                         EventSource.FILE)
