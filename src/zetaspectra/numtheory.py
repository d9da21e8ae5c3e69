"""Event sequences on the positive reals: primes and zeta-zero ordinates.

The zero machinery evaluates the real function Z(t) = exp(i*theta(t)) * zeta(1/2 + i*t),
whose sign changes bracket the ordinates of the critical-line zeros. Two
routes, each a sum of real cosines sum n^-1/2 cos(theta - t log n) plus a
correction:

* below ``RS_CROSSOVER``, Euler-Maclaurin summation: the cosines over
  n <= M = max(20, ceil(0.8 t)) plus Re(exp(i theta) * the Euler-Maclaurin
  tail); cost grows linearly with t. The tail's truncation is below 1e-19,
  so the error is the phases' rounding, measured at most 1.5e-12;
* from ``RS_CROSSOVER`` on, the Riemann-Siegel formula: twice the cosines
  over n <= floor(sqrt(t/2pi)) plus the remainder terms C0..C4, read from a
  table of their power series in p = frac(sqrt(t/2pi)) (``_RS_SERIES``,
  generated by tools/rs_coefficients.py); cost grows like sqrt(t). Gabcke's
  bound on the omitted remainder, 0.017 t^(-11/4), is 9.6e-11 at t = 1000;
  the worst error measured is 6.0e-11 near t = 1040.

The phase theta is exact (Stirling's series) below t = 10 and its asymptotic
series above; below the crossover a phase error enters Z only to second order.

Zeros are found in two passes. The scan evaluates Z on one fixed lattice
j * 0.05, anchored at 0, from the last point at or below t_min to the first
at or above t_max (``_z_grid``), in fixed groups of 1024 points computed
whole, so each scan value depends on its lattice index alone. Below the
crossover the main sum of n^(-1/2 - it) over a block of 64 rows is one
complex exponential per term times one table of rotations
exp(-i j step log n), and a group's 16 blocks are one complex matrix
product; the rows from the crossover on go through one ``_z_batch`` call,
whose every value depends on its own t alone. Each sign change is then
refined by safeguarded Illinois regula falsi (``_refine``) to a bracket
1e-9 wide, about five scalar ``riemann_siegel_Z`` calls per zero. The zero
count is checked against the smooth counting estimate; a close pair of
zeros lost in one lattice cell shows only where the count then falls
outside the estimate's band.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DomainError",
    "MissedZeroError",
    "ZeroTableError",
    "EventSequence",
    "sieve_primes",
    "synthetic_train",
    "riemann_siegel_Z",
    "find_zeros",
    "load_zeros",
]

TWO_PI = 2.0 * math.pi


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class MissedZeroError(RuntimeError):
    """The zeros found in a range are too few or too many for the counting
    estimate: the scan could not separate a close pair of zeros there."""


class ZeroTableError(ValueError):
    """Malformed zero-table file (bad literal or broken ordering)."""


@dataclass(frozen=True)
class EventSequence:
    """Strictly increasing positive event locations."""

    events: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.events, dtype=float)
        if arr.ndim != 1:
            raise ValueError("events must be one-dimensional")
        if not np.all((arr > 0.0) & (arr < math.inf)):
            raise ValueError("all event locations must be positive and finite")
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
    return EventSequence(primes)


def synthetic_train(gap: float, t_max: float) -> EventSequence:
    """Equally spaced events gap, 2*gap, ... up to t_max (an impulse train)."""
    if not 0.0 < gap <= t_max < math.inf:
        raise DomainError(
            f"need 0 < gap <= t_max < inf, got gap={gap}, t_max={t_max}")
    n = int(math.floor(t_max / gap))
    events = gap * np.arange(1, n + 1, dtype=float)
    return EventSequence(events)


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

_n_cache = np.empty((2, 0))


def _n_terms(m: int) -> tuple[np.ndarray, np.ndarray]:
    """log n and n^-1/2 for n = 1..m, from a cache that grows by doubling."""
    global _n_cache
    if m > _n_cache.shape[1]:
        n = np.arange(1, max(64, 2 * m), dtype=float)
        _n_cache = np.stack([np.log(n), 1.0 / np.sqrt(n)])
    return _n_cache[0, :m], _n_cache[1, :m]


def _cos_sum(t, theta, m):
    """sum_{n<=m} n^-1/2 cos(theta - t log n), for one t or elementwise on
    arrays: then a matrix of real terms, one row per t, each row summed in
    order of n and read at its own cutoff m."""
    if np.isscalar(t):
        logs, rsqrt = _n_terms(m)
        return np.cos(theta - t * logs) @ rsqrt
    logs, rsqrt = _n_terms(int(m.max()))
    terms = np.cos(theta[:, None] - t[:, None] * logs) * rsqrt
    return np.cumsum(terms, axis=1)[np.arange(t.size), m - 1]


def _em_cutoff(t):
    """Summation cutoff M = max(20, ceil(0.8 t)), for one t or an array."""
    return np.maximum(20, np.ceil(_EM_M_FACTOR * t)).astype(int)


def _em_tail(s, m):
    """The Euler-Maclaurin tail after the first m terms of sum n^-s;
    elementwise on arrays of s and m as well as on scalars."""
    total = m ** (1.0 - s) / (s - 1.0) - 0.5 * m ** (-s)
    rising = s
    mpow = m ** (-s - 1.0)
    for k in range(1, _EM_TERMS + 1):
        total = total + _EM_COEF[k - 1] * rising * mpow
        rising = rising * (s + (2 * k - 1)) * (s + 2 * k)
        mpow = mpow / (m * m)
    return total


# ---------------------------------------------------------------------------
# Riemann-Siegel Z
# ---------------------------------------------------------------------------

def _theta_series(t):
    """Phase theta(t) by its asymptotic series through the 1/t^3 term, for
    one t > 0 or an array:

    theta(t) = t/2 log(t/2pi) - t/2 - pi/8 + 1/(48 t) + 7/(5760 t^3).
    Absolute error ~4e-9 at t = 10, falling like t^-5.
    """
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


# Remainder terms C0..C4 of the Riemann-Siegel formula (Gabcke, PhD thesis,
# Goettingen 1979; Edwards, Riemann's Zeta Function, ch. 7) as power series in
# z = 2p - 1, p = tau - m: C0, C2 and C4 are even in z and C1 and C3 odd, so
# row k holds the coefficients of z^(2j + k % 2), j = 0, 1, .... Each series
# is cut where its terms fall below 1e-17. Generated, with these literals, by
# tools/rs_coefficients.py; its --check mode compares them.
_RS_SERIES = (
    (0.3826834323650898, 0.43724046807752043, 0.1323765754803435,
     -0.013605026047674188, -0.013567621970103581, -0.0016237253231444653,
     0.0002970535373337969, 7.94330087952147e-05, 4.6556124614504504e-07,
     -1.4327251630955106e-06, -1.0354847112312946e-07, 1.2357927083861738e-08,
     1.7881083857954906e-09, -3.391414389927036e-11, -1.6326633902565907e-11,
     -3.7851093185412205e-13, 9.327423259201725e-14, 5.221843015978137e-15,
     -3.350673072744264e-16, -3.4124265228117265e-17),
    (-0.026825102628375348, 0.013784773426351853, 0.03849125048223508,
     0.009871066299062077, -0.0033107597608584044, -0.0014647808577954152,
     -1.3207940624876963e-05, 5.9227487018471416e-05, 5.980242585373449e-06,
     -9.641322456169826e-07, -1.8334733722714413e-07, 4.4670875627178334e-09,
     2.7096350821772744e-09, 7.785288654315851e-11, -2.343762601089369e-11,
     -1.5830172789987521e-12, 1.211994157372379e-13, 1.4583781161108306e-14,
     -2.878630525813192e-16, -8.662862902123724e-17),
    (0.005188542830293168, 0.00030946583880634744, -0.011335941078229373,
     0.0022330457419581446, 0.00519663740886233, 0.0003439914407620834,
     -0.0005910648427470583, -0.00010229972547935857, 2.0888392216992754e-05,
     5.927665493096536e-06, -1.6423838362436276e-07, -1.5161199700940684e-07,
     -5.907803698206668e-09, 2.0911514859478188e-09, 1.781564958329235e-10,
     -1.6164072455353832e-11, -2.3806962496667617e-12, 5.398265295542595e-14,
     1.9750142196969516e-14, 2.3332868732882633e-16, -1.118751761004808e-16),
    (-0.0013397160907194568, 0.003744215136379394, -0.0013303178919321468,
     -0.0022654660765471786, 0.0009548499998506731, 0.0006010038458963604,
     -0.00010128858286776622, -6.865733449299826e-05, 5.985366791538599e-07,
     3.331659851239947e-06, 2.1919289102435082e-07, -7.890884245681494e-08,
     -9.414685081295262e-09, 9.57011621088348e-10, 1.8763137453470662e-10,
     -4.4378376793233995e-12, -2.242673850561735e-12, -3.6276868657352434e-14,
     1.7639809550821582e-14, 7.960765246786778e-16, -9.419651490589691e-17),
    (0.00046483389361763383, -0.001005660736534047, 0.00024044856573725794,
     0.0010283086149702322, -0.0007657861071755644, -0.00020365286803084818,
     0.0002321229049106873, 3.2602144243865195e-05, -2.5579062517949524e-05,
     -4.107464438915745e-06, 1.1781113640371294e-06, 2.445656142248458e-07,
     -2.3915824767344323e-08, -7.505214207035756e-09, 1.3312279416258429e-10,
     1.344062675422562e-10, 3.513770042430486e-12, -1.519154453370392e-12,
     -8.915417681447087e-14, 1.1195891165228536e-14, 1.0516013329914816e-15,
     -5.1786552736466835e-17),
)
# The same as columns, zero-padded: row j, column k holds the coefficient of
# z^(2j + k % 2) in Ck.
_RS_TABLE = np.array(list(itertools.zip_longest(*_RS_SERIES, fillvalue=0.0)))
_RS_POWERS = np.arange(_RS_TABLE.shape[0])

# From this height on the remainder after C4 is below Gabcke's bound
# 0.017 t^(-11/4) <= 9.6e-11; below it the Euler-Maclaurin route is used.
RS_CROSSOVER = 1000.0


def _rs_terms(p):
    """C0..C4 at p in [0, 1), one product per p; floats, or arrays over p."""
    z = 2.0 * p - 1.0
    powers = np.asarray(z * z)[..., None, None] ** _RS_POWERS
    c = (powers @ _RS_TABLE)[..., 0, :].T
    return c[0], z * c[1], c[2], z * c[3], c[4]


def _rs_correction(tau, m):
    """Remainder terms C0..C4 of the Riemann-Siegel formula at
    tau = sqrt(t/2pi), m = floor(tau); for scalars or arrays of them."""
    c0, c1, c2, c3, c4 = _rs_terms(tau - m)
    u = 1.0 / tau
    remainder = c0 + u * (c1 + u * (c2 + u * (c3 + u * c4)))
    return (-1) ** (m - 1) * tau ** -0.5 * remainder


def _rs_z(t, tau, m):
    """Riemann-Siegel formula at tau = sqrt(t/2pi), m = floor(tau): twice
    the cosine sum over n <= m plus the remainder terms C0..C4."""
    return 2.0 * _cos_sum(t, _theta_series(t), m) + _rs_correction(tau, m)


def _em_z(t, theta, m):
    """Z below RS_CROSSOVER at phase theta and cutoff m: the cosine sum over
    n <= m plus Re(exp(i theta) times the Euler-Maclaurin tail of
    zeta(1/2 + i t))."""
    tail = _em_tail(0.5 + 1j * t, m)
    return _cos_sum(t, theta, m) + (np.exp(1j * theta) * tail).real


def riemann_siegel_Z(t: float) -> float:
    """Real Z(t) whose sign changes bracket the critical-line zeros.

    Below RS_CROSSOVER the value is the Euler-Maclaurin route, with the exact
    phase below t = 10 and the asymptotic phase series above it; from
    RS_CROSSOVER on it is the Riemann-Siegel asymptotic formula.
    """
    if not 0.0 <= t < math.inf:
        raise DomainError(f"Z is evaluated for 0 <= t < inf, got {t}")
    if t >= RS_CROSSOVER:
        tau = math.sqrt(t / TWO_PI)
        return float(_rs_z(t, tau, int(tau)))
    theta = _theta_exact(t) if t < 10.0 else _theta_series(t)
    return float(_em_z(t, theta, int(_em_cutoff(t))))


# Most terms one block of _z_batch (real, 1 MiB) holds, so the working set
# stays a few blocks wide whatever the batch's size. _z_grid sends all its
# rows from RS_CROSSOVER on in one call; at 2^20 its blocks lifted the peak
# memory of a scan to 3000 by 9 MiB, at 2^17 not at all.
_Z_BLOCK_TERMS = 2 ** 17


def _blockwise(rows, *cols) -> np.ndarray:
    """rows(*cols) on consecutive blocks of at most _Z_BLOCK_TERMS terms, or
    one row, where the last column holds each row's cutoff m (term count)."""
    step = max(1, _Z_BLOCK_TERMS // int(cols[-1].max(initial=1)))
    parts = [rows(*(c[i:i + step] for c in cols))
             for i in range(0, cols[0].size, step)]
    return np.concatenate(parts) if parts else cols[0]


def _theta(t: np.ndarray) -> np.ndarray:
    """The phase at every point of t below RS_CROSSOVER: exact below t = 10,
    the asymptotic series above."""
    low = t < 10.0
    theta = np.empty_like(t)
    theta[low] = _theta_exact(t[low])
    theta[~low] = _theta_series(t[~low])
    return theta


def _z_batch(ts: np.ndarray) -> np.ndarray:
    """riemann_siegel_Z at every point of ts, by the same routes and formulas.

    Each route sums a matrix of real cosine terms block by block, each row
    in order to its own cutoff, so every value depends on its t alone. Sorted
    input keeps the padding small, since a block is as wide as its largest
    cutoff.
    """
    ts = np.asarray(ts, dtype=float)
    if not np.all(ok := (ts >= 0.0) & (ts < math.inf)):
        raise DomainError(f"Z is evaluated for 0 <= t < inf, got {ts[~ok][0]}")
    z = np.empty_like(ts)
    em = ts < RS_CROSSOVER
    t = ts[em]
    z[em] = _blockwise(_em_z, t, _theta(t), _em_cutoff(t))
    t = ts[~em]
    tau = np.sqrt(t / TWO_PI)
    z[~em] = _blockwise(_rs_z, t, tau, tau.astype(int))
    return z


# Rows per block of _z_grid, each block one row of a group's matrix product,
# and blocks per group; one table of _GRID_BLOCK rotations serves every group.
_GRID_BLOCK = 64
_GRID_GROUP = 16


def _z_grid(j0: int, count: int) -> np.ndarray:
    """Z on the lattice points j * _SCAN_STEP, j0 <= j < j0 + count.

    The points are computed in whole groups of _GRID_GROUP blocks of
    _GRID_BLOCK rows, which start at lattice multiples of the group size
    whatever j0 and count, and then sliced out, so each point's value
    depends on j alone. Below RS_CROSSOVER the Euler-Maclaurin main sum
    S = sum n^(-1/2 - it) of row j in the block starting at t_b is
    n^-1/2 exp(-i t_b log n) times exp(-i j _SCAN_STEP log n). The second
    factor comes from one table for the whole call, so a block costs one
    complex exponential per term and a group's sums are one complex matrix
    product. Every row of a block sums to the block's largest cutoff M_b,
    which only makes the tail's truncation smaller; then
    Z = Re(exp(i theta) (S + tail)). The rows from RS_CROSSOVER on go to
    one _z_batch call, whose values depend on their t alone.
    """
    rows = _GRID_GROUP * _GRID_BLOCK
    first = j0 - j0 % rows
    ts = _SCAN_STEP * np.arange(first, -(-(j0 + count) // rows) * rows)
    em = int(np.searchsorted(ts, RS_CROSSOVER))
    z = np.empty(ts.size)
    z[em:] = _z_batch(ts[em:])
    t = ts[:em]
    # each block's cutoff, at its last row below the crossover
    m = _em_cutoff(t[np.minimum(np.arange(_GRID_BLOCK, em + _GRID_BLOCK,
                                          _GRID_BLOCK), em) - 1])
    logs, rsqrt = _n_terms(int(m.max(initial=0)))
    rotation = np.exp(-1j * (_SCAN_STEP * np.arange(_GRID_BLOCK)[:, None])
                      * logs)
    s = np.empty((m.size, _GRID_BLOCK), dtype=complex)
    for b in range(0, m.size, _GRID_GROUP):
        mg = m[b:b + _GRID_GROUP]
        width = int(mg[-1])
        terms = np.exp(-1j * (t[::_GRID_BLOCK][b:b + _GRID_GROUP, None]
                              * logs[:width]))
        terms *= rsqrt[:width]
        terms[np.arange(1, width + 1) > mg[:, None]] = 0.0
        s[b:b + _GRID_GROUP] = terms @ rotation[:, :width].T
    tail = _em_tail(0.5 + 1j * t, np.repeat(m, _GRID_BLOCK)[:em])
    z[:em] = (np.exp(1j * _theta(t)) * (s.ravel()[:em] + tail)).real
    return z[j0 - first:j0 - first + count]


# ---------------------------------------------------------------------------
# Zero location
# ---------------------------------------------------------------------------

def _zero_count_estimate(t_max: float) -> int:
    """Smooth zero-count estimate, rounded half-up.

    round((T/2pi) log(T/2pi) - T/2pi + 7/8). The neglected fluctuation term
    stays below one at desk scale, so a correct scan can differ from this
    estimate by at most one (e.g. the true counts below 30/50/500 are
    3/10/269 while the estimate gives 4/9/270).
    """
    if t_max <= 0.0:
        return 0
    x = t_max / TWO_PI
    # x log x -> 0 as x -> 0, where x underflows for the tiniest t_max
    smooth = (x * math.log(x) if x > 0.0 else 0.0) - x + 0.875
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


# The scan lattice j * _SCAN_STEP, anchored at 0, and the width of each
# zero's final bracket.
_SCAN_STEP = 0.05
_ZERO_WIDTH = 1e-9


def find_zeros(t_min: float, t_max: float) -> EventSequence:
    """Zero ordinates in (t_min, t_max], bracketed by sign changes of Z.

    Z is evaluated by _z_grid on the lattice j * _SCAN_STEP from the last
    lattice point at or below t_min to the first at or above t_max, so
    (t_min, t_max] holds exactly the zeros of (0, B] in it, for any
    B >= t_max. Each bracket is refined by safeguarded Illinois regula
    falsi, with scalar riemann_siegel_Z calls, to a sign-change bracket at
    most _ZERO_WIDTH wide; the zero is its midpoint. A lattice point where
    Z is exactly 0 is a zero too; it ends no sign-change bracket, so no
    refined zero repeats it. The smooth counting estimate is good to +-1 per
    endpoint: a count off by more than 1 from it (2 for a range that does
    not start at 0) raises MissedZeroError.
    """
    if not 0.0 <= t_min < t_max < math.inf:
        raise DomainError(
            f"need 0 <= t_min < t_max < inf, got ({t_min}, {t_max})")

    j0 = int(t_min // _SCAN_STEP)
    j1 = int(-(-t_max // _SCAN_STEP))
    ts = _SCAN_STEP * np.arange(j0, j1 + 1)
    vals = _z_grid(j0, j1 + 1 - j0)

    zeros = ts[vals == 0.0].tolist()
    for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
        a, b = _refine(riemann_siegel_Z, float(ts[i]), float(ts[i + 1]),
                       float(vals[i]), float(vals[i + 1]), _ZERO_WIDTH)
        zeros.append(0.5 * (a + b))
    zeros = sorted(z for z in zeros if t_min < z <= t_max)

    expected = _zero_count_estimate(t_max) - _zero_count_estimate(t_min)
    if abs(len(zeros) - expected) > (1 if t_min == 0.0 else 2):
        raise MissedZeroError(
            f"found {len(zeros)} zeros in ({t_min}, {t_max}] but the "
            f"counting estimate gives {expected}; the scan cannot separate "
            f"a close pair of zeros at this height")
    return EventSequence(np.array(zeros))


# ---------------------------------------------------------------------------
# Zero tables on disk
# ---------------------------------------------------------------------------

def load_zeros(path: str | Path) -> EventSequence:
    """Read one ordinate per line; '#' comments and blank lines are skipped."""
    path = Path(path)
    ordinates: list[float] = []
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ZeroTableError(f"{path}: not UTF-8 text") from None
    for lineno, raw in enumerate(text.split("\n"), 1):
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
    return EventSequence(np.array(ordinates))
