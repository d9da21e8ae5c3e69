"""Event sequences on the positive reals: primes and zeta-zero ordinates.

The zero machinery evaluates the real function Z(t) = exp(i*theta(t)) * zeta(1/2 + i*t),
whose sign changes bracket the ordinates of the critical-line zeros. Two
routes, each a sum of real cosines sum n^-1/2 cos(theta - t log n) plus a
correction:

* below ``RS_CROSSOVER``, Euler-Maclaurin summation: the cosines over
  n <= M = max(20, ceil(0.4 t)) plus Re(exp(i theta) * the Euler-Maclaurin
  tail to 16 terms); cost grows linearly with t. Backlund's bound on the
  tail's truncation is at most 6.7e-14, so the error is the phases'
  rounding, measured at most 1.2e-12;
* from ``RS_CROSSOVER`` on, the Riemann-Siegel formula: twice the cosines
  over n <= floor(sqrt(t/2pi)) plus the remainder terms C0..C4, read from a
  table of their power series in p = frac(sqrt(t/2pi)) (``_RS_SERIES``,
  generated by tools/rs_coefficients.py); cost grows like sqrt(t). Gabcke's
  bound on the omitted remainder, 0.017 t^(-11/4), is 9.6e-11 at t = 1000;
  the worst error measured is 6.0e-11 near t = 1040.

Both take theta from its asymptotic series, 4.6e-9 off at g_-1 = 9.6669; the
first route's Z moves only by |Z| (1 - cos e) for a phase error e. Below g_-1,
Z = -|zeta(1/2 + i t)|: no zero lies there, and Z(0) = zeta(1/2) < 0.

``_z_batch``, the zero finder's batched Z, takes the Riemann-Siegel formula
from t = 200, where Gabcke's bound holds; the first route below 200, and below
RS_CROSSOVER where |Z| <= ``_z_error`` leaves the sign open, so each sign is
``riemann_siegel_Z``'s. A cell edge with |Z| <= ``_z_error`` is in doubt.

Zeros are bracketed by Gram blocks: Z at the Gram points g_n, theta(g_n) =
n pi, in one batched call, and a block's intervals halved while it shows too
few sign changes, about 1.25 Z values per zero. Below Rosser's first failure a
block holds exactly as many zeros as intervals (Lehman 1970; Brent,
Math. Comp. 33, 1979), so any other count of sign changes raises; only a wrong
sign of Z that moves a pair within a block goes unseen. Illinois regula falsi
refines all brackets at once, in rounds of one Z call on those still open
(``_z_round``): to 1e-9, or, given the grid's period delta, on the cell edges
until a bracket holds none, so its zero's grid cell is known. All but the top
two brackets and those holding a range end take the second: to t = 3000 at
delta = 1, all but 2 of 2469.
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
    """An argument the package refuses; the CLI maps it to exit status 2."""


class MissedZeroError(RuntimeError):
    """Zeros the finder cannot account for: a Gram block short of sign
    changes after every halving, or with more than it has intervals."""


class ZeroTableError(DomainError):
    """Malformed zero-table file (bad literal or broken ordering)."""


def _integer(name: str, value) -> int:
    """value as an int; DomainError unless int or numpy integer, not bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class EventSequence:
    """Strictly increasing positive event locations."""

    events: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.events, dtype=float)
        if arr.ndim != 1:
            raise DomainError("events must be one-dimensional")
        if not np.all((arr > 0.0) & (arr < math.inf)):
            raise DomainError("all event locations must be positive and finite")
        if arr.size > 1 and not np.all(np.diff(arr) > 0.0):
            raise DomainError("event locations must be strictly increasing")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "events", arr)

    def __len__(self) -> int:
        return int(self.events.size)


# ---------------------------------------------------------------------------
# Primes
# ---------------------------------------------------------------------------

def sieve_primes(limit: int) -> EventSequence:
    """All primes <= limit, ascending, via the sieve of Eratosthenes on the
    odd numbers: flag i stands for 2i + 1, but flag 0 for 2, not 1."""
    limit = _integer("sieve limit", limit)
    if not 2 <= limit < np.iinfo(np.intp).max:  # each odd n <= limit an intp
        raise DomainError(f"sieve limit must be in 2..2^63 - 2, got {limit}")
    flags = np.ones((limit + 1) // 2, dtype=bool)
    for p in range(3, math.isqrt(limit) + 1, 2):
        if flags[p // 2]:
            flags[p * p // 2:: p] = False
    primes = 2 * np.flatnonzero(flags) + 1
    primes[0] = 2
    return EventSequence(primes.astype(float))


def synthetic_train(gap: float, t_max: float) -> EventSequence:
    """Equally spaced events gap, 2*gap, ... up to t_max (an impulse train)."""
    if not 0.0 < gap <= t_max < math.inf:
        raise DomainError(
            f"need 0 < gap <= t_max < inf, got gap={gap}, t_max={t_max}")
    n = t_max / gap
    if 8 * n > np.iinfo(np.intp).max:  # float64 bytes numpy can index
        raise DomainError(f"{n:.3g} events do not fit in one float64 array")
    events = gap * np.arange(1, math.floor(n) + 1, dtype=float)
    return EventSequence(events)


# ---------------------------------------------------------------------------
# zeta(1/2 + i t) by Euler-Maclaurin summation
# ---------------------------------------------------------------------------

# Bernoulli numbers B_{2k} as (numerator, denominator) for k = 1..16;
# tools/rs_coefficients.py --check compares them with mpmath.bernfrac.
_BERNOULLI_RATIOS = [
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
    (-236364091, 2730), (8553103, 6), (-23749461029, 870),
    (8615841276005, 14322), (-7709321041217, 510),
]
_EM_COEF = [p / q / math.factorial(2 * (k + 1))
            for k, (p, q) in enumerate(_BERNOULLI_RATIOS)]
_EM_TERMS = 16
# Cutoff M = max(20, ceil(0.4 t)): with 16 tail terms Backlund's remainder
# bound (Edwards, Riemann's Zeta Function, 6.4) stays at most 6.7e-14 below
# RS_CROSSOVER, worst at t = 50, against ~1e-12 of rounding.
_EM_M_FACTOR = 0.4


def _n_terms(m: int) -> tuple[np.ndarray, np.ndarray]:
    """log n and n^-1/2 for n = 1..m."""
    n = np.arange(1, m + 1, dtype=float)
    return np.log(n), 1.0 / np.sqrt(n)


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
    """Summation cutoff M = max(20, ceil(0.4 t)), for one t or an array."""
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
    Absolute error 4.6e-9 at g_-1 = 9.6669, falling like t^-5.
    """
    return ((t / 2.0) * np.log(t / TWO_PI) - t / 2.0 - math.pi / 8.0
            + 1.0 / (48.0 * t) + 7.0 / (5760.0 * t ** 3))


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


def _em_z(t, m):
    """Z at cutoff m: cosines over n <= m plus Re(exp(i theta) * _em_tail)."""
    theta = _theta_series(t)
    tail = _em_tail(0.5 + 1j * t, m)
    return _cos_sum(t, theta, m) + (np.exp(1j * theta) * tail).real


# g_-1, where theta = -pi: Z < 0 up to the first zero, 14.13, so it is good.
_GRAM_START = 9.6669


def riemann_siegel_Z(t: float) -> float:
    """Real Z(t) whose sign changes bracket the critical-line zeros.

    Below g_-1 it is -|zeta(1/2 + i t)|, up to RS_CROSSOVER the
    Euler-Maclaurin route and from there on the Riemann-Siegel formula.
    """
    if not 0.0 <= t < math.inf:
        raise DomainError(f"Z is evaluated for 0 <= t < inf, got {t}")
    if t >= RS_CROSSOVER:
        tau = math.sqrt(t / TWO_PI)
        return float(_rs_z(t, tau, int(tau)))
    m = int(_em_cutoff(t))
    if t < _GRAM_START:
        logs, rsqrt = _n_terms(m)
        zeta = rsqrt @ np.exp(-1j * t * logs) + _em_tail(0.5 + 1j * t, m)
        return -float(abs(zeta))
    return float(_em_z(t, m))


# Most terms one block of _z_batch (real, 1 MiB) holds, so the working set
# stays a few blocks wide whatever the batch's size; at 2^20 the blocks of a
# zero search to 3000 lifted its peak memory by 9 MiB, at 2^17 not at all.
_Z_BLOCK_TERMS = 2 ** 17


def _blockwise(rows, *cols) -> np.ndarray:
    """rows(*cols) on consecutive blocks of at most _Z_BLOCK_TERMS terms, or
    one row, where the last column holds each row's cutoff m (term count)."""
    step = max(1, _Z_BLOCK_TERMS // int(cols[-1].max(initial=1)))
    parts = [rows(*(c[i:i + step] for c in cols))
             for i in range(0, cols[0].size, step)]
    return np.concatenate(parts) if parts else cols[0]


def _z_batch(ts: np.ndarray) -> np.ndarray:
    """Z at every point of ts >= g_-1, with riemann_siegel_Z's sign.

    From _RS_PROVEN on the Riemann-Siegel formula; below RS_CROSSOVER, any
    point where |Z| <= _z_error, which leaves the sign open, and every point
    below _RS_PROVEN take the Euler-Maclaurin route instead (up to 400
    cosines a point, against up to 12). Each route sums a matrix of real
    cosine terms block by block, each row in order to its own cutoff, so
    every value depends on its t alone. Sorted input keeps the padding
    small, since a block is as wide as its largest cutoff.
    """
    ts = np.asarray(ts, dtype=float)
    if not np.all(ok := (ts >= _GRAM_START) & (ts < math.inf)):
        raise DomainError(f"batched Z needs g_-1 <= t < inf, got {ts[~ok][0]}")
    z = np.empty_like(ts)
    rs = ts >= _RS_PROVEN
    t = ts[rs]
    tau = np.sqrt(t / TWO_PI)
    z[rs] = _blockwise(_rs_z, t, tau, tau.astype(int))
    em = ~rs
    em[rs] = (t < RS_CROSSOVER) & (np.abs(z[rs]) <= _z_error(t))
    t = ts[em]
    z[em] = _blockwise(_em_z, t, _em_cutoff(t))
    return z


# Gabcke proves his bound on the remainder after C4 from this height on.
_RS_PROVEN = 200.0


def _z_error(t):
    """|_rs_z - Z| at t >= _RS_PROVEN, elementwise: Gabcke's bound 0.017
    t^(-11/4) plus a rounding model, 2 u (|theta| + t log m) sum_{n<=m}
    n^-1/2, m = floor(sqrt(t/2pi)), u = 2^-53, as each phase theta - t log n
    is off by about u (|theta| + t log n) and _rs_z doubles the sum. The
    model is not proven (theta's, log n's and cos's own rounding are left
    out), but below RS_CROSSOVER, where it settles _z_batch's signs, Gabcke's
    part is over 15 times it. Measured to 1e5, at most 0.7 of it;
    riemann_siegel_Z's 0.01 below 1000. Below _RS_PROVEN it is no proven
    bound for the Euler-Maclaurin values but a conservative doubt level:
    8e-9 at t = 200, against at most 1.2e-12 of measured error."""
    m = np.sqrt(t / TWO_PI).astype(int)
    logs, rsqrt = _n_terms(int(np.max(m, initial=1)))
    return (0.017 * t ** -2.75 + 2.0 ** -52 * np.cumsum(rsqrt)[m - 1]
            * (np.abs(_theta_series(t)) + t * logs[m - 1]))


# ---------------------------------------------------------------------------
# Zero location
# ---------------------------------------------------------------------------

def _refine(f, a, b, fa, fb, width, delta=None,
            cell=False) -> tuple[np.ndarray, np.ndarray]:
    """Shrink each bracket [a, b] of a sign change of f to width <= width,
    or, for a cell lane, until it holds no cell edge.

    Brackets are lanes of arrays, each refined on its own; each round calls f
    once, on the points of the lanes still open. Needs a < b and fa < 0 <= fb
    or fb < 0 <= fa. Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971):
    the secant point replaces the end whose value has the same sign, and when
    one end is kept twice in a row its stored value is halved, so the secant
    stops crowding the other end; the end with the smaller |f| counts as the
    latest iterate, so the first step that replaces it already halves the
    other end's value. Safeguard: when two Illinois steps in a row leave the
    bracket wider than half its width before them, the next step bisects, so
    the width halves at least once every three evaluations. A lane stops
    early once no float lies strictly inside its bracket, so a width below
    the float spacing ends too. Returns the final brackets, which hold the
    sign changes; (x, x) where f(x) == 0 exactly.

    Given the grid period delta, the lanes where cell is true step on the
    cell edges (k - 1/2) delta strictly inside them, k in lo..hi: each point
    moves to the edge nearest it, and lo or hi moves past that edge, so a
    lane with k edges takes at most k values and ends holding no edge, in
    one cell. An edge where |f| <= _z_error, a Z sign in doubt, makes its
    lane a width lane; so does an end past 2^51 cells.
    """
    a, b, fa, fb = (np.array(v, dtype=float, ndmin=1) for v in (a, b, fa, fb))
    # the end the last step kept; the width before the latest Illinois steps
    kept_b, start, steps = np.abs(fb) >= np.abs(fa), b - a, np.zeros(a.size)
    # a lane steps past an edge by k + 1, exact below 2^51 cells
    cell = np.broadcast_to(cell, a.shape) & (b < 2.0 ** 51 * (delta or 0.0))
    delta = delta if cell.any() else 1.0  # so a/delta cannot overflow
    # The edges inside. Rounded, each quotient may count one edge on or just
    # past an end, but misses none inside: test that one as points are placed.
    lo, hi = 1.0 - np.floor(0.5 - a / delta), np.floor(b / delta + 0.5)
    lo += (lo - 0.5) * delta <= a
    hi -= (hi - 0.5) * delta >= b
    i = np.arange(a.size)  # the open lanes
    while (i := i[np.where(cell[i], lo[i] <= hi[i], (b[i] - a[i] > width)
                           & (np.nextafter(a[i], b[i]) < b[i]))]).size:
        ai, bi, fai, fbi, ci = a[i], b[i], fa[i], fb[i], cell[i]
        bisect = steps[i] == 2
        x = np.where(bisect, 0.5 * (ai + bi),
                     ai + (bi - ai) * (fai / (fai - fbi)))
        # Once an end sits on the root to rounding, the secant point lands on
        # that end again; a point width/2 inside it can end the search.
        x = np.minimum(np.maximum(x, ai + 0.5 * width), bi - 0.5 * width)
        k = np.minimum(np.maximum(np.floor(x / delta + 1.0), lo[i]), hi[i])
        x = np.where(ci, (k - 0.5) * delta, x)
        fx = f(x)
        left = (fx < 0.0) == (fai < 0.0)
        halve = np.where(left == kept_b[i], 0.5, 1.0)  # the end kept twice
        a[i], fa[i] = np.where(left, x, ai), np.where(left, fx, halve * fai)
        b[i], fb[i] = np.where(left, bi, x), np.where(left, halve * fbi, fx)
        a[i[fx == 0.0]] = b[i[fx == 0.0]] = x[fx == 0.0]
        lo[i[left]], hi[i[~left]] = k[left] + 1, k[~left] - 1
        if ci.any():
            cell[i[ci]] = np.abs(fx[ci]) > _z_error(x[ci])
        kept_b[i], steps[i] = left, steps[i] + 1
        reset = i[bisect | (b[i] - a[i] <= 0.5 * start[i])]
        start[reset], steps[reset] = b[reset] - a[reset], 0
    return a, b


def _z_round(ts: np.ndarray) -> np.ndarray:
    """Z at the points of one _refine round: _z_batch, or riemann_siegel_Z
    at each of at most ten points, as one _z_batch call costs about as much
    as five to ten scalar values (below and above RS_CROSSOVER)."""
    if ts.size > 10:
        return _z_batch(ts)
    return np.array([riemann_siegel_Z(t) for t in ts.tolist()])


# Halving rounds a Gram block may take; up to t = 30000 none takes over five.
_HALVINGS = 8
_ZERO_WIDTH = 1e-9  # of each zero's final bracket
_ROSSER_FAILS = 13_999_525  # Gram point where Rosser's rule first fails


def _gram_points(n: np.ndarray) -> np.ndarray:
    """g_n, where theta(g_n) = n pi, for integers n >= -1: ten Newton steps,
    slope (1/2) log(t/2pi), on _theta_series from 2 pi (n + 1/8 + e), above
    g_n, where theta is increasing and convex. Eight reach the float to an
    ulp up to n = 1e6; the count is fixed, so g_n depends on n alone.
    """
    t = TWO_PI * (n + 0.125 + math.e)
    for _ in range(10):
        t = t - (_theta_series(t) - math.pi * n) / (0.5 * np.log(t / TWO_PI))
    return t


def _sign_changes(t_min: float, t_max: float, pad: int = 8):
    """Points t, ascending, and Z(t), whose sign changes bracket every zero
    from the last good Gram point at or below t_min (or g_-1) to the first
    at or above t_max; a Z value of exactly 0 counts as positive.

    g_n is good where (-1)^n Z(g_n) > 0. For n < _ROSSER_FAILS (DomainError at
    once past it) a Gram block, k intervals from one good point to the next,
    holds exactly k zeros (Rosser's rule, Lehman 1970; Brent 1979). A block
    with fewer sign changes is halved, up to _HALVINGS rounds; one with more
    raises MissedZeroError at once, as halving only adds sign changes. Blocks
    and halvings depend on n alone. Z comes from _z_batch, one call a round.
    """
    if t_max > _gram_points(_ROSSER_FAILS - pad - 1):
        raise DomainError(f"t_max {t_max} is past t = 6 820 051, where "
                          "Rosser's rule first fails (Lehman 1970)")
    lo = math.floor(_theta_series(max(t_min, _GRAM_START)) / math.pi)
    n = np.arange(max(-1, lo - pad),
                  math.ceil(_theta_series(t_max) / math.pi) + pad + 1)
    t = _gram_points(n)
    z = _z_batch(t)
    good = np.flatnonzero(np.where(n % 2, -z, z) > 0.0)
    below = good[(t[good] <= t_min) | (n[good] == -1)]
    above = good[t[good] >= t_max]
    if not (below.size and above.size):  # a run of bad points past an end
        return _sign_changes(t_min, t_max, 4 * pad)
    t, z = t[below[-1]:above[0] + 1], z[below[-1]:above[0] + 1]
    ends = np.isin(np.arange(below[-1], above[0] + 1), good)
    need = np.diff(np.flatnonzero(ends))  # Gram intervals per block
    for depth in itertools.count():
        change = (z[:-1] < 0.0) != (z[1:] < 0.0)
        block = np.cumsum(ends[:-1]) - 1
        found = np.bincount(block, change, need.size)
        wrong = found != need if depth == _HALVINGS else found > need
        if wrong.any():
            k = np.argmax(wrong)
            a, b = t[ends][k:k + 2]
            raise MissedZeroError(
                f"the Gram block [{a}, {b}] shows {found[k]:.0f} sign changes"
                f" of Z for {need[k]} intervals after {depth} halvings")
        short = np.flatnonzero(found < need)
        if short.size == 0:
            return t, z, change
        split = np.flatnonzero(np.isin(block, short)) + 1
        mid = 0.5 * (t[split - 1] + t[split])
        t, z = np.insert(t, split, mid), np.insert(z, split, _z_batch(mid))
        ends = np.insert(ends, split, False)


def find_zeros(t_min: float, t_max: float,
               delta: float | None = None) -> EventSequence:
    """Zero ordinates in (t_min, t_max], bracketed by sign changes of Z.

    The brackets come from Gram blocks (_sign_changes: exactly one sign
    change per zero, or MissedZeroError), whatever the ends, so (t_min,
    t_max] holds exactly the zeros of (0, B] in it, for any B >= t_max.
    One _refine call narrows them all, with _z_round's Z; each value is its
    bracket's midpoint. Without delta every bracket is narrowed to
    _ZERO_WIDTH.

    With delta, the grid's period, every value lies in its zero's cell
    floor(x/delta + 1/2) and in (t_min, t_max], and the largest value is an
    ordinate; the others need not be, so the grid and series at delta are
    those of the ordinates. Every bracket is a cell lane of _refine, which
    stops once it holds no cell edge, except the top two and one that holds
    t_min or t_max: these are narrowed to _ZERO_WIDTH.
    """
    if not 0.0 <= t_min < t_max < math.inf:
        raise DomainError(
            f"need 0 <= t_min < t_max < inf, got ({t_min}, {t_max})")
    if delta is not None and not 0.0 < delta < math.inf:
        raise DomainError(f"delta must be finite and > 0, got {delta}")

    t, z, change = _sign_changes(t_min, max(t_max, _GRAM_START))
    i = np.flatnonzero(change & (t[1:] > t_min) & (t[:-1] < t_max))
    a, b = t[i], t[i + 1]
    cell = (a >= t_min) & (b <= t_max)
    cell[-2:] = False  # the top bracket's zero may lie above t_max
    a, b = _refine(_z_round, a, b, z[i], z[i + 1], _ZERO_WIDTH, delta, cell)
    values = 0.5 * (a + b)
    return EventSequence(values[(values > t_min) & (values <= t_max)])


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
