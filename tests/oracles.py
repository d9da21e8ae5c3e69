"""Independent reference implementations used only by the tests.

Everything here is written from the defining formulas, without touching the
package's code paths: the transform oracles are literal double loops in
cmath, the prime and prime-power oracles are trial division, and the zeta/Z
oracles combine a separately parameterised Euler-Maclaurin sum with
multiprecision phases.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np

mp.mp.dps = 20


def dft_brute(values):
    """sum_k v_k exp(-2 pi i l k / N), plain double loop."""
    n = len(values)
    out = []
    for l in range(n):
        acc = 0j
        for k, v in enumerate(values):
            acc += v * cmath.exp(-2j * cmath.pi * l * k / n)
        out.append(acc)
    return out


def idft_brute(bins):
    """(1/N) sum_l X_l exp(+2 pi i l k / N), plain double loop."""
    n = len(bins)
    out = []
    for k in range(n):
        acc = 0j
        for l, x in enumerate(bins):
            acc += x * cmath.exp(2j * cmath.pi * l * k / n)
        out.append(acc / n)
    return out


def trial_division_primes(limit):
    primes = []
    for n in range(2, limit + 1):
        d = 2
        is_prime = True
        while d * d <= n:
            if n % d == 0:
                is_prime = False
                break
            d += 1
        if is_prime:
            primes.append(n)
    return primes


def trial_division_prime_array(limit):
    """trial_division_primes(limit) as an int array, tried at once for every
    n: n is prime unless a prime d <= sqrt(limit), d != n, divides it."""
    n = np.arange(2, limit + 1)
    prime = np.ones(n.size, dtype=bool)
    for d in trial_division_primes(math.isqrt(limit)):
        prime &= (n % d != 0) | (n == d)
    return n[prime]


def prime_powers(limit):
    """Every p^k <= limit (p prime, k >= 1), ascending."""
    powers = []
    for p in trial_division_primes(limit):
        q = p
        while q <= limit:
            powers.append(q)
            q *= p
    return sorted(powers)


# --- Euler-Maclaurin zeta oracle (own truncation choices: M ~ 1.5 t, 14 terms)

_B2K = [1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
        -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
        -236364091 / 2730, 8553103 / 6, -23749461029 / 870]
_COEF = [b / math.factorial(2 * (k + 1)) for k, b in enumerate(_B2K)]


def zeta_half_oracle(t: float) -> complex:
    s = complex(0.5, t)
    m = max(30, int(math.ceil(1.5 * max(t, 1.0))))
    total = 0j
    for n in range(1, m + 1):
        total += cmath.exp(-s * math.log(n))
    total += m ** (1 - s) / (s - 1) - 0.5 * m ** (-s)
    rising = s
    mpow = m ** (-s - 1)
    for k in range(1, 15):
        total += _COEF[k - 1] * rising * mpow
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        mpow /= m * m
    return total


def em_remainder_bound_mpmath(t: float, m: int, terms: int) -> float:
    """Backlund's bound on the Euler-Maclaurin remainder of zeta(s), s =
    1/2 + i t, after the first m terms and `terms` Bernoulli corrections
    (Edwards, Riemann's Zeta Function, 6.4):

        |R_K| <= |s + 2K + 1| / (sigma + 2K + 1) |T_{K+1}|,
        T_j = B_2j / (2j)! s (s + 1) ... (s + 2j - 2) m^(-s - 2j + 1).
    """
    with mp.workdps(30):
        s = mp.mpc(0.5, t)
        j = terms + 1
        rising = mp.fprod(s + i for i in range(2 * j - 1))
        term = (mp.bernoulli(2 * j) / mp.factorial(2 * j) * rising
                * mp.power(m, -s - 2 * j + 1))
        return float(abs(s + 2 * terms + 1) / (s.real + 2 * terms + 1)
                     * abs(term))


def Z_oracle(t: float) -> float:
    """Euler-Maclaurin zeta rotated by the multiprecision phase."""
    theta = float(mp.siegeltheta(t))
    return (cmath.exp(1j * theta) * zeta_half_oracle(t)).real


def Z_mpmath(t: float) -> float:
    return float(mp.siegelz(t))


def zeta_mpmath(s: float) -> float:
    return float(mp.zeta(s))


def zetazero_mpmath(n: int) -> float:
    """Ordinate of the n-th zero on the critical line."""
    return float(mp.zetazero(n).imag)


def gram_offset_mpmath(t: float, n: int) -> float:
    """theta(t) - n pi at 30 digits: 0 at the Gram point g_n."""
    with mp.workdps(30):
        return float(mp.siegeltheta(t) - n * mp.pi)


def explicit_formula_zero_side(ordinates, t0: float,
                               sigma: float = 2.0) -> float:
    """sum h(gamma) over the zeros 1/2 + i gamma and their conjugates, for
    the positive ordinates given and h(r) = exp(-(r - t0)^2 / (2 sigma^2))
    + exp(-(r + t0)^2 / (2 sigma^2)); the second Gaussian is dropped, below
    exp(-t0^2 / (2 sigma^2)) at every ordinate."""
    return 2.0 * math.fsum(math.exp(-(g - t0) ** 2 / (2.0 * sigma ** 2))
                           for g in ordinates)


def explicit_formula_prime_side(t0: float, sigma: float = 2.0,
                                limit: int = 200) -> float:
    """The other side of Weil's explicit formula (Iwaniec & Kowalski,
    Analytic Number Theory, ch. 5) for the h of explicit_formula_zero_side:

        h(i/2) + h(-i/2) - g(0) log pi
        + (1/2pi) int h(r) Re psi(1/4 + i r/2) dr
        - 2 sum_n Lambda(n) n^(-1/2) g(log n),

    g(u) = (1/2pi) int h(r) exp(-i r u) dr
         = 2 sigma (2 pi)^(-1/2) exp(-sigma^2 u^2 / 2) cos(t0 u).

    Both h and Re psi are even, so the integral is twice the one over the
    Gaussian at +t0, taken 12 sigma each side of it. Over n > limit,
    g(log n) is below exp(-14) n^(-1/2) at the defaults.
    """
    with mp.workdps(20):
        t0, sigma = mp.mpf(t0), mp.mpf(sigma)

        def h(r):
            return (mp.exp(-(r - t0) ** 2 / (2 * sigma ** 2))
                    + mp.exp(-(r + t0) ** 2 / (2 * sigma ** 2)))

        def g(u):
            return (2 * sigma / mp.sqrt(2 * mp.pi)
                    * mp.exp(-sigma ** 2 * u ** 2 / 2) * mp.cos(t0 * u))

        gamma = mp.quad(lambda r: mp.exp(-(r - t0) ** 2 / (2 * sigma ** 2))
                        * mp.re(mp.digamma(mp.mpf(1) / 4 + 0.5j * r)),
                        [t0 - 12 * sigma, t0, t0 + 12 * sigma]) / mp.pi
        primes = mp.fsum(mp.log(p) / mp.sqrt(q) * g(mp.log(q))
                         for p in trial_division_primes(limit)
                         for q in (p ** k for k in range(1, limit.bit_length()))
                         if q <= limit)
        total = (h(0.5j) + h(-0.5j) - g(0) * mp.log(mp.pi) + gamma
                 - 2 * primes)
        return float(mp.re(total))


def nzeros_mpmath(t: float) -> int:
    """Number of zeros with ordinate in (0, t]."""
    return int(mp.nzeros(t))


def rs_remainder_terms_mpmath(p: float) -> list[float]:
    """C0..C4 of the Riemann-Siegel remainder at p = frac(sqrt(t / 2 pi)),
    as combinations of the derivatives of

        Psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p)

    (Edwards, Riemann's Zeta Function, ch. 7), differentiated numerically in
    multiprecision. Psi has removable singularities at p = 1/4 + k/2, so the
    difference stencil is shifted half a step off p, and 60 extra bits
    (addprec) keep the near 0/0 quotients there accurate.
    """
    def psi(x):
        return (mp.cos(2 * mp.pi * (x * x - x - mp.mpf(1) / 16))
                / mp.cos(2 * mp.pi * x))

    with mp.workdps(20):
        d = {k: mp.diff(psi, mp.mpf(p), k, singular=True, addprec=60)
             for k in (0, 1, 2, 3, 4, 5, 6, 8, 9, 12)}
        pi2 = mp.pi ** 2
        terms = (
            d[0],
            -d[3] / (96 * pi2),
            d[2] / (64 * pi2) + d[6] / (18432 * pi2 ** 2),
            -d[1] / (64 * pi2) - d[5] / (3840 * pi2 ** 2)
            - d[9] / (5308416 * pi2 ** 3),
            d[0] / (128 * pi2) + 19 * d[4] / (24576 * pi2 ** 2)
            + 11 * d[8] / (5898240 * pi2 ** 3)
            + d[12] / (2038431744 * pi2 ** 4),
        )
        return [float(c) for c in terms]
