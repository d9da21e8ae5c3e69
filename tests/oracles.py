"""Independent reference implementations used only by the tests.

Everything here is written from the defining formulas, without touching the
package's code paths: the transform oracles are literal double loops in
cmath, the prime oracle is trial division, and the zeta/Z oracles combine a
separately parameterised Euler-Maclaurin sum with multiprecision phases.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp

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


def Z_oracle(t: float) -> float:
    """Euler-Maclaurin zeta rotated by the multiprecision phase."""
    theta = float(mp.siegeltheta(t))
    return (cmath.exp(1j * theta) * zeta_half_oracle(t)).real


def Z_mpmath(t: float) -> float:
    return float(mp.siegelz(t))


def zeta_mpmath(s: float) -> float:
    return float(mp.zeta(s))


def theta_mpmath(t: float) -> float:
    return float(mp.siegeltheta(t))


def zetazero_mpmath(n: int) -> float:
    """Ordinate of the n-th zero on the critical line."""
    return float(mp.zetazero(n).imag)


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
