"""Power-series table of the Riemann-Siegel remainder terms C0..C4, and a
check of the Bernoulli numbers that the Euler-Maclaurin route sums.

The remainder of the Riemann-Siegel formula at tau = sqrt(t / 2 pi),
m = floor(tau) and p = tau - m is

    (-1)^(m-1) tau^(-1/2) (C0 + C1 / tau + C2 / tau^2 + C3 / tau^3 + C4 / tau^4)

with each Ck a fixed combination of derivatives of

    Psi(p) = cos(2 pi (p^2 - p - 1/16)) / cos(2 pi p)

(Gabcke, PhD thesis, Goettingen 1979; Edwards, Riemann's Zeta Function,
ch. 7). This script takes the Taylor series of Psi about p = 1/2 in
multiprecision, differentiates it term by term, forms C0..C4 and writes
each as a power series in z = 2p - 1. Psi(1 - p) = Psi(p), so C0, C2 and C4
are even in z and C1 and C3 are odd; row k of the table holds the
coefficients of z^(2j + k % 2), j = 0, 1, ..., cut after the last one of
magnitude 1e-17 or more (|z| <= 1, so no dropped term exceeds that).

numtheory.py's _BERNOULLI_RATIOS holds B_2k as (numerator, denominator) for
k = 1, 2, ...; --check also compares each with mpmath.bernfrac(2k).

    python tools/rs_coefficients.py          # print the table's source
    python tools/rs_coefficients.py --check  # exit 1 unless numtheory.py
                                             # holds exactly this table and
                                             # the exact Bernoulli numbers
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

import mpmath as mp

NUMTHEORY = Path(__file__).resolve().parents[1] / "src" / "zetaspectra" / "numtheory.py"
NAME = "_RS_SERIES"
BERNOULLI = "_BERNOULLI_RATIOS"
CUTOFF = 1e-17
TERMS = 120  # Taylor terms of Psi in x = p - 1/2; the cut lands near 55
DPS = 120    # the series division loses about 0.6 digits per term


def psi_taylor(terms: int) -> list:
    """Taylor coefficients a_j of Psi(1/2 + x) = -cos(2 pi x^2 - 5 pi / 8)
    / cos(2 pi x), by dividing the two even power series."""
    two_pi = 2 * mp.pi
    num = [mp.mpf(0)] * terms
    den = [mp.mpf(0)] * terms
    shift = 5 * mp.pi / 8
    # -cos(u - shift) = -cos(shift) cos(u) - sin(shift) sin(u), u = 2 pi x^2
    for j in range(0, terms, 2):
        i = j // 2
        u_term = two_pi ** i / mp.factorial(i)  # x^j in u^i / i!
        if i % 2 == 0:
            num[j] = -mp.cos(shift) * (-1) ** (i // 2) * u_term
        else:
            num[j] = -mp.sin(shift) * (-1) ** (i // 2) * u_term
        den[j] = (-1) ** i * two_pi ** j / mp.factorial(j)
    quo = []
    for j in range(terms):
        quo.append(num[j] - mp.fsum(den[i] * quo[j - i] for i in range(1, j + 1)))
    return quo


def derivative(a: list, k: int) -> list:
    """Taylor coefficients of the k-th derivative, from those of the function."""
    return [a[j + k] * mp.factorial(j + k) / mp.factorial(j)
            for j in range(len(a) - k)]


def remainder_series() -> list[tuple[float, ...]]:
    """Rows C0..C4 of the table, as floats rounded to nearest."""
    with mp.workdps(DPS):
        a = psi_taylor(TERMS)
        d = {k: derivative(a, k) for k in (0, 1, 2, 3, 4, 5, 6, 8, 9, 12)}
        pi2 = mp.pi ** 2
        combos = (
            {0: 1},
            {3: -1 / (96 * pi2)},
            {2: 1 / (64 * pi2), 6: 1 / (18432 * pi2 ** 2)},
            {1: -1 / (64 * pi2), 5: -1 / (3840 * pi2 ** 2),
             9: -1 / (5308416 * pi2 ** 3)},
            {0: 1 / (128 * pi2), 4: 19 / (24576 * pi2 ** 2),
             8: 11 / (5898240 * pi2 ** 3), 12: 1 / (2038431744 * pi2 ** 4)},
        )
        size = len(d[12])
        rows = []
        for k, combo in enumerate(combos):
            # coefficient of x^j, then of z^j = (2x)^j
            c = [mp.fsum(w * d[order][j] for order, w in combo.items()) / 2 ** j
                 for j in range(size)]
            if any(abs(c[j]) > 0 for j in range(1 - k % 2, size, 2)):
                raise AssertionError(f"C{k} has terms of the wrong parity")
            kept = [j for j in range(k % 2, size, 2) if abs(c[j]) >= CUTOFF]
            if kept[-1] > size - 20:
                raise AssertionError(f"C{k}: raise TERMS, the cut is too close")
            rows.append(tuple(float(c[j]) for j in range(k % 2, kept[-1] + 1, 2)))
    return rows


def source(rows: list[tuple[float, ...]]) -> str:
    """The assignment as it stands in numtheory.py."""
    lines = [f"{NAME} = ("]
    for row in rows:
        cells = [repr(c) for c in row]
        groups = [", ".join(cells[i:i + 3]) for i in range(0, len(cells), 3)]
        lines.append("    (" + ",\n     ".join(groups) + "),")
    lines.append(")")
    return "\n".join(lines)


def committed(name: str) -> list[tuple]:
    """The literals assigned to name, as numtheory.py holds them."""
    tree = ast.parse(NUMTHEORY.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == name):
            return list(ast.literal_eval(node.value))
    raise SystemExit(f"{NUMTHEORY}: no assignment to {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the table and the Bernoulli numbers "
                             "in numtheory.py")
    args = parser.parse_args(argv)
    rows = remainder_series()
    if not args.check:
        print(source(rows))
        return 0
    if committed(NAME) != rows:
        print(f"{NUMTHEORY}: {NAME} differs from the generated table; "
              f"replace it with the output of {Path(__file__).name}",
              file=sys.stderr)
        return 1
    print(f"{NAME}: {sum(map(len, rows))} coefficients match")
    ratios = committed(BERNOULLI)
    for k, ratio in enumerate(ratios, 1):
        if ratio != mp.bernfrac(2 * k):
            print(f"{NUMTHEORY}: {BERNOULLI}[{k - 1}] is {ratio}, but B_{2 * k}"
                  f" = {mp.bernfrac(2 * k)}", file=sys.stderr)
            return 1
    print(f"{BERNOULLI}: B_2..B_{2 * len(ratios)} match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
