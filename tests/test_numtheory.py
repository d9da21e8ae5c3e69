import math

import numpy as np
import pytest

from zetaspectra import numtheory
from zetaspectra import (DomainError, MissedZeroError, ZeroTableError,
                         find_zeros, load_zeros, riemann_siegel_Z,
                         sieve_primes, synthetic_train, zero_count_estimate)

from zetaspectra.numtheory import (RS_CROSSOVER, _Z_BLOCK_TERMS, _refine,
                                   _rs_terms, _theta_exact, _z_batch)

from conftest import ZEROS_BELOW_100
from oracles import (Z_mpmath, Z_oracle, nzeros_mpmath,
                     rs_remainder_terms_mpmath, theta_mpmath,
                     trial_division_primes, zeta_mpmath, zetazero_mpmath)

# True zero counts below T (multiprecision oracle), next to what the smooth
# counting estimate rounds to; they may differ by one, never more.
TRUE_COUNTS = {30: 3, 50: 10, 100: 29, 500: 269}
SMOOTH_COUNTS = {30: 4, 50: 9, 100: 29, 500: 270}


# ---------------------------------------------------------------------------
# Primes
# ---------------------------------------------------------------------------

def test_sieve_small_examples():
    assert list(sieve_primes(10).events) == [2, 3, 5, 7]
    assert list(sieve_primes(2).events) == [2]


def test_sieve_order():
    assert np.all(np.diff(sieve_primes(100).events) > 0)


@pytest.mark.parametrize("limit", [1, 0, -5])
def test_sieve_rejects_empty_domain(limit):
    with pytest.raises(DomainError):
        sieve_primes(limit)


def test_sieve_matches_trial_division_exhaustively():
    assert list(sieve_primes(10 ** 4).events) == trial_division_primes(10 ** 4)


def test_sieve_count_to_a_million():
    # trial-division oracle count, frozen
    assert len(sieve_primes(10 ** 6)) == 78498


def test_synthetic_train():
    seq = synthetic_train(10.0, 99.0)
    assert list(seq.events) == [10, 20, 30, 40, 50, 60, 70, 80, 90]
    with pytest.raises(DomainError):
        synthetic_train(0.0, 50.0)


# ---------------------------------------------------------------------------
# Z function
# ---------------------------------------------------------------------------

def test_Z_at_first_zero():
    assert abs(riemann_siegel_Z(14.134725)) < 1e-6


def test_Z_sign_change_brackets_first_zero():
    assert riemann_siegel_Z(14.0) * riemann_siegel_Z(15.0) < 0


def test_Z_at_origin_is_zeta_half():
    # theta(0) = 0, so Z(0) = zeta(1/2) = -1.4603545088095868...
    assert riemann_siegel_Z(0.0) == pytest.approx(zeta_mpmath(0.5), abs=1e-12)


def test_Z_rejects_negative():
    with pytest.raises(DomainError):
        riemann_siegel_Z(-0.5)


def test_Z_grid_against_euler_maclaurin_oracle():
    ts = np.linspace(10.0, 1000.0, 1000)
    worst = max(abs(riemann_siegel_Z(float(t)) - Z_oracle(float(t)))
                for t in ts)
    assert worst < 1e-8


def test_Z_spots_against_multiprecision():
    ts = list(np.linspace(0.1, 9.9, 8)) + list(np.linspace(10.0, 990.0, 16)) \
        + list(np.linspace(1001.0, 9000.0, 16))
    worst = max(abs(riemann_siegel_Z(float(t)) - Z_mpmath(float(t)))
                for t in ts)
    assert worst < 1e-8


def test_asymptotic_path_against_euler_maclaurin_oracle():
    # above the crossover Z switches to the asymptotic formula
    ts = np.linspace(1000.0, 9000.0, 60)
    worst = max(abs(riemann_siegel_Z(float(t)) - Z_oracle(float(t)))
                for t in ts)
    assert worst < 1e-8


def test_exact_theta_against_multiprecision():
    # the Stirling-series phase that Z uses below t = 10
    worst = max(abs(_theta_exact(float(t)) - theta_mpmath(float(t)))
                for t in np.linspace(0.0, 10.0, 101))
    assert worst < 1e-13


def test_Z_within_error_model_of_multiprecision():
    # Below the crossover the Euler-Maclaurin tail after 12 terms at
    # M = ceil(0.8 t) is below 1e-19, and a phase error only enters Z to
    # second order; what is left is rounding. Each phase theta - t log n,
    # of size up to t log t, carries about u t log M (u = 2^-53) at most
    # 7.4e-13 below t = 1000, and over the M terms weighted by n^-1/2 these
    # add like sqrt(sum 1/n) = sqrt(log M + 0.58) < 2.7 of them: 2e-12.
    em = np.linspace(10.0, RS_CROSSOVER, 40, endpoint=False)
    worst = max(abs(riemann_siegel_Z(float(t)) - Z_mpmath(float(t)))
                for t in em)
    assert worst < 2e-12
    # Above it the remainder after C4 is at most 0.017 t^(-11/4) (Gabcke,
    # PhD thesis, Goettingen 1979), 9.6e-11 at t = 1000, the same order as
    # the first omitted term C5 tau^(-11/2). The same rounding model gives
    # 2 sqrt(log m + 0.58) u t log m: 1e-12 at t = 1000, 1.5e-11 at 9000,
    # where Gabcke's bound is 2.3e-13. The points crowd towards 1000.
    rs = RS_CROSSOVER + 8000.0 * np.linspace(0.0, 1.0, 40) ** 2
    worst = max(abs(riemann_siegel_Z(float(t)) - Z_mpmath(float(t)))
                for t in rs)
    assert worst < 1e-10


def test_remainder_table_against_multiprecision():
    # the tabulated series of C0..C4 against derivatives of their defining
    # kernel, at both ends, the removable points 1/4 and 3/4, the centre
    # and 20 points between, one p at a time and all in one array
    ps = np.concatenate([[0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)],
                         np.linspace(0.02, 0.98, 20)])
    want = np.array([rs_remainder_terms_mpmath(float(p)) for p in ps])
    got = np.array([_rs_terms(float(p)) for p in ps])
    assert np.max(np.abs(got - want)) < 1e-14
    assert np.max(np.abs(np.array(_rs_terms(ps)).T - want)) < 1e-14


def test_batched_Z_matches_scalar():
    # both ends of the exact-phase route, both crossovers exactly, and a grid
    # up to 9000 whose points fill more than one block on each route: a row
    # holds M = ceil(0.8 t) terms below the crossover, floor(tau) above it
    grid = np.linspace(0.0, 9000.0, 40001)
    ts = np.concatenate([[0.0, 1e-3, 0.5, 9.999, 10.0, RS_CROSSOVER,
                          np.nextafter(RS_CROSSOVER, 0.0)], grid])
    em, rs = grid[grid < RS_CROSSOVER], grid[grid >= RS_CROSSOVER]
    assert em.size * math.ceil(0.8 * em.max()) > _Z_BLOCK_TERMS
    assert rs.size * math.floor(math.sqrt(rs.max() / (2 * math.pi))) \
        > _Z_BLOCK_TERMS
    batch = _z_batch(ts)
    scalar = np.array([riemann_siegel_Z(float(t)) for t in ts])
    assert np.max(np.abs(batch - scalar)) < 1e-12
    # order does not matter, only the padding of each block
    perm = np.random.default_rng(0).permutation(ts.size)
    assert np.max(np.abs(_z_batch(ts[perm]) - batch[perm])) < 1e-12


def test_batched_Z_rejects_negative():
    with pytest.raises(DomainError):
        _z_batch(np.array([1.0, -0.5, 2.0]))


# ---------------------------------------------------------------------------
# Zero finding
# ---------------------------------------------------------------------------

def test_find_zeros_first_three():
    found = find_zeros(0.0, 30.0)
    assert len(found) == 3
    for got, want in zip(found.events, ZEROS_BELOW_100[:3]):
        assert got == pytest.approx(want, abs=1e-6)


def test_find_zeros_none_below_ten():
    assert len(find_zeros(0.0, 10.0)) == 0


def test_find_zeros_below_100_against_fixture():
    found = find_zeros(0.0, 100.0)
    assert len(found) == 29
    for got, want in zip(found.events, ZEROS_BELOW_100):
        assert got == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("t_max", sorted(TRUE_COUNTS))
def test_find_zeros_counts(t_max):
    found = find_zeros(0.0, float(t_max))
    assert len(found) == TRUE_COUNTS[t_max]
    # the smooth estimate is only good to +-1
    assert abs(len(found) - zero_count_estimate(t_max)) <= 1


def test_zero_count_estimate_frozen():
    for t_max, smooth in SMOOTH_COUNTS.items():
        assert zero_count_estimate(t_max) == smooth
    assert zero_count_estimate(0.0) == 0


def test_found_zeros_are_bracketed_by_Z():
    found = find_zeros(0.0, 100.0)
    for g in found.events:
        assert riemann_siegel_Z(g - 1e-6) * riemann_siegel_Z(g + 1e-6) <= 0


def test_found_zeros_have_small_residual():
    found = find_zeros(0.0, 100.0)
    for g in found.events:
        assert abs(riemann_siegel_Z(float(g))) < 1e-6


def test_found_zeros_within_final_width_of_multiprecision_zeros():
    # the zero is the midpoint of a sign-change bracket at most 1e-9 wide;
    # the worst of the 29 measured 2.5e-10 (3.7e-10 with plain bisection)
    width = 1e-9
    found = find_zeros(0.0, 100.0, bisect_width=width)
    assert len(found) == 29
    for n, got in enumerate(found.events, 1):
        assert abs(got - zetazero_mpmath(n)) <= width


def test_refinement_calls_scalar_Z_a_few_times_per_zero(monkeypatch):
    # the scan is batched; only the refinement goes through the module
    # attribute, where a caller (or a tracer) can count it
    calls = []
    scalar = numtheory.riemann_siegel_Z

    def counted(t):
        calls.append(t)
        return scalar(t)

    monkeypatch.setattr(numtheory, "riemann_siegel_Z", counted)
    found = find_zeros(0.0, 1000.0)
    assert len(found) == nzeros_mpmath(1000.0)
    assert 0 < len(calls) <= 8 * len(found)


def test_refine_safeguard_where_regula_falsi_stalls():
    def f(x):
        calls.append(x)
        return (x - 0.3) ** 9

    a0, b0, width = 0.0, 1.0, 1e-9
    fa0, fb0 = (a0 - 0.3) ** 9, (b0 - 0.3) ** 9
    # the width halves at least once every three evaluations
    budget = 3 * math.ceil(math.log2((b0 - a0) / width))

    # plain regula falsi keeps b = 1 and creeps up from a
    a, b, fa, fb = a0, b0, fa0, fb0
    calls = []
    for _ in range(budget):
        x = a - fa * (b - a) / (fb - fa)
        fx = f(x)
        a, fa = (x, fx) if fx < 0.0 else (a, fa)
        b, fb = (b, fb) if fx < 0.0 else (x, fx)
    assert b - a > 0.5

    calls = []
    a, b = _refine(f, a0, b0, fa0, fb0, width)
    assert b - a <= width
    assert (a - 0.3) ** 9 * (b - 0.3) ** 9 <= 0.0
    assert len(calls) <= budget


def test_refine_ends_when_no_float_is_left_inside():
    # a width below the float spacing cannot be met; the bracket stops
    # narrowing at two adjacent floats instead of looping forever
    calls = []

    def f(x):
        calls.append(x)
        if len(calls) > 200:
            raise RuntimeError("refinement does not end")
        return (x - 0.1) + 1e-20  # nonzero at every float

    a, b = _refine(f, 0.0, 1.0, f(0.0), f(1.0), 1e-300)
    assert np.nextafter(a, b) == b
    assert f(a) < 0.0 < f(b)


@pytest.mark.xfail(strict=True, reason="the Lehmer pair at 7005.0629 and "
                   "7005.1006 sits inside one 0.05 scan cell; the count band "
                   "does not notice the two missing zeros")
def test_lehmer_pair_is_found():
    expected = nzeros_mpmath(7010.0) - nzeros_mpmath(7000.055)
    assert expected == 11
    assert len(find_zeros(7000.055, 7010.0)) == expected


def test_interior_range():
    found = find_zeros(20.0, 30.0)
    assert [round(t, 6) for t in found.events] == [
        pytest.approx(21.022040), pytest.approx(25.010858)]


def test_count_band_tolerates_estimate_jitter():
    # endpoints just past a zero sit where the smooth estimate is off by one;
    # the consistency band must not trip on a correct scan
    assert len(find_zeros(0.0, 14.5)) == 1
    assert len(find_zeros(14.3, 30.0)) == 2


def test_coarse_scan_raises_missed_zero():
    with pytest.raises(MissedZeroError):
        find_zeros(0.0, 50.0, scan_step=10.0)


def test_find_zeros_domain_errors():
    with pytest.raises(DomainError):
        find_zeros(-1.0, 30.0)
    with pytest.raises(DomainError):
        find_zeros(30.0, 30.0)
    for t_max in (math.nan, math.inf):
        with pytest.raises(DomainError):
            find_zeros(0.0, t_max)
    with pytest.raises(DomainError):
        find_zeros(0.0, 30.0, scan_step=0.0)
    with pytest.raises(DomainError):
        find_zeros(14.0, 14.2, bisect_width=0.0, count_check=False)


# ---------------------------------------------------------------------------
# Zero tables
# ---------------------------------------------------------------------------

def test_load_zeros_plain(tmp_path):
    p = tmp_path / "zeros.txt"
    p.write_text("14.134725\n21.022040\n")
    seq = load_zeros(p)
    assert list(seq.events) == [14.134725, 21.022040]


def test_load_zeros_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "zeros.txt"
    p.write_text("# hdr\n\n25.01\n")
    assert list(load_zeros(p).events) == [25.01]


def test_load_zeros_crlf(tmp_path):
    p = tmp_path / "zeros.txt"
    p.write_bytes(b"14.1\r\n21.0\r\n")
    assert list(load_zeros(p).events) == [14.1, 21.0]


def test_load_zeros_rejects_disorder(tmp_path):
    p = tmp_path / "zeros.txt"
    p.write_text("21.0\n14.1\n")
    with pytest.raises(ZeroTableError, match=":2:"):
        load_zeros(p)


def test_load_zeros_rejects_garbage_with_line_number(tmp_path):
    p = tmp_path / "zeros.txt"
    p.write_text("14.1\nnot-a-number\n")
    with pytest.raises(ZeroTableError, match=":2:"):
        load_zeros(p)


def test_load_zeros_rejects_nonpositive(tmp_path):
    p = tmp_path / "zeros.txt"
    p.write_text("-3.0\n")
    with pytest.raises(ZeroTableError, match=":1:"):
        load_zeros(p)


def test_load_zeros_rejects_undecodable(tmp_path):
    # a UTF-16 byte-order mark is not UTF-8
    p = tmp_path / "zeros.txt"
    p.write_bytes(b"\xff\xfe1\x004\x00.\x001\x00\n\x00")
    with pytest.raises(ZeroTableError, match="not UTF-8 text"):
        load_zeros(p)
