import bisect
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaspectra import numtheory
from zetaspectra import (DomainError, EventSequence, GridSpec,
                         MissedZeroError, ZeroTableError, build_series,
                         find_zeros, load_zeros, riemann_siegel_Z,
                         sieve_primes, synthetic_train)

from zetaspectra.numtheory import (_BERNOULLI_RATIOS, _EM_TERMS,
                                   RS_CROSSOVER, _GRAM_START, _RS_PROVEN,
                                   _Z_BLOCK_TERMS, _ZERO_WIDTH, _cell_values,
                                   _em_cutoff, _gram_points, _refine,
                                   _rs_terms, _z_batch, _z_error)

from conftest import ZEROS_BELOW_100
from oracles import (Z_mpmath, Z_oracle, em_remainder_bound_mpmath,
                     explicit_formula_prime_side, explicit_formula_zero_side,
                     gram_offset_mpmath, nzeros_mpmath,
                     rs_remainder_terms_mpmath,
                     trial_division_prime_array, trial_division_primes,
                     zeta_mpmath, zetazero_mpmath)

# True zero counts below T (multiprecision oracle)
TRUE_COUNTS = {30: 3, 50: 10, 100: 29, 500: 269}


# ---------------------------------------------------------------------------
# Primes
# ---------------------------------------------------------------------------

def test_sieve_small_examples():
    assert list(sieve_primes(10).events) == [2, 3, 5, 7]
    assert list(sieve_primes(2).events) == [2]


def test_sieve_order():
    assert np.all(np.diff(sieve_primes(100).events) > 0)


@pytest.mark.parametrize("limit", [1, 0, -5, 100.5, np.float64(100.0)])
def test_sieve_rejects_empty_domain(limit):
    with pytest.raises(DomainError):
        sieve_primes(limit)


def test_sieve_matches_trial_division_exhaustively():
    assert list(sieve_primes(10 ** 4).events) == trial_division_primes(10 ** 4)


def test_sieve_matches_trial_division_at_every_limit_to_2000():
    primes = trial_division_primes(2000)
    for limit in range(2, 2001):
        want = primes[:bisect.bisect_right(primes, limit)]
        assert sieve_primes(limit).events.tolist() == want, limit


def test_sieve_matches_trial_division_next_to_prime_squares():
    # p^2 is the first multiple of p that the sieve strikes; a limit on
    # either side of it or at it, for every prime p < 1000
    primes = trial_division_prime_array(997 ** 2 + 1)
    for p in trial_division_primes(999):
        for limit in (p * p - 1, p * p, p * p + 1):
            want = primes[:np.searchsorted(primes, limit, side="right")]
            assert np.array_equal(sieve_primes(limit).events, want), limit


def test_sieve_count_to_a_million():
    # trial-division oracle count, frozen
    assert len(sieve_primes(10 ** 6)) == 78498


def test_synthetic_train():
    seq = synthetic_train(10.0, 99.0)
    assert list(seq.events) == [10, 20, 30, 40, 50, 60, 70, 80, 90]
    # the last two make 1e302 and inf events, too many for one float64 array;
    # both are refused before numpy is asked for it
    for gap, t_max in [(0.0, 50.0), (math.nan, 10.0), (10.0, math.nan),
                       (10.0, math.inf), (math.inf, math.inf),
                       (1e-300, 100.0), (1e-320, 100.0)]:
        with pytest.raises(DomainError):
            synthetic_train(gap, t_max)


@pytest.mark.parametrize("events", [[0.0, 1.0], [-1.0], [math.nan],
                                    [1.0, math.nan], [1.0, math.inf]],
                         ids=["zero", "negative", "nan", "nan-last",
                              "inf-last"])
def test_event_sequence_rejects_locations_not_positive_and_finite(events):
    with pytest.raises(ValueError):
        EventSequence(np.array(events))


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
    for t in (-0.5, -math.inf, math.nan, math.inf):
        with pytest.raises(DomainError):
            riemann_siegel_Z(t)


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


def test_Z_below_the_first_gram_point_is_minus_abs_zeta():
    # zeta(1/2 + it) has no zero below 14.13 and Z(0) = zeta(1/2) < 0, so
    # below g_-1 Z is -|zeta(1/2 + it)|, with no phase; the last point, g_-1
    # itself, takes the asymptotic phase
    ts = np.linspace(0.0, _GRAM_START, 101)
    z = np.array([riemann_siegel_Z(float(t)) for t in ts])
    assert np.max(np.abs(z - [Z_mpmath(float(t)) for t in ts])) < 1e-13
    assert np.all(z < 0.0)


def test_Z_within_error_model_of_multiprecision():
    # Below the crossover the Euler-Maclaurin tail after 16 terms at
    # M = max(20, ceil(0.4 t)) is below 6.7e-14 (Backlund's bound, pinned by
    # test_em_truncation_within_backlund_bound), and a phase error only
    # enters Z to second order; what is left is rounding. Each phase theta -
    # t log n, of size up to t log t, carries about u t log M (u = 2^-53) at
    # most 6.7e-13 below t = 1000, and over the M terms weighted by n^-1/2
    # these add like sqrt(sum 1/n) = sqrt(log M + 0.58) < 2.6 of them: 2e-12.
    # Above it see test_Z_within_its_error_bound_from_200_to_1e5.
    em = np.linspace(10.0, RS_CROSSOVER, 40, endpoint=False)
    worst = max(abs(riemann_siegel_Z(float(t)) - Z_mpmath(float(t)))
                for t in em)
    assert worst < 2e-12


def test_Z_within_its_error_bound_from_200_to_1e5():
    # _z_error is Gabcke's bound on the Riemann-Siegel remainder after C4,
    # 0.017 t^(-11/4) (PhD thesis, Goettingen 1979), proven from t = 200 and
    # the larger part up to about 1900, plus a model of the phases'
    # rounding, which takes over above: from 3e4 on Gabcke's part is below
    # 1e-14 against errors near 1e-10. The batched and the scalar route,
    # which _refine reads, stay within it. Up to 3000 the bound is at most
    # about ten times the batch's worst error seen; the model sums the m
    # phases' errors as if all had one sign, where they add more like a
    # random walk, so above it is 5-20 times (seeds 0-7).
    # The second band crowds towards 1000, where the error peaks (6e-11
    # near 1040)
    rng = np.random.default_rng(0)
    bands = [(rng.uniform(200.0, RS_CROSSOVER, 8), 0.08),
             (RS_CROSSOVER + 2000.0 * np.linspace(0.0, 1.0, 10) ** 2, 0.08),
             (np.exp(rng.uniform(math.log(3000.0), math.log(1e5), 6)), 0.04)]
    for ts, tight in bands:
        want = np.array([Z_mpmath(float(t), dps=30) for t in ts])
        bound = _z_error(ts)
        scalar = np.array([riemann_siegel_Z(float(t)) for t in ts])
        assert np.all(np.abs(scalar - want) <= bound)
        ratio = np.abs(_z_batch(ts) - want) / bound
        assert np.all(ratio <= 1.0) and ratio.max() >= tight, ratio


def test_sign_route_keeps_every_sign_the_bound_leaves_open(monkeypatch):
    # the floats on either side of zeros in [200, 1000), where |Z| is far
    # below _z_error, and Gram points between them. A Riemann-Siegel value
    # off by just under the bound towards the wrong sign flips the sign at
    # the first, so _z_batch must take the Euler-Maclaurin route wherever
    # |Z| <= the bound. The stub reads scalar Z, which takes that route
    # below RS_CROSSOVER; _z_batch would call the stub again
    zeros = find_zeros(200.0, RS_CROSSOVER).events[::40]
    scalar = np.vectorize(riemann_siegel_Z)
    near = _refine(scalar, zeros - 1e-6, zeros + 1e-6,
                   scalar(zeros - 1e-6), scalar(zeros + 1e-6), 0.0)
    gram = _gram_points(np.arange(90, 640, 40))
    ts = np.sort(np.concatenate([*near, gram]))
    exact = np.array([riemann_siegel_Z(float(t)) for t in ts])

    def off(t, tau, m):
        z = np.array([riemann_siegel_Z(float(x)) for x in t])
        return z - np.copysign(0.99 * _z_error(t), z)

    tau = np.sqrt(ts / (2 * math.pi))
    assert np.sum((off(ts, tau, tau.astype(int)) < 0.0) != (exact < 0.0)) \
        == 2 * zeros.size
    monkeypatch.setattr(numtheory, "_rs_z", off)
    assert np.array_equal(_z_batch(ts) < 0.0, exact < 0.0)


def test_em_truncation_within_backlund_bound():
    # The tail's truncation at the cutoff and term count Z uses stays well
    # below the 2e-12 of rounding that the error-model test above allows:
    # 6.7e-14 at worst, at t = 50, where the cutoff leaves its floor of 20.
    # For each cutoff the bound grows with t, so the grid holds each
    # cutoff's last t, 2.5 M. A cutoff of ceil(0.35 t) reaches 3.5e-12.
    ts = np.arange(0.0, RS_CROSSOVER, 0.5)
    worst = max(em_remainder_bound_mpmath(float(t), int(_em_cutoff(t)),
                                          _EM_TERMS) for t in ts)
    assert worst <= 1e-13


def test_bernoulli_ratios_are_exact():
    assert len(_BERNOULLI_RATIOS) >= _EM_TERMS
    for k, ratio in enumerate(_BERNOULLI_RATIOS, 1):
        assert ratio == mp.bernfrac(2 * k), k


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
    # the batch's lowest point g_-1, both ends of the Riemann-Siegel band
    # [_RS_PROVEN, RS_CROSSOVER) and just below each, and grids up to 9000
    # whose points fill more than one block on each route: a row holds
    # M = _em_cutoff(t) terms below _RS_PROVEN, floor(tau) from it on. In
    # the band the routes differ, so there the batch is within _z_error of
    # the scalar route, with its sign; elsewhere they sum the same formulas
    grid = np.concatenate([np.linspace(_GRAM_START, _RS_PROVEN, 2001,
                                       endpoint=False),
                           np.linspace(_GRAM_START, 9000.0, 40001)])
    ts = np.concatenate([[_GRAM_START, 9.999, 10.0, _RS_PROVEN,
                          np.nextafter(_RS_PROVEN, 0.0), RS_CROSSOVER,
                          np.nextafter(RS_CROSSOVER, 0.0)], grid])
    em, rs = grid[grid < _RS_PROVEN], grid[grid >= _RS_PROVEN]
    assert em.size * _em_cutoff(em.max()) > _Z_BLOCK_TERMS
    assert rs.size * math.floor(math.sqrt(rs.max() / (2 * math.pi))) \
        > _Z_BLOCK_TERMS
    batch = _z_batch(ts)
    scalar = np.array([riemann_siegel_Z(float(t)) for t in ts])
    band = (ts >= _RS_PROVEN) & (ts < RS_CROSSOVER)
    assert np.max(np.abs(batch - scalar)[~band]) < 1e-12
    assert np.all(np.abs(batch - scalar)[band] <= _z_error(ts[band]))
    assert np.array_equal(batch[band] < 0.0, scalar[band] < 0.0)
    # each value depends on its t alone: neither the order nor the padding
    # of the blocks changes a bit of it
    perm = np.random.default_rng(0).permutation(ts.size)
    assert np.array_equal(_z_batch(ts[perm]), batch[perm])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.floats(_GRAM_START, RS_CROSSOVER,
                                    exclude_max=True),
                          st.floats(RS_CROSSOVER, 9000.0)),
                min_size=1, max_size=40))
def test_batched_Z_depends_on_its_t_alone(ts):
    # a point's value in a sorted batch on both sides of the crossover, bit
    # for bit its value alone
    ts = np.sort(np.array(ts))
    batch = _z_batch(ts)
    for i in range(ts.size):
        assert batch[i] == _z_batch(ts[i:i + 1])[0], ts[i]


def test_batched_Z_does_not_depend_on_the_block_size(monkeypatch):
    # blocks of 400 terms hold one row below the crossover and ten above
    # it, against about 330 and 3500 rows at the default size
    ts = np.concatenate([np.linspace(_GRAM_START, 1200.0, 601),
                         np.linspace(5000.0, 9000.0, 201)])
    batch = _z_batch(ts)
    monkeypatch.setattr(numtheory, "_Z_BLOCK_TERMS", 400)
    assert np.array_equal(_z_batch(ts), batch)


@pytest.mark.parametrize("t_max, count", [(98.84, 29), (98.831, 28)])
def test_find_zeros_where_t_max_lies_next_to_a_zero(t_max, count):
    # one bracket holds the zero at 98.8312 and both t_max: it lies below
    # the first and above the second, where the refined zero is dropped
    found = find_zeros(3.7, t_max)
    assert len(found) == count
    for n, got in enumerate(found.events, 1):
        assert abs(got - zetazero_mpmath(n)) <= _ZERO_WIDTH


def test_batched_Z_rejects_negative():
    # and every t below g_-1: the zero finder never asks there
    for bad in (-0.5, -math.inf, math.nan, math.inf, 0.0, 9.6):
        with pytest.raises(DomainError):
            _z_batch(np.array([_GRAM_START, bad, 20.0]))


# ---------------------------------------------------------------------------
# Zero finding
# ---------------------------------------------------------------------------

def test_find_zeros_first_three():
    found = find_zeros(0.0, 30.0)
    assert len(found) == 3
    for got, want in zip(found.events, ZEROS_BELOW_100[:3]):
        assert got == pytest.approx(want, abs=1e-6)


def test_find_zeros_none_below_ten():
    # down to the least float, where t_max / 2pi underflows to 0
    for t_max in (10.0, 5e-324):
        assert len(find_zeros(0.0, t_max)) == 0


def test_find_zeros_below_100_against_fixture():
    found = find_zeros(0.0, 100.0)
    assert len(found) == 29
    for got, want in zip(found.events, ZEROS_BELOW_100):
        assert got == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("t_max", sorted(TRUE_COUNTS))
def test_find_zeros_counts(t_max):
    found = find_zeros(0.0, float(t_max))
    assert len(found) == TRUE_COUNTS[t_max]


def test_found_zeros_are_bracketed_by_Z():
    found = find_zeros(0.0, 100.0)
    for g in found.events:
        assert riemann_siegel_Z(g - 1e-6) * riemann_siegel_Z(g + 1e-6) <= 0


def test_found_zeros_have_small_residual():
    found = find_zeros(0.0, 100.0)
    for g in found.events:
        assert abs(riemann_siegel_Z(float(g))) < 1e-6


def test_found_zeros_within_final_width_of_multiprecision_zeros():
    # the zero is the midpoint of a sign-change bracket at most _ZERO_WIDTH
    # (1e-9) wide; the worst of the 29 measured 2.5e-10 (3.7e-10 with plain
    # bisection)
    found = find_zeros(0.0, 100.0)
    assert len(found) == 29
    for n, got in enumerate(found.events, 1):
        assert abs(got - zetazero_mpmath(n)) <= _ZERO_WIDTH


def test_found_zeros_from_200_to_1000_within_half_width_of_a_sign_change():
    # regula falsi there starts from Riemann-Siegel values at the bracket
    # ends and its two batched points; each zero, the midpoint of a final
    # bracket at most _ZERO_WIDTH wide, must still lie within half of it of
    # a sign change of mpmath.siegelz at 30 digits (every 40th zero)
    zeros = find_zeros(_RS_PROVEN, RS_CROSSOVER).events[::40]
    assert zeros.size >= 15
    for x in zeros.tolist():
        lo = Z_mpmath(x - 0.5 * _ZERO_WIDTH, dps=30)
        hi = Z_mpmath(x + 0.5 * _ZERO_WIDTH, dps=30)
        assert lo * hi <= 0.0, x


def test_refinement_calls_scalar_Z_only_on_its_last_small_rounds(monkeypatch):
    # the Gram blocks are batched, and so is each refinement round over the
    # open brackets; only a round of at most ten points goes through the
    # module attribute, where a caller (or a tracer) can count it: 27 calls
    # for 649 zeros, where one scalar route per bracket made 3423
    calls = []
    scalar = numtheory.riemann_siegel_Z

    def counted(t):
        calls.append(t)
        return scalar(t)

    monkeypatch.setattr(numtheory, "riemann_siegel_Z", counted)
    found = find_zeros(0.0, 1000.0)
    assert len(found) == nzeros_mpmath(1000.0)
    assert 0 < len(calls) <= len(found) / 10


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


def _flat_roots(x):
    # the fifth power of a triangle wave, with roots at the odd integers,
    # flat enough that plain regula falsi stalls, so lanes take Illinois and
    # bisection steps alike; made of correctly rounded operations only, so
    # a value does not depend on the array it is computed in
    y = np.abs(x % 4.0 - 2.0) - 1.0
    return y * (y * y) * (y * y)


def _random_brackets(rng, n):
    a = rng.uniform(0.0, 60.0, n)
    b = a + rng.uniform(0.01, 5.0, n)
    keep = (_flat_roots(a) < 0.0) != (_flat_roots(b) < 0.0)
    return a[keep], b[keep]


@pytest.mark.parametrize("width", [1e-9, 0.0])
def test_refine_lanes_equal_one_call_per_bracket(width):
    a, b = _random_brackets(np.random.default_rng(36), 400)
    assert a.size > 100
    fa, fb = _flat_roots(a), _flat_roots(b)
    lo, hi = _refine(_flat_roots, a, b, fa, fb, width)
    one = np.array([_refine(_flat_roots, *e, width)
                    for e in zip(a, b, fa, fb)])[..., 0].T
    assert np.array_equal(lo, one[0]) and np.array_equal(hi, one[1])
    assert np.all(_flat_roots(lo) * _flat_roots(hi) <= 0.0)
    assert np.all((hi - lo <= width) | (np.nextafter(lo, hi) >= hi))


def test_refine_calls_f_on_the_open_lanes_only():
    a, b = _random_brackets(np.random.default_rng(7), 100)
    fa, fb = _flat_roots(a), _flat_roots(b)
    rounds = []  # of each bracket refined on its own
    for e in zip(a, b, fa, fb):
        calls = []
        _refine(lambda x: calls.append(x.size) or _flat_roots(x), *e, 1e-9)
        assert set(calls) == {1}
        rounds.append(len(calls))
    sizes = []
    _refine(lambda x: sizes.append(x.size) or _flat_roots(x), a, b, fa, fb,
            1e-9)
    rounds = np.array(rounds)
    assert sizes == [np.sum(rounds > r) for r in range(rounds.max())]


def test_a_lane_where_f_is_zero_closes_while_the_others_go_on():
    # the secant point of [-1/2, 1/2] is 0, where sin(pi x) is exactly 0
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.sin(np.pi * x)

    a, b = np.array([0.7, -0.5, 1.8]), np.array([1.6, 0.5, 2.9])
    fa, fb = np.sin(np.pi * a), np.sin(np.pi * b)
    lo, hi = _refine(f, a, b, fa, fb, 1e-12)
    assert lo[1] == hi[1] == 0.0
    assert np.all(hi - lo <= 1e-12) and np.all(lo[[0, 2]] < hi[[0, 2]])
    assert sizes[:2] == [3, 2] and max(sizes[1:]) == 2


def test_find_zeros_counts_every_zero_to_10000_without_delta():
    # mpmath.nzeros(10000); every bracket goes through the refinement lanes
    assert len(find_zeros(0.0, 10000.0)) == 10142


def test_lehmer_pair_is_found():
    # the pair at 7005.0629 and 7005.1006, 0.038 apart; a scan lattice of
    # step 0.05 anchored at t_min = 7000.055 put both in one cell
    expected = nzeros_mpmath(7010.0) - nzeros_mpmath(7000.055)
    assert expected == 11
    assert len(find_zeros(7000.055, 7010.0)) == expected


def test_interior_range():
    found = find_zeros(20.0, 30.0)
    assert [round(t, 6) for t in found.events] == [
        pytest.approx(21.022040), pytest.approx(25.010858)]


def test_ranges_that_end_just_past_a_zero():
    # a range that ends just past the first zero, 14.1347, and one that
    # starts just past it
    assert len(find_zeros(0.0, 14.5)) == 1
    assert len(find_zeros(14.3, 30.0)) == 2


@pytest.mark.parametrize("a", [3.7, 14.13, 50.01, 77.77, 150.0, 1500.3,
                               2500.1])
def test_zeros_do_not_depend_on_where_the_range_starts(a):
    # the Gram blocks, their halvings and each bracket's refinement depend
    # on the Gram index alone, so (a, t_max] holds the zeros of (0, t_max]
    # above a
    t_max = 3000.0 if a > RS_CROSSOVER else 200.0
    whole = find_zeros(0.0, t_max).events
    assert np.array_equal(find_zeros(a, t_max).events, whole[whole > a])


@pytest.fixture(scope="module")
def zeros_3000():
    return find_zeros(0.0, 3000.0).events


@pytest.mark.parametrize("a, b", [(0.0, 14.1348), (0.0, 21.0222),
                                  (0.0, 98.84), (0.0, 1420.417),
                                  (0.0, 2930.712), (3.7, 98.84),
                                  (77.77, 1420.417), (1500.3, 2930.712)])
def test_zeros_do_not_depend_on_where_the_range_ends(a, b, zeros_3000):
    # the brackets end at the first good Gram point at or above b, and each
    # depends on its Gram index alone, so (a, b] holds exactly the zeros of
    # (0, 3000] in (a, b]; each b lies just past a zero
    whole = zeros_3000
    assert np.array_equal(find_zeros(a, b).events,
                          whole[(whole > a) & (whole <= b)])


@pytest.mark.parametrize("t_max", [100.0, 1e3, 3e3])
def test_cell_rule_gives_the_grid_and_series_of_full_refinement(t_max,
                                                                zeros_3000):
    # at delta 0.1 and 0.05 a bracket about 1 wide holds more than
    # _CELL_EDGES edges above t = 1000 and is refined; from delta 2 on the
    # first bracket [g_-1, g_0], 8.2 wide, takes its cell from Z at the
    # edges inside it, the lowest points the batch is ever asked for
    ordinates = EventSequence(zeros_3000[zeros_3000 <= t_max])
    for delta in (5.0, 2.0, 1.0, 0.5, 0.25, 0.1, 0.05):
        values = find_zeros(0.0, t_max, delta=delta)
        grid = GridSpec.for_events(values, delta=delta)
        assert grid == GridSpec.for_events(ordinates, delta=delta)
        assert np.array_equal(build_series(values, grid).values,
                              build_series(ordinates, grid).values)


def test_cell_rule_refines_brackets_that_hold_a_range_end_or_the_top_zero():
    # 14.1347 lies in the Gram bracket [9.67, 17.85], which holds t_max in
    # the first call and t_min in the second. At the third t_max, 158.825,
    # the bracket [158.35, 160.30] holds it and the zero 158.850 above it,
    # so the largest zero kept, 157.598, lies in the bracket below; its cell
    # value 157.6, the middle of cell 1576, gives ceil(157.6 / 0.1) = 1577
    # and one more sample than its zero: refining only the top bracket gets
    # 1578
    assert len(find_zeros(0.0, 14.14, delta=1.0)) == 1
    assert len(find_zeros(14.14, 30.0, delta=1.0)) == 2
    values = find_zeros(0.0, 158.8249940858339, delta=0.1)
    assert GridSpec.for_events(values, delta=0.1).length == 1577


def test_cell_rule_refines_few_brackets(monkeypatch):
    calls = []
    scalar = numtheory.riemann_siegel_Z

    def counted(t):
        calls.append(t)
        return scalar(t)

    monkeypatch.setattr(numtheory, "riemann_siegel_Z", counted)
    assert len(find_zeros(0.0, 3000.0, delta=1.0)) == 2469
    assert 0 < len(calls) < 1000  # 13 098 with every bracket refined


@pytest.mark.parametrize("delta", [1.0, 0.1, 0.05])
@pytest.mark.parametrize("a, b", [(0.0, 3000.0), (1500.3, 2930.712)])
def test_cell_values_lie_in_the_cells_of_the_ordinates(a, b, delta,
                                                       zeros_3000):
    # the contract of find_zeros(..., delta): every value lies in its
    # zero's cell floor(x/delta + 1/2) and in (a, b], and the largest value
    # is the refined top zero
    ordinates = zeros_3000[(zeros_3000 > a) & (zeros_3000 <= b)]
    values = find_zeros(a, b, delta=delta).events
    assert values.size == ordinates.size
    assert np.all((values > a) & (values <= b))
    assert np.array_equal(np.floor(values / delta + 0.5),
                          np.floor(ordinates / delta + 0.5))
    assert values[-1] == ordinates[-1]


def test_sign_route_changes_no_count_and_no_cell(monkeypatch, zeros_3000):
    # from _RS_PROVEN to RS_CROSSOVER _z_batch reads _rs_z where the bound
    # settles the sign, so the ordinates may move, but by less than a final
    # bracket; with the Euler-Maclaurin route throughout that band the
    # finder finds as many zeros, and with delta the same cells and the
    # same largest value
    cases = [(0.0, 3000.0, None), (0.0, 3000.0, 1.0), (150.0, 1200.0, 0.05)]
    fast = [zeros_3000] + [find_zeros(*c).events for c in cases[1:]]
    monkeypatch.setattr(numtheory, "_RS_PROVEN", RS_CROSSOVER)
    for (a, b, delta), got in zip(cases, fast):
        want = find_zeros(a, b, delta).events
        assert got.size == want.size, (a, b, delta)
        if delta is None:
            assert np.all(np.abs(got - want) <= _ZERO_WIDTH)
        else:
            assert np.array_equal(np.floor(got / delta + 0.5),
                                  np.floor(want / delta + 0.5))
            assert got[-1] == want[-1]


def test_cell_edge_within_the_error_bound_is_in_doubt(monkeypatch):
    # near t = 6.5e6 _z_error is about 1.2e-6: an edge reading |Z| = 1.1e-6
    # has a sign the bound leaves open, so its bracket must be refined,
    # while one reading 1.5e-6 takes its cell from the signs
    a, b, fa = np.array([6.5e6 + 0.12]), np.array([6.5e6 + 0.38]), -np.ones(1)
    assert 1.1e-6 < _z_error(6.5e6 + 0.25) < 1.5e-6
    for size, doubt in ((1.1e-6, True), (1.5e-6, False)):
        monkeypatch.setattr(numtheory, "_z_batch",
                            lambda ts, size=size: np.full(ts.shape, size))
        value, flagged = _cell_values(a, b, fa, 0.1)
        assert flagged.tolist() == [doubt], size
        assert math.floor(value[0] / 0.1 + 0.5) == 65_000_001


def test_gram_points_against_multiprecision():
    # theta(g_n) = n pi, at both ends of the heights in reach and between;
    # the asymptotic phase series is good to 4.6e-9 at g_-1 = 9.6669
    n = np.concatenate([[-1, 0, 1, 2, 125, 126], np.geomspace(10, 1e5, 12)])
    n = n.astype(int)
    g = _gram_points(n)
    assert abs(g[0] - 9.6669) < 1e-4 and np.all(np.diff(g[:6]) > 0)
    worst = max(abs(gram_offset_mpmath(float(t), int(k)))
                for t, k in zip(g, n))
    assert worst < 1e-8


@pytest.fixture(scope="module")
def zeros_22500_25000():
    return find_zeros(22500.0, 25000.0).events


def test_find_zeros_separates_the_close_pair_near_24182(zeros_22500_25000):
    # a scan lattice of step 0.05 lost a close pair here without an error
    # (3276 zeros); every Gram block resolves
    want = nzeros_mpmath(25000.0) - nzeros_mpmath(22500.0)
    assert want == 3278
    assert zeros_22500_25000.size == want


def test_find_zeros_counts_every_zero_to_30000():
    # mpmath.nzeros(30000); the 0.05 lattice raised MissedZeroError here
    assert len(find_zeros(0.0, 30000.0, delta=1.0)) == 35673


def test_unresolved_gram_block_raises_missed_zero(monkeypatch):
    # g_126 near t = 282.45 is the first bad Gram point: its block is
    # short until halved, and no halving is allowed here
    assert len(find_zeros(0.0, 300.0)) == nzeros_mpmath(300.0)
    monkeypatch.setattr(numtheory, "_HALVINGS", 0)
    with pytest.raises(MissedZeroError, match="Gram block"):
        find_zeros(0.0, 300.0)


def test_a_gram_block_with_more_sign_changes_than_intervals_raises(
        monkeypatch):
    # Z's sign flipped next to 281.215502, a second-round halving point of
    # the block [g_125, g_127], adds a spurious pair of sign changes: the
    # block shows 4 for its 2 intervals. Below Rosser's first failure a
    # block holds exactly as many zeros as intervals (Brent 1979), so the
    # pair cannot pass, whether or not the range starts at 0. The flip goes
    # into the route that gives the Gram blocks their signs
    def flipped(ts):
        z = _z_batch(ts)
        return np.where(np.abs(np.asarray(ts) - 281.215502) < 1e-5, -z, z)

    monkeypatch.setattr(numtheory, "_z_batch", flipped)
    for t_min in (200.0, 0.0):
        with pytest.raises(MissedZeroError, match="Gram block"):
            find_zeros(t_min, 300.0)


@pytest.mark.parametrize("t0", [1e3, 1e4, 24182.1])
def test_ordinates_satisfy_the_explicit_formula(t0, zeros_3000,
                                                zeros_22500_25000):
    # Weil's explicit formula with two Gaussians (sigma = 2) at +-t0: the
    # zeros within about 15 of t0 against the primes below 200. A zero
    # within 2 sigma of t0 adds at least 2 exp(-2) = 0.27; the pair lost
    # near 24182.1 put the sum off by 4.0
    zeros = {1e3: zeros_3000, 24182.1: zeros_22500_25000}.get(t0)
    if zeros is None:
        zeros = find_zeros(t0 - 25.0, t0 + 25.0).events
    assert abs(explicit_formula_zero_side(zeros, t0)
               - explicit_formula_prime_side(t0)) < 1e-8


def test_find_zeros_domain_errors():
    with pytest.raises(DomainError):
        find_zeros(-1.0, 30.0)
    with pytest.raises(DomainError):
        find_zeros(30.0, 30.0)
    for t_max in (math.nan, math.inf):
        with pytest.raises(DomainError):
            find_zeros(0.0, t_max)
    for delta in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="delta"):
            find_zeros(0.0, 30.0, delta=delta)


def test_find_zeros_refuses_heights_past_rossers_rule(monkeypatch):
    # Rosser's rule, on which the brackets rest, first fails at Gram point
    # 13 999 525, t = 6 820 051 (Lehman 1970). A range is refused when the
    # Gram points it fetches, 8 past t_max's index, would reach it; before
    # any Z value on any route, so at once, however high t_max is
    def no_z(ts):
        raise AssertionError("Z evaluated")

    for route in ("_z_batch", "riemann_siegel_Z"):
        monkeypatch.setattr(numtheory, route, no_z)
    for t_min, t_max in ((0.0, 1e7), (0.0, 1e300), (1e15, 1e15 + 1.0)):
        with pytest.raises(DomainError, match="Rosser"):
            find_zeros(t_min, t_max)
    top = float(_gram_points(numtheory._ROSSER_FAILS - 9))
    with pytest.raises(DomainError, match="Rosser"):
        find_zeros(top - 1.0, top + 0.1)
    with pytest.raises(AssertionError, match="Z evaluated"):
        find_zeros(top - 1.0, top - 0.1)


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
