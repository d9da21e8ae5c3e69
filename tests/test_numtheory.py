import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetaspectra import numtheory
from zetaspectra import (DomainError, EventSequence, MissedZeroError,
                         ZeroTableError, find_zeros, load_zeros,
                         riemann_siegel_Z, sieve_primes, synthetic_train)

from zetaspectra.numtheory import (_GRID_BLOCK, _GRID_GROUP, RS_CROSSOVER,
                                   _Z_BLOCK_TERMS, _ZERO_WIDTH, _em_cutoff,
                                   _refine, _rs_terms, _theta_exact, _z_batch,
                                   _z_grid, _zero_count_estimate)

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
    for gap, t_max in [(0.0, 50.0), (math.nan, 10.0), (10.0, math.nan),
                       (10.0, math.inf), (math.inf, math.inf)]:
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
    # each value depends on its t alone: neither the order nor the padding
    # of the blocks changes a bit of it
    perm = np.random.default_rng(0).permutation(ts.size)
    assert np.array_equal(_z_batch(ts[perm]), batch[perm])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.floats(0.0, RS_CROSSOVER, exclude_max=True),
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
    # it, against about 160 and 3500 rows at the default size
    ts = np.concatenate([np.linspace(0.0, 1200.0, 601),
                         np.linspace(5000.0, 9000.0, 201)])
    batch = _z_batch(ts)
    monkeypatch.setattr(numtheory, "_Z_BLOCK_TERMS", 400)
    assert np.array_equal(_z_batch(ts), batch)


def _grid_rows(j0, count):
    """The lattice j * _SCAN_STEP for 0 <= j < j0 + count, the index of its
    first point at or above the crossover, each lattice block's cutoff (at
    its last row below the crossover), the index of the first block of the
    group after j0's, and the rows from j0 on to check: the first and last
    rows of the first blocks, of a middle block, of the blocks on both sides
    of that group boundary and of the last block below the crossover; rows
    below t = 10; the rows on both sides of the crossover."""
    ts = numtheory._SCAN_STEP * np.arange(j0 + count)
    em = int(np.sum(ts < RS_CROSSOVER))
    ends = np.minimum(np.arange(_GRID_BLOCK, em + _GRID_BLOCK, _GRID_BLOCK),
                      em)
    m = _em_cutoff(ts[ends - 1])
    first = j0 // _GRID_BLOCK
    # groups of _GRID_GROUP blocks start at lattice multiples (see _z_grid)
    boundary = (first // _GRID_GROUP + 1) * _GRID_GROUP
    picked = {first, first + 1, first + 2, (first + m.size) // 2,
              boundary - 1, boundary, m.size - 1}
    rows = {r for b in picked if b < m.size
            for r in (b * _GRID_BLOCK, ends[b] - 1)}
    rows |= set(np.flatnonzero(ts < 10.0)[::40].tolist())
    rows |= {em - 1, em}
    return ts, em, m, boundary, sorted(r for r in rows if r >= j0)


# Starts of the slices that must equal the whole grid's points: inside the
# first group, inside a later one, and in the last block below the crossover
# at step 0.05; each slice ends inside a group.
SLICE_STARTS = (370, 5000, 19979)
SLICE_COUNT = 2000


def _assert_slices_match(whole):
    for j0 in SLICE_STARTS:
        assert (j0 + SLICE_COUNT) % (_GRID_GROUP * _GRID_BLOCK) != 0
        assert np.array_equal(_z_grid(j0, SLICE_COUNT),
                              whole[j0:j0 + SLICE_COUNT]), j0


@pytest.mark.parametrize("t_min, step, t_max", [(0.0, 0.01, 1100.0),
                                                (3.7, 0.0073, 1100.0)])
def test_grid_Z_within_error_model_of_multiprecision(t_min, step, t_max,
                                                     monkeypatch):
    # Row j of the block that starts at row t_b sums the terms n^-1/2
    # exp(-i t_b log n) exp(-i j step log n) to the block's cutoff M; the
    # phases round as in test_Z_within_error_model_of_multiprecision, to
    # u t log M sqrt(log M + 0.58). Near t = 0 that vanishes, and what is
    # left is the arithmetic on each term: its exponential, the scaling, the
    # table entry, the product and the sum each add at most about u of the
    # term's size n^-1/2, 5 u sum n^-1/2 in all. The rotation stands for the
    # point t_b + j step, while theta and the tail are taken at the row's
    # float t: the sum S moves by at most |t_b + j step - t| |S'| between
    # them, and |S'| <= sum_{n <= M} log n / sqrt n. From the crossover on
    # the rows are _z_batch's, within that test's 1e-10.
    monkeypatch.setattr(numtheory, "_SCAN_STEP", step)
    j0 = int(t_min // step)
    count = 1 + math.ceil((t_max - j0 * step) / step)
    ts, em, m, boundary, rows = _grid_rows(j0, count)
    assert boundary < m.size  # the rows checked span more than one group
    z = _z_grid(j0, count)
    u = 2.0 ** -53
    for i in rows:
        err = abs(z[i - j0] - Z_mpmath(float(ts[i])))
        if i >= em:
            assert err < 1e-10, ts[i]
            continue
        b, j = divmod(i, _GRID_BLOCK)
        mb = int(m[b])
        logm = math.log(mb)
        n = np.arange(1, mb + 1)
        offset = abs(Fraction(float(ts[b * _GRID_BLOCK])) + j * Fraction(step)
                     - Fraction(float(ts[i])))
        bound = (u * ts[i] * logm * math.sqrt(logm + 0.58)
                 + 5 * u * np.sum(1.0 / np.sqrt(n))
                 + float(offset) * np.sum(np.log(n) / np.sqrt(n)))
        assert err <= bound, (ts[i], err, bound)
    # the groups lie on the lattice: whatever a call's start and end, its
    # points equal those of the call from 0, bit for bit
    whole = _z_grid(0, j0 + count)
    assert np.array_equal(z, whole[j0:])
    _assert_slices_match(whole)


def test_grid_Z_signs_match_batch_on_the_scan_grid():
    # find_zeros' grid on [0, 3000]: the brackets it refines are the same
    count = 60001
    ts = 0.05 * np.arange(count)
    z = _z_grid(0, count)
    batch = _z_batch(ts)
    assert np.array_equal(np.sign(z), np.sign(batch))
    # from the crossover on the grid's rows are _z_batch's, bit for bit
    rs = ts >= RS_CROSSOVER
    assert np.array_equal(z[rs], batch[rs])
    # a start in the last block below the crossover, where that block alone
    # would be a one-row product, gives the same points bit for bit, and so
    # do slices that start and end inside groups
    assert np.array_equal(_z_grid(19979, count - 19979), z[19979:])
    _assert_slices_match(z)


@pytest.mark.parametrize("t_max, count", [(98.84, 29), (98.831, 28)])
def test_find_zeros_where_the_step_does_not_divide_the_range(t_max, count):
    # the scan ends at the first lattice point at or above t_max, 98.85, so
    # the last cell is [98.80, 98.85] for both: it brackets the zero at
    # 98.8312, which lies below the first t_max and above the second, where
    # the refined zero is dropped
    assert np.sign(Z_mpmath(98.85)) != np.sign(Z_mpmath(98.8))
    found = find_zeros(3.7, t_max)
    assert len(found) == count
    for n, got in enumerate(found.events, 1):
        assert abs(got - zetazero_mpmath(n)) <= _ZERO_WIDTH


def test_batched_Z_rejects_negative():
    for bad in (-0.5, -math.inf, math.nan, math.inf):
        with pytest.raises(DomainError):
            _z_batch(np.array([1.0, bad, 20.0]))


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
    # the smooth estimate is only good to +-1
    assert abs(len(found) - _zero_count_estimate(t_max)) <= 1


def test_zero_count_estimate_frozen():
    for t_max, smooth in SMOOTH_COUNTS.items():
        assert _zero_count_estimate(t_max) == smooth
    assert _zero_count_estimate(0.0) == 0


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


def test_lehmer_pair_is_found():
    # the pair at 7005.0629 and 7005.1006 falls in two lattice cells; a
    # lattice anchored at t_min = 7000.055 put both in one
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


@pytest.mark.parametrize("a", [3.7, 14.13, 50.01, 77.77, 150.0, 1500.3,
                               2500.1])
def test_zeros_do_not_depend_on_where_the_range_starts(a):
    # the lattice and its blocks are anchored at 0, so (a, t_max] is scanned
    # with the values of (0, t_max] above a and holds the same zeros
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
    # the scan ends on the lattice, at its first point at or above b, and
    # each point's value depends on its lattice index alone, so (a, b] holds
    # exactly the zeros of (0, 3000] in (a, b]; the b just past a zero put
    # that zero in the last cell
    whole = zeros_3000
    assert np.array_equal(find_zeros(a, b).events,
                          whole[(whole > a) & (whole <= b)])


def test_coarse_scan_raises_missed_zero(monkeypatch):
    monkeypatch.setattr(numtheory, "_SCAN_STEP", 10.0)
    with pytest.raises(MissedZeroError, match="close pair"):
        find_zeros(0.0, 50.0)


def test_find_zeros_domain_errors():
    with pytest.raises(DomainError):
        find_zeros(-1.0, 30.0)
    with pytest.raises(DomainError):
        find_zeros(30.0, 30.0)
    for t_max in (math.nan, math.inf):
        with pytest.raises(DomainError):
            find_zeros(0.0, t_max)


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
