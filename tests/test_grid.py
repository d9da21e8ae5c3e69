import math

import numpy as np
import pytest

from zetaspectra import (DomainError, EventSequence, GridSpec, MangoldtSeries,
                         build_series)
from zetaspectra.grid import MAX_LENGTH

from conftest import ZEROS_BELOW_100_MARKS, ZEROS_BELOW_100


def events_of(locations):
    return EventSequence(np.asarray(sorted(locations), dtype=float))


def marks(series):
    return np.flatnonzero(series.values).tolist()


# ---------------------------------------------------------------------------
# GridSpec
# ---------------------------------------------------------------------------

def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(delta=0.0, length=10)
    with pytest.raises(ValueError):
        GridSpec(delta=1.0, length=1)
    for delta in (math.nan, math.inf):
        with pytest.raises(ValueError):
            GridSpec(delta=delta, length=10)


@pytest.mark.parametrize("length", [2.5, 10.0, np.float64(10), True, "10",
                                    None],
                         ids=["fraction", "whole-float", "numpy-float", "bool",
                              "str", "none"])
def test_gridspec_refuses_a_length_that_is_not_an_integer(length):
    # np.arange would give a length of 2.5 three locations, and np.zeros a
    # TypeError in build_series
    with pytest.raises(DomainError, match="integer"):
        GridSpec(delta=1.0, length=length)


def test_gridspec_takes_a_numpy_integer_length():
    series = build_series(events_of([3.0]), GridSpec(1.0, np.int64(5)))
    assert marks(series) == [3] and series.values.size == 5


def test_gridspec_for_events_default_rule():
    events = events_of(ZEROS_BELOW_100)
    grid = GridSpec.for_events(events)
    assert grid.length == 100  # ceil(98.83) + 1
    assert grid.delta == 1.0


def test_gridspec_for_events_refuses_a_length_that_is_not_finite():
    # 7 / 1e-320 overflows to inf, which no sample count can hold
    with pytest.raises(DomainError, match="longer than 3037000499 samples"):
        GridSpec.for_events(events_of([7.0]), delta=1e-320)


def test_gridspec_refuses_a_length_past_max_length():
    # a GridSpec allocates nothing, so the longest grid costs nothing here
    assert GridSpec(1.0, MAX_LENGTH).length == 3_037_000_499
    with pytest.raises(DomainError, match="2..3037000499"):
        GridSpec(1.0, MAX_LENGTH + 1)
    # an event at MAX_LENGTH - 1 needs the longest grid, one at MAX_LENGTH
    # a sample more
    assert GridSpec.for_events(events_of([3037000498.0])).length == MAX_LENGTH
    with pytest.raises(DomainError, match="longer than"):
        GridSpec.for_events(events_of([3037000499.0]))


def test_gridspec_locations():
    grid = GridSpec(delta=0.5, length=4)
    assert list(grid.locations()) == [0.0, 0.5, 1.0, 1.5]


# ---------------------------------------------------------------------------
# The sample index of one event: the cell build_series marks
# ---------------------------------------------------------------------------

def sample_index(x, grid):
    """The one index a single event at x marks, or None when it is dropped."""
    marked = marks(build_series(events_of([x]), grid))
    assert len(marked) <= 1
    return marked[0] if marked else None


def test_sample_index_nearest():
    grid = GridSpec(delta=1.0, length=100)
    assert sample_index(14.134725, grid) == 14


def test_sample_index_half_up():
    grid = GridSpec(delta=1.0, length=100)
    assert sample_index(0.5, grid) == 1
    assert sample_index(1.49, grid) == 1


def test_sample_index_out_of_range():
    grid = GridSpec(delta=1.0, length=100)
    assert sample_index(250.0, grid) is None
    assert sample_index(0.4, grid) == 0
    assert sample_index(99.4, grid) == 99
    assert sample_index(99.5, grid) is None  # the tie rounds up, off the grid
    assert sample_index(99.6, grid) is None


def test_sample_index_with_delta():
    grid = GridSpec(delta=0.5, length=10)
    assert sample_index(0.2, grid) == 0
    assert sample_index(0.25, grid) == 1
    assert sample_index(3.26, grid) == 7
    assert sample_index(4.7, grid) == 9
    assert sample_index(4.75, grid) is None


# ---------------------------------------------------------------------------
# build_series
# ---------------------------------------------------------------------------

def test_build_series_zeros_to_100(zeros100_series):
    assert marks(zeros100_series) == list(ZEROS_BELOW_100_MARKS)
    assert zeros100_series.mark_count == 29
    assert zeros100_series.values.sum() == 29.0


def test_build_series_empty_events():
    empty = EventSequence(np.array([]))
    series = build_series(empty, GridSpec(delta=1.0, length=8))
    assert series.mark_count == 0
    assert np.all(series.values == 0.0)


def test_build_series_nearest_rule_per_event():
    series = build_series(events_of([10.4, 10.6]), GridSpec(delta=1.0, length=16))
    assert marks(series) == [10, 11]


def test_build_series_matches_per_event_rounding():
    # reference: the nearest-sample rule applied one event at a time,
    # over exact half-way ties and events beyond the grid
    rng = np.random.default_rng(17)
    grid = GridSpec(delta=0.25, length=200)
    ties = grid.delta * np.arange(0.5, 250.0)
    locs = np.unique(np.concatenate([rng.uniform(0.5, 60.0, 300), ties]))
    want = set()
    for x in locs.tolist():
        idx = math.floor(x / grid.delta + 0.5)
        if 0 <= idx < grid.length:
            want.add(idx)
    assert marks(build_series(events_of(locs), grid)) == sorted(want)


def test_build_series_idempotent_marking():
    # both events land in cell 10; the weight stays one
    series = build_series(events_of([10.4, 10.45]), GridSpec(delta=1.0, length=16))
    assert marks(series) == [10]
    assert series.values[10] == 1.0


def test_build_series_out_of_range_events_dropped():
    series = build_series(events_of([3.0, 250.0]), GridSpec(delta=1.0, length=10))
    assert marks(series) == [3]


def test_build_series_set_union_semantics():
    rng = np.random.default_rng(7)
    locs = np.unique(np.round(rng.uniform(0.3, 60.0, size=40), 3))
    grid = GridSpec(delta=1.0, length=64)
    whole = build_series(events_of(locs), grid)
    left = build_series(events_of(locs[::2]), grid)
    right = build_series(events_of(locs[1::2]), grid)
    assert set(marks(whole)) == set(marks(left)) | set(marks(right))


def test_build_series_mark_count_bounds():
    rng = np.random.default_rng(11)
    locs = np.unique(rng.uniform(0.5, 30.0, size=50))
    series = build_series(events_of(locs), GridSpec(delta=1.0, length=32))
    assert series.values.sum() == series.mark_count <= locs.size


@pytest.mark.parametrize("factor", [0.25, 2.0, 3.0])
def test_build_series_scale_invariance(factor):
    rng = np.random.default_rng(13)
    locs = np.unique(rng.uniform(0.5, 50.0, size=60))
    # stay away from rounding ties so rescaling cannot flip an index
    locs = locs[np.abs((locs % 1.0) - 0.5) > 1e-3]
    base = build_series(events_of(locs), GridSpec(delta=1.0, length=64))
    scaled = build_series(events_of(locs * factor),
                          GridSpec(delta=factor, length=64))
    assert marks(scaled) == marks(base)


# ---------------------------------------------------------------------------
# MangoldtSeries validation
# ---------------------------------------------------------------------------

def test_series_rejects_non_indicator_values():
    grid = GridSpec(delta=1.0, length=4)
    with pytest.raises(ValueError):
        MangoldtSeries(values=np.array([0.0, 2.0, 0.0, 0.0]), grid=grid)


def test_series_rejects_wrong_length():
    grid = GridSpec(delta=1.0, length=4)
    with pytest.raises(ValueError):
        MangoldtSeries(values=np.zeros(5), grid=grid)
