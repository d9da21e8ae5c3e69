"""The CSV emitter prints every cell exactly as Python's "%.15g" % x, and
integer columns as "%d", although it formats columns, not rows."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetaspectra import GridSpec, MangoldtSeries, Spectrum, emit
from zetaspectra.spectral import amplitude_phase


def cells(values) -> list[str]:
    """The emitter's cells for one column."""
    return b"".join(emit._rows(np.asarray(values))).decode().splitlines()


def percent(values) -> list[str]:
    return ["%.15g" % v for v in values]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=64))
def test_cells_equal_percent_for_any_finite_double(values):
    assert cells(np.array(values, dtype=float)) == percent(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(10 ** 15, 10 ** 16 - 1),
                          st.integers(-320, 308)), min_size=1, max_size=64))
def test_cells_equal_percent_near_the_rounding_midpoint(digits_and_exp):
    # sixteen digits ending in 5: the double nearest each lies within an ulp
    # of a tie of the 15-digit rounding
    values = [float(f"{(d // 10) * 10 + 5}e{e}") for d, e in digits_and_exp]
    assert cells(np.array(values)) == percent(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.integers(10 ** 14, 9 * 10 ** 14).map(lambda d: 10 * d + 5),
    st.integers(10 ** 14, 18 * 10 ** 13).map(lambda d: 100 * d + 50)),
    min_size=1, max_size=64))
def test_cells_round_exact_ties_half_even(integers):
    # doubles exactly half-way between two 15-digit decimals, which '%'
    # rounds half-even
    values = [float(i) for i in integers]
    assert [int(v) for v in values] == integers
    assert cells(np.array(values)) == percent(values)


EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308,
    math.nan, math.inf, -math.inf,
    1e15, np.nextafter(1e15, 0.0), np.nextafter(1e15, math.inf),
    999999999999999.4, -999999999999999.6,
    1e-5, np.nextafter(1e-5, 0.0), np.nextafter(1e-5, 1.0),
    1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0),
    9.999999999999995, 99999999999999.95, 0.9999999999999995,
    448156282135096.5, 448156282135097.5, 1000000000000005.0,
    1000000000000015.0, 9007199254740993.0,
    1e-290, 1e290, 1e-291, 1e291, 1e100, 1e-100, 1e-10, 1e22, 1e23,
    0.1, 0.5, -2.5, 123456789012345.0, 299993.0,
]


def test_edge_cells():
    # one column mixing both layouts with cells formatted by '%'
    assert cells(EDGES) == percent(EDGES)


def test_integer_columns_print_as_percent_d():
    values = np.array([0, 1, -7, 299993, 10 ** 15 - 1, -(10 ** 15 - 1)])
    assert cells(values) == ["%d" % v for v in values.tolist()]
    # a ValueError, not an assert, so that python -O keeps the guard; the
    # int64 minimum is where np.abs would wrap to a negative value
    for bad in (10 ** 15, -(10 ** 15), np.iinfo(np.int64).min):
        with pytest.raises(ValueError):
            cells(np.array([bad]))


WHOLE = 10 ** 15 - 1  # the largest |x| whose "%.15g" is its "%d"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-WHOLE, WHOLE), min_size=1, max_size=64))
@example([0, WHOLE, -WHOLE])
def test_whole_number_columns_print_as_percent_d(integers):
    # whole-valued doubles print as "%.15g", int64 columns as "%d"
    values = np.array(integers, dtype=float)
    assert cells(values) == percent(values) == ["%d" % i for i in integers]
    assert cells(np.array(integers, dtype=np.int64)) == [
        "%d" % i for i in integers]


def test_negative_zero_in_a_whole_number_column():
    values = [-0.0, 0.0, -1.0, float(WHOLE), -float(WHOLE)]
    assert cells(values) == percent(values) == [
        "-0", "0", "-1", "999999999999999", "-999999999999999"]


@pytest.mark.parametrize("whole_first", [True, False])
def test_chunks_mixing_whole_and_fractional_columns(rng, whole_first):
    # 2 CHUNK_ROWS + 5 whole numbers below 1e15, of 1 to 15 digits; one
    # non-integer goes into each chunk after the first, or into the first
    size = 2 * emit.CHUNK_ROWS + 5
    values = rng.integers(-WHOLE, WHOLE, size).astype(float)
    shorter = values[::97]  # a view
    shorter[:] = np.trunc(shorter / 10.0 ** rng.integers(0, 15, shorter.size))
    starts = range(emit.CHUNK_ROWS, size, emit.CHUNK_ROWS)
    for start in (starts if whole_first else [0]):
        values[start + 3] += 0.25
    assert cells(values) == percent(values)


@pytest.mark.parametrize("chunk_rows", [1, 7, 4096])
def test_file_bytes_do_not_depend_on_the_chunk_size(rng, tmp_path,
                                                    monkeypatch, chunk_rows):
    size = 300
    values = np.trunc(spread(rng, size))  # whole, and beyond 1e15 too
    values[::40] += 0.5
    original = np.arange(size) % 3 == 0
    series = MangoldtSeries(values=original.astype(float),
                            grid=GridSpec(delta=1.0, length=size))
    monkeypatch.setattr(emit, "CHUNK_ROWS", chunk_rows)
    assert written(emit.write_recon_csv, tmp_path / "r.csv", series,
                   values) == (
        "n,original,reconstructed,abs_error\n"
        + by_row("%d,%.15g,%.15g,%.15g\n", np.arange(size), original * 1.0,
                 values, np.abs(values - original)))


# ---------------------------------------------------------------------------
# Whole files against the per-row '%' rendering they replace
# ---------------------------------------------------------------------------

ROWS = 2 * emit.CHUNK_ROWS + 5  # three chunks, the last a short one


def spread(rng, n):
    """Floats over forty decades, both signs, with some zeros."""
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 21, n)
    x[rng.integers(0, n, 20)] = 0.0
    return x


def by_row(row_format, *columns):
    return "".join(row_format % row
                   for row in zip(*(np.asarray(c).tolist() for c in columns)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260418)


@pytest.fixture
def grid():
    return GridSpec(delta=0.37, length=ROWS)


@pytest.fixture
def spectrum(rng, grid):
    return Spectrum(bins=spread(rng, ROWS) + 1j * spread(rng, ROWS),
                    source_grid=grid)


def written(writer, path, *args) -> str:
    rows = writer(path, *args)
    text = path.read_bytes().decode()
    assert text.count("\n") == rows + 1
    return text


def test_series_and_recon_csv(rng, grid, tmp_path):
    series = MangoldtSeries(values=(rng.random(ROWS) < 0.3).astype(float),
                            grid=grid)
    index = np.arange(ROWS)
    assert written(emit.write_series_csv, tmp_path / "s.csv", series) == (
        "index,location,value\n"
        + by_row("%d,%.15g,%.15g\n", index, grid.locations(), series.values))
    rec = spread(rng, ROWS)
    assert written(emit.write_recon_csv, tmp_path / "r.csv", series, rec) == (
        "n,original,reconstructed,abs_error\n"
        + by_row("%d,%.15g,%.15g,%.15g\n", index, series.values, rec,
                 np.abs(rec - series.values)))


def test_series_csv_on_a_whole_number_grid(rng, tmp_path):
    # at delta = 1 every location is a whole number
    grid = GridSpec(delta=1.0, length=ROWS)
    series = MangoldtSeries(values=(rng.random(ROWS) < 0.3).astype(float),
                            grid=grid)
    assert written(emit.write_series_csv, tmp_path / "s.csv", series) == (
        "index,location,value\n"
        + by_row("%d,%d,%d\n", np.arange(ROWS), np.arange(ROWS),
                 series.values.astype(int)))


def test_whole_number_columns_skip_the_scaled_product(rng, tmp_path,
                                                      monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return scaled(*args)

    scaled = emit._scaled
    monkeypatch.setattr(emit, "_scaled", spy)
    series = MangoldtSeries(values=(rng.random(ROWS) < 0.3).astype(float),
                            grid=GridSpec(delta=1.0, length=ROWS))
    emit.write_series_csv(tmp_path / "s.csv", series)
    assert calls == []
    # the spy sees the fractional locations at delta = 0.37
    series = MangoldtSeries(values=series.values,
                            grid=GridSpec(delta=0.37, length=ROWS))
    emit.write_series_csv(tmp_path / "s.csv", series)
    assert calls


def test_spectrum_and_spiral_csv(rng, spectrum, tmp_path):
    index, f = np.arange(ROWS), spectrum.frequencies
    amplitude, phase = amplitude_phase(spectrum)
    assert written(emit.write_spectrum_csv, tmp_path / "sp.csv",
                   spectrum) == (
        "l,frequency,re,im,amplitude,phase\n"
        + by_row("%d,%.15g,%.15g,%.15g,%.15g,%.15g\n", index, f,
                 spectrum.bins.real, spectrum.bins.imag, amplitude, phase))
    x, y = spread(rng, ROWS), spread(rng, ROWS)
    assert written(emit.write_spiral_csv, tmp_path / "spiral.csv", spectrum,
                   (x, y)) == (
        "l,f,x,y\n" + by_row("%d,%.15g,%.15g,%.15g\n", index, f, x, y))


def test_ratios_csv_keeps_the_empty_last_ratio(rng, tmp_path):
    recips = spread(rng, ROWS - 1)
    ratios = spread(rng, ROWS - 2)
    t = np.arange(1, ROWS)
    text = written(emit.write_ratios_csv, tmp_path / "ratios.csv",
                   ratios, recips)
    assert text == ("t,ratio,reciprocal\n"
                    + by_row("%d,%.15g,%.15g\n", t[:-1], ratios, recips[:-1])
                    + by_row("%d,,%.15g\n", t[-1:], recips[-1:]))
    assert text.splitlines()[-1].split(",")[1] == ""


def test_peaks_and_pnt_csv(rng, spectrum, tmp_path):
    # peak bins in the order given, each row read from the spectrum's columns
    peaks = rng.permutation(np.arange(1, ROWS))[:50]
    f, amp = spectrum.frequencies, spectrum.amplitudes
    assert written(emit.write_peaks_csv, tmp_path / "peaks.csv", spectrum,
                   peaks) == (
        "l,f,amplitude,implied_gap\n"
        + "".join("%d,%.15g,%.15g,%.15g\n" % (l, f[l], amp[l], 1.0 / f[l])
                  for l in peaks.tolist()))
    assert written(emit.write_peaks_csv, tmp_path / "none.csv", spectrum,
                   np.empty(0, dtype=np.intp)) == "l,f,amplitude,implied_gap\n"
    checkpoints = [(100, 25, 1.151292546497023), (10 ** 6, 78498, 1.0844899)]
    x, count, ratio = (np.array(c) for c in zip(*checkpoints))
    assert written(emit.write_pnt_csv, tmp_path / "pnt.csv", x, count,
                   ratio) == (
        "x,prime_count,ratio\n"
        + "".join("%d,%d,%.15g\n" % row for row in checkpoints))
