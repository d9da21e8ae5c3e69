"""CSV and manifest emission.

Every CSV is written from numpy columns, CHUNK_ROWS rows at a time, so a
file's text is never held in memory at once. Each cell holds exactly the
bytes of Python's "%.15g" % x (15 significant digits, '.' decimal
separator); integer columns print as "%d", which "%.15g" equals below
1e15. Lines end in LF, so repeated runs with one configuration are
byte-identical and diffable.

The cells are produced column-wise, without Python's '%' per row. A chunk
of whole numbers below 10^15 in magnitude, where "%.15g" prints "%d",
takes its digits straight from a table of four-digit groups, right-aligned
behind a sign slot, leading zeros blank. In every other chunk the 15
significant digits D = round(|x| 10^(14-X)) come from Dekker's exact
product (Numer. Math. 18, 1971) of x with a double-double 10^(14-X); X
starts at floor(log10|x|) and is corrected where the scaled value falls
outside [10^14, 10^15], and D = 10^15 carries into the next decade. Each
cell is laid out in a column of a
(slot, cell) byte matrix in "%g"'s fixed or scientific form, trailing
zeros stripped; byte 0 pads unused slots and is deleted once a chunk is
transposed into rows. Only three kinds of cell go through '%' (Gay's
correctly rounded conversion, 1990): a scaled fraction within 1e-7 of one
half (a possible tie, which '%' rounds half-even), a non-finite value, and
|x| outside [1e-290, 1e290], beyond the table of powers of ten.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .grid import MangoldtSeries
from .numtheory import DomainError
from .spectral import Spectrum, amplitude_phase

__all__ = [
    "write_series_csv",
    "write_spectrum_csv",
    "write_spiral_csv",
    "write_peaks_csv",
    "write_recon_csv",
    "write_ratios_csv",
    "write_pnt_csv",
    "write_manifest",
]

# rows per chunk: fewer chunks make fewer numpy calls per column, while a
# chunk's byte matrix (about 1 MB for a spectrum.csv chunk) stays in cache
CHUNK_ROWS = 8192
# cells with |x| outside [_TINY, _HUGE] are formatted by '%'; X stays within
# [-291, 291] for the others, so 10^k is tabled for k = 14 - X
_TINY, _HUGE = 1e-290, 1e290
_KMIN, _KMAX = -277, 305
_TIE_BAND = 1e-7
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_E14, _E15 = 1e14, 1e15
# a cell's slots: sign, "0.000", 15 digits each followed by a '.' slot
# (none after the last), "e+123"
_SIGN, _ZEROS, _DIGITS, _EXP, _SLOTS = 0, 1, 6, 35, 40
_DIGIT = np.arange(15, dtype=np.uint8)[:, None]
_GROUP = np.array([1e12, 1e8, 1e4, 1.0])[:, None]


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split a = high + low, each half of 26 significant bits."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _pow10() -> np.ndarray:
    """10^k = hi + lo for k in [_KMIN, _KMAX] as rows hi, hh, hl, lo, with
    hi = hh + hl split into 26-bit halves."""
    hi, lo = [], []
    for k in range(_KMIN, _KMAX + 1):
        p = 10 ** abs(k)
        h = float(p) if k >= 0 else 1 / p  # int division rounds correctly
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append(float(p - a) if k >= 0 else (b - a * p) / p / b)
    mant, exp = np.frexp(hi)
    hh, hl = _split(mant)
    return np.stack([hi, np.ldexp(hh, exp), np.ldexp(hl, exp), lo])


def _layout() -> np.ndarray:
    """The "%g" layout of a cell by its decimal exponent X in [-5, 15], X = -5
    and X = 15 standing for every scientific cell: the five "0.000" slots,
    the last digit before the '.', and the digit the '.' may follow (15:
    none)."""
    layout = np.zeros((7, 21), np.uint8)
    for x_exp in range(-4, 15):
        column = layout[:, x_exp + 5]
        if x_exp < 0:
            column[:1 - x_exp] = np.frombuffer(b"0." + b"0" * (-1 - x_exp),
                                               np.uint8)
            column[6] = 15
        else:
            column[5:] = x_exp
    return layout


@cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_pow10(), _layout(), and the four ASCII digits of each of 0..9999 as
    a little-endian uint32, first digit in the low byte: at 10^4 + n the
    same with n's leading zeros as byte 0, and 0 at 2 10^4. Built on first
    use (about 1 ms), so importing the package does not pay for them."""
    code = np.arange(48, 58, dtype=np.uint32)  # ASCII '0'..'9'
    digits4 = (code[:, None, None, None] | code[:, None, None] << 8
               | code[:, None] << 16 | code << 24).ravel().astype("<u4")
    kept = np.arange(10 ** 4)[:, None] >= [1000, 100, 10, 0]  # not leading 0
    stripped = (digits4.view(np.uint8).reshape(-1, 4) * kept).view("<u4")
    return _pow10(), _layout(), np.concatenate(
        [digits4, stripped.ravel(), np.zeros(1, "<u4")])


def _scaled(a: np.ndarray, x_exp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a 10^(14 - x_exp) as r + f: r the nearest integer to the rounded
    product, f the remainder to within about 1e-15."""
    index = (14 - _KMIN - x_exp).astype(np.intp)
    hi, hh, hl, lo = np.take(_tables()[0], index, axis=1)
    p = a * hi
    ah, al = _split(a)
    err = al * hl - (((p - ah * hh) - al * hh) - ah * hl)  # a hi - p, exactly
    r = np.rint(p)
    return r, (p - r) + (err + a * lo)


def _digits(groups: np.ndarray) -> np.ndarray:
    """The ASCII digits of _tables()[2][groups] as uint8 rows, four rows
    per row of groups, first digit first; a column per cell."""
    chars = _tables()[2][groups.astype(np.intp)].view(np.uint8)
    return chars.reshape(*groups.shape, 4).transpose(0, 2, 1).reshape(
        -1, groups.shape[1])


def _whole_cells(x: np.ndarray, a: np.ndarray) -> list[np.ndarray]:
    """_cells for whole numbers x = ±a with a < 10^15, which "%.15g" prints
    as "%d": a sign slot, then the digits right-aligned, in as many groups
    of four as the largest a needs. A group that no digit precedes comes
    from the table's stripped section, or its blank entry when it is 0 too
    (the last group never is: 0 prints "0")."""
    scale = _GROUP[_GROUP[:, 0] <= max(a.max(), 1.0)]
    groups = np.floor(a / scale)
    groups[1:] -= 1e4 * groups[:-1]
    groups += 1e4 * (a < 1e4 * scale)
    groups[:-1] += 1e4 * (a < scale[:-1])
    cells = np.empty((1 + 4 * scale.size, x.size), np.uint8)
    np.multiply(np.signbit(x), np.uint8(45), out=cells[_SIGN])
    cells[1:] = _digits(groups)
    return [cells[i] for i in np.flatnonzero(cells.max(axis=1))]


def _cells(x: np.ndarray) -> list[np.ndarray]:
    """The "%.15g" bytes of each number in x as uint8 rows, one byte slot
    of every cell per row, 0 where a cell leaves the slot empty."""
    x = x.astype(np.float64, copy=False)
    a = np.abs(x)
    if (np.trunc(a) == a).all() and a.max() < _E15:
        return _whole_cells(x, a)
    zero = x == 0.0
    ok = (a >= _TINY) & (a <= _HUGE)
    np.putmask(a, ~ok, 1.0)
    x_exp = np.floor(np.log10(a))
    r, f = _scaled(a, x_exp)
    # X is right when v = a 10^(14-X) lies in [10^14, 10^15 + 0.5), the top
    # rounding to 10^15 and carrying below; a v that rounds up to 10^14 (or
    # down to 10^15 + 0.5) differs from it by under 0.05, so either X gives
    # the same digits
    v = r + f
    fix = np.flatnonzero((v < _E14) | (v >= _E15 + 0.5))
    while fix.size:
        x_exp[fix] += np.where(v[fix] < _E14, -1.0, 1.0)
        r[fix], f[fix] = _scaled(a[fix], x_exp[fix])
        v[fix] = r[fix] + f[fix]
        fix = fix[(v[fix] < _E14) | (v[fix] >= _E15 + 0.5)]
    d = r + np.rint(f)
    carry = d == _E15
    d[carry] = _E14
    x_exp[carry] += 1.0
    d[zero] = 0.0
    by_percent = np.flatnonzero(~(ok | zero)
                                | (np.abs(np.abs(f) - 0.5) < _TIE_BAND))
    x_exp = x_exp.astype(np.int16)

    size = x.size
    cells = np.zeros((_SLOTS, size), np.uint8)
    np.multiply(np.signbit(x), np.uint8(45), out=cells[_SIGN])

    # the digits, from four groups of four (the first has a leading 0)
    groups = np.floor(d / _GROUP)
    groups[1:] -= 1e4 * groups[:-1]
    chars = _digits(groups)[1:]
    last = (_DIGIT * (chars != 48)).max(axis=0)  # last nonzero digit, or 0

    # "%g" layout by X: fixed for -4 <= X < 15, else scientific (clipping
    # takes every X beyond [-5, 15] to a scientific column)
    layout = np.take(_tables()[1], x_exp + 5, axis=1, mode="clip")
    cells[_ZEROS:_DIGITS] = layout[:5]
    whole, point = layout[5], layout[6]
    np.multiply(chars, _DIGIT <= np.maximum(last, whole),
                out=cells[_DIGITS:_EXP:2])
    dot = np.flatnonzero(last > point)
    cells.reshape(-1)[(_DIGITS + 1 + 2 * point[dot].astype(np.intp)) * size
                      + dot] = 46
    sci = (x_exp < -4) | (x_exp >= 15)
    if sci.any():
        e_abs = np.abs(x_exp)
        cells[_EXP] = 101 * sci
        cells[_EXP + 1] = np.where(x_exp < 0, 45, 43) * sci
        cells[_EXP + 2] = (e_abs // 100 + 48) * (sci & (e_abs >= 100))
        cells[_EXP + 3] = (e_abs // 10 % 10 + 48) * sci
        cells[_EXP + 4] = (e_abs % 10 + 48) * sci
    for i in by_percent:
        text = np.frombuffer(("%.15g" % x[i]).encode(), np.uint8)
        cells[:, i] = 0
        cells[:text.size, i] = text
    return [cells[i] for i in np.flatnonzero(cells.max(axis=1))]


def _rows(*columns: np.ndarray | None) -> Iterator[bytes]:
    """Equal-length columns as CSV lines, one bytes object per chunk; a None
    column is an empty cell in every row."""
    size = len(next(c for c in columns if c is not None))
    for c in columns:
        if c is not None and c.dtype.kind in "iu" and c.size \
                and not -10 ** 15 < c.min() <= c.max() < 10 ** 15:
            raise DomainError("integer cells past 1e15: '%.15g' != '%d'")
    for start in range(0, size, CHUNK_ROWS):
        n = min(CHUNK_ROWS, size - start)
        comma, newline = np.full(n, 44, np.uint8), np.full(n, 10, np.uint8)
        slots = []
        for c in columns:
            if c is not None:
                slots += _cells(c[start:start + n])
            slots.append(comma)
        slots[-1] = newline
        yield np.stack(slots).T.tobytes().translate(None, b"\0")


def _write_csv(path: Path, header: str, chunks: Iterable[bytes]) -> None:
    with path.open("wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.writelines(chunks)


def write_series_csv(path: Path, series: MangoldtSeries) -> int:
    grid = series.grid
    _write_csv(path, "index,location,value",
               _rows(np.arange(grid.length), grid.locations(), series.values))
    return grid.length


def write_spectrum_csv(path: Path, spectrum: Spectrum) -> int:
    amplitude, phase = amplitude_phase(spectrum)
    bins = spectrum.bins
    _write_csv(path, "l,frequency,re,im,amplitude,phase",
               _rows(np.arange(bins.size), spectrum.frequencies, bins.real,
                     bins.imag, amplitude, phase))
    return bins.size


def write_spiral_csv(path: Path, spectrum: Spectrum,
                     spiral: tuple[np.ndarray, np.ndarray]) -> int:
    """Spiral columns (x, y) as returned by analysis.fermat_spiral."""
    x, y = spiral
    _write_csv(path, "l,f,x,y",
               _rows(np.arange(x.size), spectrum.frequencies, x, y))
    return x.size


def write_peaks_csv(path: Path, spectrum: Spectrum,
                    peaks: np.ndarray) -> int:
    """One row per peak bin (as from analysis.detect_peaks), in the given
    order, with its frequency f, amplitude and implied gap 1/f."""
    f = spectrum.frequencies[peaks]
    _write_csv(path, "l,f,amplitude,implied_gap",
               _rows(peaks, f, spectrum.amplitudes[peaks], 1.0 / f))
    return peaks.size


def write_recon_csv(path: Path, series: MangoldtSeries,
                    recon: np.ndarray) -> int:
    """The series against its reconstruction (analysis.reconstruct)."""
    original = series.values
    _write_csv(path, "n,original,reconstructed,abs_error",
               _rows(np.arange(original.size), original, recon,
                     np.abs(recon - original)))
    return original.size


def write_ratios_csv(path: Path, ratios: np.ndarray,
                     recips: np.ndarray) -> int:
    # reciprocals run one index further than ratios; the last ratio cell is empty
    t = np.arange(1, recips.size + 1)
    m = ratios.size
    _write_csv(path, "t,ratio,reciprocal",
               chain(_rows(t[:m], ratios, recips[:m]),
                     _rows(t[m:], None, recips[m:])))
    return recips.size


def write_pnt_csv(path: Path, x: np.ndarray, count: np.ndarray,
                  ratio: np.ndarray) -> int:
    _write_csv(path, "x,prime_count,ratio", _rows(x, count, ratio))
    return x.size


def write_manifest(path: Path, manifest: dict) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=False)
        fh.write("\n")
