"""CSV and manifest emission.

Every CSV is written from numpy columns, CHUNK_ROWS rows at a time, so a
file's formatted text is never held in memory at once. Numeric cells carry
15 significant digits ("%.15g"), '.' decimal separator and LF line endings,
so repeated runs with one configuration are byte-identical and diffable.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .analysis import (FrequencyRatioReport, PeakReport, ReciprocalReport,
                       ReconstructionResult)
from .grid import MangoldtSeries
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

CHUNK_ROWS = 16384


def _rows(row_format: str, *columns: np.ndarray) -> Iterator[str]:
    """Equal-length columns formatted row by row, one string per chunk."""
    for start in range(0, len(columns[0]), CHUNK_ROWS):
        cells = (c[start:start + CHUNK_ROWS].tolist() for c in columns)
        yield "".join(row_format % row for row in zip(*cells))


def _write_csv(path: Path, header: str, chunks: Iterable[str]) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(chunks)


def write_series_csv(path: Path, series: MangoldtSeries) -> int:
    grid = series.grid
    _write_csv(path, "index,location,value",
               _rows("%d,%.15g,%.15g\n", np.arange(grid.length),
                     grid.locations(), series.values))
    return grid.length


def write_spectrum_csv(path: Path, spectrum: Spectrum) -> int:
    amplitude, phase = amplitude_phase(spectrum)
    bins = spectrum.bins
    _write_csv(path, "l,frequency,re,im,amplitude,phase",
               _rows("%d,%.15g,%.15g,%.15g,%.15g,%.15g\n",
                     np.arange(bins.size), spectrum.frequencies, bins.real,
                     bins.imag, amplitude, phase))
    return bins.size


def write_spiral_csv(path: Path, spectrum: Spectrum,
                     spiral: tuple[np.ndarray, np.ndarray]) -> int:
    """Spiral columns (x, y) as returned by analysis.fermat_spiral."""
    x, y = spiral
    _write_csv(path, "l,f,x,y",
               _rows("%d,%.15g,%.15g,%.15g\n", np.arange(x.size),
                     spectrum.frequencies, x, y))
    return x.size


def write_peaks_csv(path: Path, peaks: list[PeakReport]) -> int:
    _write_csv(path, "l,f,amplitude,implied_gap",
               ["%d,%.15g,%.15g,%.15g\n"
                % (p.bin_index, p.frequency, p.amplitude, p.implied_gap)
                for p in peaks])
    return len(peaks)


def write_recon_csv(path: Path, series: MangoldtSeries,
                    result: ReconstructionResult) -> int:
    original, rec = series.values, result.values
    _write_csv(path, "n,original,reconstructed,abs_error",
               _rows("%d,%.15g,%.15g,%.15g\n", np.arange(original.size),
                     original, rec, np.abs(rec - original)))
    return original.size


def write_ratios_csv(path: Path, ratios: FrequencyRatioReport,
                     reciprocals: ReciprocalReport) -> int:
    # reciprocals run one index further than ratios; the last ratio cell is empty
    recips = reciprocals.reciprocals
    t = np.arange(1, recips.size + 1)
    m = ratios.ratios.size
    _write_csv(path, "t,ratio,reciprocal",
               chain(_rows("%d,%.15g,%.15g\n", t[:m], ratios.ratios, recips[:m]),
                     _rows("%d,,%.15g\n", t[m:], recips[m:])))
    return recips.size


def write_pnt_csv(path: Path, checkpoints: list[tuple[int, int, float]]) -> int:
    _write_csv(path, "x,prime_count,ratio",
               ["%d,%d,%.15g\n" % row for row in checkpoints])
    return len(checkpoints)


def write_manifest(path: Path, manifest: dict) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=False)
        fh.write("\n")
