"""Uniform sampling grids and the 0/1 indicator series built on them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numtheory import EventSequence

__all__ = ["GridSpec", "MangoldtSeries", "sample_index", "build_series"]


@dataclass(frozen=True)
class GridSpec:
    """Sampling description: period delta, sample count length, origin.

    Sample index k sits at location origin + k*delta for k = 0..length-1.
    """

    delta: float
    length: int
    origin: float = 0.0

    def __post_init__(self):
        if self.delta <= 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.length < 2:
            raise ValueError(f"length must be >= 2, got {self.length}")

    @classmethod
    def for_events(cls, events: EventSequence, delta: float = 1.0,
                   origin: float = 0.0) -> "GridSpec":
        """Smallest grid covering every event: length ceil((max-origin)/delta)+1."""
        if len(events) == 0:
            return cls(delta=delta, length=2, origin=origin)
        top = float(events.events[-1])
        length = max(2, int(math.ceil((top - origin) / delta)) + 1)
        return cls(delta=delta, length=length, origin=origin)

    def locations(self) -> np.ndarray:
        return self.origin + self.delta * np.arange(self.length, dtype=float)

    @property
    def span(self) -> float:
        """Total covered extent length*delta, in location units."""
        return self.length * self.delta


def _nearest_indices(x: np.ndarray, grid: GridSpec) -> np.ndarray:
    # floor((x - origin)/delta + 0.5) per location; out-of-range ones dropped
    idx = np.floor((np.asarray(x, dtype=float) - grid.origin) / grid.delta + 0.5)
    return idx[(idx >= 0) & (idx < grid.length)].astype(np.intp)


def sample_index(x: float, grid: GridSpec) -> int | None:
    """Nearest sample index for location x, ties rounded half-up.

    Returns None when the nearest index falls outside 0..length-1.
    """
    idx = _nearest_indices([x], grid)
    return int(idx[0]) if idx.size else None


@dataclass(frozen=True)
class MangoldtSeries:
    """Indicator series: value 1 at marked sample indices, 0 elsewhere.

    The marked indices are np.flatnonzero(values).
    """

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.shape != (self.grid.length,):
            raise ValueError(
                f"values shape {arr.shape} does not match grid length "
                f"{self.grid.length}")
        if not np.all((arr == 0.0) | (arr == 1.0)):
            raise ValueError("values must be 0 or 1")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def mark_count(self) -> int:
        return int(np.count_nonzero(self.values))

    def __len__(self) -> int:
        return self.grid.length


def build_series(events: EventSequence, grid: GridSpec) -> MangoldtSeries:
    """Mark the nearest in-range sample of every event with weight one.

    Two events in one cell still give value 1.
    """
    values = np.zeros(grid.length)
    values[_nearest_indices(events.events, grid)] = 1.0
    return MangoldtSeries(values=values, grid=grid)
