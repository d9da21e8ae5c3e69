"""Uniform sampling grids and the 0/1 indicator series built on them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numtheory import DomainError, EventSequence, _integer

__all__ = ["GridSpec", "MangoldtSeries", "build_series"]

# isqrt(2^63 - 1): the literal sum reduces each phase (m mod N) k in int64
MAX_LENGTH = 3_037_000_499


@dataclass(frozen=True)
class GridSpec:
    """Sampling description: period delta and sample count length.

    Sample index k sits at location k*delta for k = 0..length-1.
    """

    delta: float
    length: int

    def __post_init__(self):
        if not 0.0 < self.delta < math.inf:
            raise DomainError(f"delta must be finite and > 0, got {self.delta}")
        if not 2 <= _integer("length", self.length) <= MAX_LENGTH:
            raise DomainError(f"length must be in 2..{MAX_LENGTH}, got "
                              f"{self.length}")

    @classmethod
    def for_events(cls, events: EventSequence, delta: float = 1.0) -> "GridSpec":
        """Smallest grid covering every event: length ceil(max/delta)+1."""
        top = float(events.events[-1]) if len(events) else 0.0
        if not top / delta < MAX_LENGTH:
            raise DomainError(f"delta {delta} makes the grid to {top} longer "
                              f"than {MAX_LENGTH} samples")
        return cls(delta=delta, length=max(2, int(math.ceil(top / delta)) + 1))

    def locations(self) -> np.ndarray:
        return self.delta * np.arange(self.length, dtype=float)


def _nearest_indices(x: np.ndarray, grid: GridSpec) -> np.ndarray:
    # nearest sample floor(x/delta + 0.5), ties half-up; out-of-range dropped
    idx = np.floor(np.asarray(x, dtype=float) / grid.delta + 0.5)
    return idx[(idx >= 0) & (idx < grid.length)].astype(np.intp)


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
            raise DomainError(
                f"values shape {arr.shape} does not match grid length "
                f"{self.grid.length}")
        if not np.all((arr == 0.0) | (arr == 1.0)):
            raise DomainError("values must be 0 or 1")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def mark_count(self) -> int:
        return int(np.count_nonzero(self.values))


def build_series(events: EventSequence, grid: GridSpec) -> MangoldtSeries:
    """Mark the nearest in-range sample of every event with weight one.

    Event x marks index floor(x/delta + 0.5), ties rounded half-up; an index
    outside 0..length-1 is dropped. Two events in one cell still give value 1.
    """
    values = np.zeros(grid.length)
    values[_nearest_indices(events.events, grid)] = 1.0
    return MangoldtSeries(values=values, grid=grid)
