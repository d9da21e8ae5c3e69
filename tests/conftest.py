import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from zetaspectra import EventSequence, GridSpec, MangoldtSeries, build_series

# First 29 zero ordinates (all below 100), refined with the multiprecision
# Euler-Maclaurin oracle during development; good to ~1e-12.
ZEROS_BELOW_100 = (
    14.1347251417347, 21.0220396387716, 25.0108575801457, 30.4248761258595,
    32.9350615877392, 37.5861781588257, 40.9187190121475, 43.3270732809150,
    48.0051508811672, 49.7738324776723, 52.9703214777145, 56.4462476970634,
    59.3470440026024, 60.8317785246098, 65.1125440480816, 67.0798105294942,
    69.5464017111740, 72.0671576744819, 75.7046906990839, 77.1448400688748,
    79.3373750202494, 82.9103808540860, 84.7354929805171, 87.4252746131252,
    88.8091112076345, 92.4918992705585, 94.6513440405199, 95.8706342282453,
    98.8311942181937,
)

# Nearest-sample indices of the ordinates above on the unit grid.
ZEROS_BELOW_100_MARKS = (14, 21, 25, 30, 33, 38, 41, 43, 48, 50, 53, 56, 59, 61, 65,
              67, 70, 72, 76, 77, 79, 83, 85, 87, 89, 92, 95, 96, 99)


def series_from_values(values, delta=1.0):
    values = np.asarray(values, dtype=float)
    return MangoldtSeries(values=values,
                          grid=GridSpec(delta=delta, length=values.size))


def random_indicator(n, rng, density=6):
    marks = np.sort(rng.choice(n, size=max(1, n // density), replace=False))
    values = np.zeros(n)
    values[marks] = 1.0
    return series_from_values(values)


@pytest.fixture(scope="session")
def zeros100_series():
    """Zeros below 100 marked on the unit grid of 100 samples."""
    return build_series(EventSequence(np.array(ZEROS_BELOW_100)),
                        GridSpec(delta=1.0, length=100))
