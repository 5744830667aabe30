"""Gaussian kernel density estimation of the unconditional distributions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GRID_POINTS = 512
GRID_SPAN = 3.0  # bandwidths the grid reaches past the data on each side


class DegenerateBandwidthError(ValueError):
    """Automatic bandwidth collapsed to zero: the data has no spread."""


@dataclass(frozen=True)
class DensityEstimate:
    grid: np.ndarray  # strictly increasing abscissae, deg F
    values: np.ndarray  # nonnegative ordinates
    bandwidth: float


def _percentiles(data: np.ndarray, fractions) -> list[float]:
    """Percentiles by numpy's default "linear" rule, from one sort.

    Bit for bit what ``np.percentile(data, 100 * fractions)`` returns,
    including its interpolation from the upper neighbour past the midpoint,
    without the ``numpy.ma`` import that its first call costs. Data holding
    both 0.0 and -0.0 is the one exception: sort and numpy's partition may
    pick different zeros, so a result may differ in the sign of a zero.
    """
    ordered = np.sort(data)
    last = ordered.size - 1
    result = []
    for fraction in fractions:
        position = last * fraction
        below = math.floor(position)
        if position >= last:
            below = above = -1  # numpy clamps to the largest value
        else:
            above = below + 1
        weight = position - below
        lower, upper = ordered[below], ordered[above]
        step = upper - lower
        if weight >= 0.5:
            result.append(float(upper - step * (1 - weight)))
        else:
            result.append(float(lower + step * weight))
    return result


def silverman_bandwidth(data: np.ndarray) -> float:
    """0.9 * min(sd, IQR/1.34) * n^(-1/5), by sd alone when the IQR is 0."""
    data = np.asarray(data, dtype=np.float64)
    n = data.size
    sd = float(np.std(data, ddof=1)) if n > 1 else 0.0
    q75, q25 = _percentiles(data, (0.75, 0.25))
    spread = min(sd, (q75 - q25) / 1.34) or sd
    return 0.9 * spread * n ** (-0.2)


def kde(data: np.ndarray) -> DensityEstimate:
    """Gaussian KDE with the Silverman bandwidth h, on an equally spaced
    grid of 512 points over [min-3h, max+3h]."""
    data = np.asarray(data, dtype=np.float64)
    if data.size == 0:
        raise ValueError("data is empty")
    h = silverman_bandwidth(data)
    if h <= 0:
        raise DegenerateBandwidthError("automatic bandwidth is zero (data has no spread)")

    grid = np.linspace(data.min() - GRID_SPAN * h, data.max() + GRID_SPAN * h, GRID_POINTS)
    # AVG lies on a half-degree lattice and DTR on the integers, so the sum
    # runs over the few hundred distinct values, each kernel weighted by its
    # count
    points, counts = np.unique(data, return_counts=True)
    z = (grid[:, None] - points) / h
    norm = 1.0 / (data.size * h * math.sqrt(2.0 * math.pi))
    values = norm * (np.exp(-0.5 * z * z) @ counts)
    grid.setflags(write=False)
    values.setflags(write=False)
    return DensityEstimate(grid, values, h)
