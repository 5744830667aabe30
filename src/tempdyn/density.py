"""Gaussian kernel density estimation of the unconditional distributions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_GRID_POINTS = 512


class DegenerateBandwidthError(ValueError):
    """Automatic bandwidth collapsed to zero; pass an explicit bandwidth."""


@dataclass(frozen=True)
class DensityEstimate:
    grid: np.ndarray  # strictly increasing abscissae, deg F
    values: np.ndarray  # nonnegative ordinates
    bandwidth: float


def silverman_bandwidth(data: np.ndarray) -> float:
    """0.9 * min(sd, IQR/1.34) * n^(-1/5)."""
    data = np.asarray(data, dtype=np.float64)
    n = data.size
    sd = float(np.std(data, ddof=1)) if n > 1 else 0.0
    q75, q25 = np.percentile(data, [75.0, 25.0])
    spread = min(sd, (q75 - q25) / 1.34)
    return 0.9 * spread * n ** (-0.2)


def kde(
    data: np.ndarray,
    bandwidth: float | str = "auto",
    grid_points: int = DEFAULT_GRID_POINTS,
    grid_span: float = 3.0,
) -> DensityEstimate:
    """Gaussian KDE on an equally spaced grid over [min-3h, max+3h]."""
    data = np.asarray(data, dtype=np.float64)
    if data.size == 0:
        raise ValueError("data is empty")
    if grid_points <= 1:
        raise ValueError("grid_points must exceed 1")
    if bandwidth == "auto":
        h = silverman_bandwidth(data)
        if h <= 0:
            raise DegenerateBandwidthError(
                "automatic bandwidth is zero (data has no spread); "
                "pass an explicit bandwidth"
            )
    else:
        h = float(bandwidth)
        if h <= 0:
            raise ValueError("bandwidth must be positive")

    grid = np.linspace(data.min() - grid_span * h, data.max() + grid_span * h, grid_points)
    # AVG lies on a half-degree lattice and DTR on the integers, so the sum
    # runs over the distinct values, each kernel weighted by its count
    points, counts = np.unique(data, return_counts=True)
    z = (grid[:, None] - points[None, :]) / h
    norm = 1.0 / (data.size * h * math.sqrt(2.0 * math.pi))
    values = norm * (np.exp(-0.5 * z * z) @ counts)
    grid.setflags(write=False)
    values.setflags(write=False)
    return DensityEstimate(grid, values, h)
