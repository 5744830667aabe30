"""Simulation of the joint conditional-mean process for calibration tests.

Generates y_t = c + b*t + rho*y_{t-1} + delta_{m(t)} + gamma_{m(t)}*t + eps_t
directly in the dropped-July parameterization (delta_7 = gamma_7 = 0), so the
generating coefficients line up one-for-one with the fitted design.
"""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np
from scipy.signal import lfilter

from tempdyn.models import JOINT_DUMMIES, JOINT_INTERACTIONS, JULY

from conftest import DesignMatrix


def calendar_months(start: date, length: int) -> np.ndarray:
    return np.array(
        [(start + timedelta(days=i)).month for i in range(length)], dtype=np.int64
    )


BURN_IN = 1096  # three years; leaves the chain at its stationary law by t = 1


def simulate_joint(
    month: np.ndarray,
    const: float,
    slope: float,
    delta: dict[int, float],
    gamma: dict[int, float],
    rho: float,
    sigma: float,
    rng: np.random.Generator,
    start: date = date(1960, 1, 1),
) -> np.ndarray:
    """One realization of the joint process over t = 1..len(month).

    The recursion is burned in over the three years before ``start`` (with
    the trend extrapolated backwards), so y_1 is drawn from the process's
    own stationary law rather than a fixed initial condition.
    """
    T = len(month)
    pre_month = np.array(
        [(start + timedelta(days=i)).month for i in range(-BURN_IN, 0)],
        dtype=np.int64,
    )
    full_month = np.concatenate([pre_month, month])
    t = np.arange(1 - BURN_IN, T + 1, dtype=np.float64)
    delta_by_month = np.array([delta.get(m, 0.0) for m in range(1, 13)])
    gamma_by_month = np.array([gamma.get(m, 0.0) for m in range(1, 13)])
    drive = (
        const
        + slope * t
        + delta_by_month[full_month - 1]
        + gamma_by_month[full_month - 1] * t
        + sigma * rng.standard_normal(T + BURN_IN)
    )
    # start the recursion at the deterministic steady state of day 1 - BURN_IN
    steady = drive[0] / (1.0 - rho)
    y = lfilter([1.0], [1.0, -rho], drive, zi=np.array([rho * steady]))[0]
    return y[BURN_IN:]


def joint_shared_design(month: np.ndarray, t: np.ndarray) -> DesignMatrix:
    """The joint design without its lag column over t = 2..T, as one dense
    matrix: what ``models.WindowFactors.joint`` factors without forming."""
    month = np.asarray(month)[1:]
    time = np.asarray(t, dtype=np.float64)[1:]
    dummies = (month[:, None] == np.delete(np.arange(1, 13), JULY - 1)).astype(np.float64)
    data = np.column_stack([np.ones(len(time)), time, dummies, dummies * time[:, None]])
    return DesignMatrix(("const", "time") + JOINT_DUMMIES + JOINT_INTERACTIONS, data)


def joint_design(
    month: np.ndarray, t: np.ndarray, y: np.ndarray
) -> tuple[DesignMatrix, np.ndarray]:
    """The joint model's full design and regressand over t = 2..T, with the
    lag as the last column, where ``models.WindowFactors.least_squares``
    borders it.

    ``least_squares`` never builds this matrix in one piece: it borders the
    factored shared design with the lag. Tests fit it directly as an
    independent path and read its layout.
    """
    y = np.asarray(y, dtype=np.float64)
    shared = joint_shared_design(month, t)
    data = np.column_stack([shared.data, y[:-1]])
    return DesignMatrix(shared.names + ("lag",), data), y[1:]


def joint_truth(
    names: tuple[str, ...],
    const: float,
    slope: float,
    delta: dict[int, float],
    gamma: dict[int, float],
    rho: float,
) -> np.ndarray:
    """True coefficient for each design column, aligned with ``names``."""
    truth = []
    for name in names:
        if name == "const":
            truth.append(const)
        elif name == "time":
            truth.append(slope)
        elif name == "lag":
            truth.append(rho)
        elif name.startswith("dt"):
            truth.append(gamma.get(int(name[2:]), 0.0))
        elif name.startswith("d"):
            truth.append(delta.get(int(name[1:]), 0.0))
        else:
            raise ValueError(f"unexpected design column {name}")
    return np.array(truth)
