"""Least squares with Newey-West (HAC) covariance and Wald inference.

The solver uses a column-pivoted QR decomposition, never the normal
equations. The HAC estimator is the Bartlett-kernel sandwich

    V = (X'X)^-1 [ G_0 + sum_{j=1..L} w_j (G_j + G_j') ] (X'X)^-1,

with w_j = 1 - j/(L+1) and G_j the lag-j cross product of the score
vectors u_t * x_t. The automatic truncation lag is the common rule
L = floor(4 * (n/100)^(2/9)). Wald statistics of zero restrictions are
referred to the asymptotic chi-square distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
import scipy.linalg
import scipy.special

RANK_TOL = 1e-10
ORTHO_TOL = 1e-8  # span test for the all-ones vector (centered R^2)

Bandwidth = Union[int, str]


class SingularDesignError(ValueError):
    """Design matrix is rank deficient; names one linearly dependent column."""

    def __init__(self, column: str):
        super().__init__(f"design column {column!r} is linearly dependent")
        self.column = column


class InsufficientDataError(ValueError):
    """Fewer observations than regressors."""


class BandwidthError(ValueError):
    """HAC truncation lag is out of range."""


class WaldDegeneracyError(ValueError):
    """Restricted covariance sub-block is not positive definite."""


@dataclass(frozen=True)
class DesignMatrix:
    """Named regressor columns of equal length."""

    names: tuple[str, ...]
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("design data must be 2-dimensional")
        if data.shape[1] != len(self.names):
            raise ValueError(
                f"{len(self.names)} names for {data.shape[1]} columns"
            )
        if len(set(self.names)) != len(self.names):
            raise ValueError("design column names must be unique")
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class ModelFit:
    """Coefficients, residuals, and (optionally) HAC covariance of one fit."""

    names: tuple[str, ...]
    beta: np.ndarray
    residuals: np.ndarray
    r_squared: float
    nobs: int
    hac_cov: Optional[np.ndarray] = None
    bandwidth: Optional[int] = None

    def coef(self, name: str) -> float:
        return float(self.beta[self.names.index(name)])

    def se(self, name: str) -> float:
        if self.hac_cov is None:
            raise ValueError("fit has no HAC covariance")
        i = self.names.index(name)
        return float(math.sqrt(self.hac_cov[i, i]))

    def coef_p(self, name: str) -> float:
        """HAC p-value of a single zero restriction on one coefficient."""
        return wald_test(self, [name]).p_value


@dataclass(frozen=True)
class WaldResult:
    restriction_labels: tuple[str, ...]
    statistic: float
    df: int
    p_value: float


def nw_auto_bandwidth(nobs: int) -> int:
    """Newey-West automatic truncation lag, floor(4 * (n/100)^(2/9))."""
    if nobs <= 0:
        raise ValueError("nobs must be positive")
    return int(math.floor(4.0 * (nobs / 100.0) ** (2.0 / 9.0)))


def resolve_bandwidth(nobs: int, bandwidth: Bandwidth) -> int:
    if bandwidth == "auto":
        lag = nw_auto_bandwidth(nobs)
    else:
        lag = int(bandwidth)
    if lag < 0:
        raise BandwidthError("bandwidth must be nonnegative")
    if lag >= nobs:
        raise BandwidthError(f"bandwidth {lag} must be below nobs {nobs}")
    return lag


def _check_rank(X: DesignMatrix, r: np.ndarray, order: Sequence[int]) -> None:
    """Reject X when a diagonal entry of its QR factor R is negligible.

    Negligible means at most RANK_TOL times the largest column norm of X;
    ``order[j]`` is the design column behind ``R[j, j]`` (the QR pivots).
    """
    tol = RANK_TOL * max(np.linalg.norm(X.data, axis=0).max(), 1e-300)
    deficient = np.nonzero(np.abs(np.diag(r)) <= tol)[0]
    if deficient.size:
        raise SingularDesignError(X.names[order[deficient[0]]])


def ols_fit(X: DesignMatrix, y: np.ndarray) -> ModelFit:
    """Least-squares fit via column-pivoted QR; hac_cov left unpopulated.

    R^2 is centered whenever the all-ones vector lies in the column span
    (intercept present, or a complete dummy partition), else uncentered.
    """
    y = np.asarray(y, dtype=np.float64)
    n, k = X.data.shape
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    if n <= k:
        raise InsufficientDataError(f"{n} observations for {k} regressors")

    q, r, piv = scipy.linalg.qr(X.data, mode="economic", pivoting=True)
    _check_rank(X, r, piv)

    beta = np.empty(k)
    beta[piv] = scipy.linalg.solve_triangular(r, q.T @ y)
    residuals = y - X.data @ beta

    ones = np.ones(n)
    ones_residual = ones - q @ (q.T @ ones)
    centered = float(np.max(np.abs(ones_residual))) < ORTHO_TOL
    ssr = float(residuals @ residuals)
    if centered:
        deviations = y - y.mean()
        sst = float(deviations @ deviations)
    else:
        sst = float(y @ y)
    r_squared = 1.0 - ssr / sst if sst > 0 else 1.0

    beta.setflags(write=False)
    residuals.setflags(write=False)
    return ModelFit(X.names, beta, residuals, r_squared, n)


def hac_cov(
    X: DesignMatrix, residuals: np.ndarray, bandwidth: Bandwidth = "auto"
) -> np.ndarray:
    """Newey-West covariance of the OLS coefficients.

    Bandwidth 0 collapses the kernel to the heteroskedasticity-only (HC0)
    sandwich. The result is exactly symmetric by construction. A rank
    deficient X raises :class:`SingularDesignError`, as in :func:`ols_fit`.
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    n, k = X.data.shape
    if residuals.shape != (n,):
        raise ValueError("residuals do not match design length")
    lag = resolve_bandwidth(n, bandwidth)
    # (X'X)^-1 from the R factor of a QR decomposition, for stability
    r = scipy.linalg.qr(X.data, mode="r")[0][:k, :]
    _check_rank(X, r, range(k))

    scores = X.data * residuals[:, None]
    meat = scores.T @ scores
    for j in range(1, lag + 1):
        weight = 1.0 - j / (lag + 1.0)
        gamma = scores[j:].T @ scores[:-j]
        meat += weight * (gamma + gamma.T)

    r_inv = scipy.linalg.solve_triangular(r, np.eye(k))
    xtx_inv = r_inv @ r_inv.T
    cov = xtx_inv @ meat @ xtx_inv
    cov = (cov + cov.T) / 2.0
    cov.setflags(write=False)
    return cov


def fit_with_hac(
    X: DesignMatrix, y: np.ndarray, bandwidth: Bandwidth = "auto"
) -> ModelFit:
    """Convenience: ols_fit followed by hac_cov with the resolved lag."""
    fit = ols_fit(X, y)
    lag = resolve_bandwidth(fit.nobs, bandwidth)
    cov = hac_cov(X, fit.residuals, lag)
    return ModelFit(
        fit.names, fit.beta, fit.residuals, fit.r_squared, fit.nobs, cov, lag
    )


def wald_test(fit: ModelFit, restricted: Sequence[str]) -> WaldResult:
    """Chi-square Wald test that the named coefficients are jointly zero."""
    labels = tuple(restricted)
    if not labels:
        raise ValueError("empty restriction set")
    if fit.hac_cov is None:
        raise ValueError("fit has no HAC covariance; run fit_with_hac first")
    idx = []
    for name in labels:
        if name not in fit.names:
            raise KeyError(f"no coefficient named {name!r}")
        idx.append(fit.names.index(name))
    b = fit.beta[idx]
    v_sub = fit.hac_cov[np.ix_(idx, idx)]
    try:
        factor = scipy.linalg.cho_factor(v_sub)
    except scipy.linalg.LinAlgError:
        raise WaldDegeneracyError(
            "restricted covariance block is not positive definite"
        ) from None
    statistic = float(b @ scipy.linalg.cho_solve(factor, b))
    df = len(labels)
    return WaldResult(labels, statistic, df, chi2_sf(statistic, df))


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function via the regularized upper incomplete gamma."""
    if x < 0:
        raise ValueError("chi-square statistic must be nonnegative")
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    return float(scipy.special.gammaincc(df / 2.0, x / 2.0))
