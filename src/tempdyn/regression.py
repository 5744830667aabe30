"""Least squares with Newey-West (HAC) covariance and Wald inference.

The solver works on a QR factor of the design, never on the normal
equations. A design is rejected when a diagonal entry of R is negligible
against its largest column norm. |R_jj| is the norm of the part of column j
orthogonal to the columns before it, so the column the error names is the
first one that lies in the span of the columns before it.

The HAC estimator is the Bartlett-kernel sandwich

    V = (X'X)^-1 [ G_0 + sum_{j=1..L} w_j (G_j + G_j') ] (X'X)^-1,

with w_j = 1 - j/(L+1) and G_j the lag-j cross product of the score
vectors u_t * x_t. The automatic truncation lag is the common rule
L = floor(4 * (n/100)^(2/9)). Wald statistics of zero restrictions are
referred to the asymptotic chi-square distribution.

The Bartlett kernel is a box of width L+1 convolved with itself, so the
bracketed meat equals (1/(L+1)) B'B, where row i of B is the sum of the
scores u_t x_t over the L+1 days t = i-L..i (zero outside the sample):
one Gram of n+L window sums instead of L+1 lagged cross products
(Newey & West 1987, Econometrica 55).

One :class:`QRFactor` serves both the coefficients and the covariance:
(X'X)^-1 = R^-1 R^-T from the same R that solved for beta and passed the
rank check. Every design the package fits is, per group of rows (a
calendar month, or the whole window), a mean or a mean and a slope on t,
so :func:`group_factor` writes its factor down in closed form and no
decomposition is made. A per-regressand column (the joint model's lag) is
appended to a factor by one Gram-Schmidt step: by Frisch-Waugh-Lovell its
coefficient is the regression of the partialled-out regressand on the
partialled-out column (Lovell 1963, JASA 58).

A factor reports its coefficients as a constant integer matrix C of
contrasts times the design's, and their covariance as C V C': the identity
but for the joint model, whose coefficients are July's and each month's
less July's (see :mod:`tempdyn.models`).

The fitted values are Q Q'y, so no fit needs the design's rows, and the
Bartlett meat reads none either: :meth:`QRFactor.meat` builds the scores
one block of days at a time from each day's group and t, in the few
columns that a window of L+1 days can touch, in :mod:`tempdyn.hac`, which
only a HAC fit loads.

Q'v, norms and sums of squares are numpy's pairwise sums (for Q'v, of each run
of days, a group's runs then added in order), not BLAS dots, whose
order of summation can change with the thread count; the HAC Gram B'B (one
batched BLAS product of each block's segments of window sums, added into
the meat by a bincount) and the products with R^-1 and C are still BLAS
products, measured (not guaranteed) to give the same bits at 1 and 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

RANK_TOL = 1e-10

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
        return wald_test(self, [name])


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


def _check_rank(names: Sequence[str], r: np.ndarray, scale: float) -> None:
    """Reject a design when a diagonal entry of its QR factor R is negligible.

    Negligible means at most RANK_TOL times ``scale``, the largest column
    norm of the design; ``R[j, j]`` belongs to design column j.
    """
    tol = RANK_TOL * max(scale, 1e-300)
    deficient = np.nonzero(np.abs(np.diag(r)) <= tol)[0]
    if deficient.size:
        raise SingularDesignError(names[deficient[0]])


def _group_sums(w: np.ndarray, group: np.ndarray, starts: np.ndarray, groups: int) -> np.ndarray:
    """The sum of ``w`` over each of the ``groups`` groups of rows: numpy's
    pairwise sum of each run of rows (``starts`` holds each run's first
    row, ``group`` each row's group), then the runs of each group added in
    order. A group of no rows sums to 0."""
    return np.bincount(group[starts], np.add.reduceat(w, starts), minlength=groups)


@dataclass(frozen=True)
class GroupDesign:
    """The named design of a :func:`group_factor` and the orthonormal Q of
    its factor, never formed.

    The design's columns are the indicators 1_g of each group g of rows,
    then, with ``t``, the products 1_g * t. Q's columns are 1_g/sqrt(n_g),
    then, with slopes, (t - tbar_g) 1_g / s_g, where s_g is the norm of the
    group's centred t: so Q'v is group sums, and Qc a gather. The rows are
    read as *runs*, maximal stretches of consecutive rows in one group:
    a group's sum adds the pairwise sums of its runs, and the HAC meat
    places each run's scores (see :mod:`tempdyn.hac`).
    """

    names: tuple[str, ...]
    group: np.ndarray  # n, each row's group
    t: Optional[np.ndarray]  # n; None without slopes
    starts: np.ndarray  # the first row of each run
    centred: Optional[np.ndarray]  # n, t less its group's mean; None without slopes
    inv_norms: np.ndarray  # 1/sqrt(n_g) of each group, then 1/s_g with slopes

    @property
    def width(self) -> int:
        """The design's columns per group: a mean, and a slope with ``t``."""
        return 1 if self.t is None else 2

    def scores(self, start: int, stop: int, weights: np.ndarray) -> np.ndarray:
        """Rows ``start..stop-1`` of the design at their group's columns,
        each times its weight w: w, and w t with slopes."""
        if self.t is None:
            return weights[:, None]
        return np.column_stack([weights, weights * self.t[start:stop]])

    def qt(self, v: np.ndarray) -> np.ndarray:
        """Q'v."""
        weights = [v] if self.centred is None else [v, self.centred * v]
        groups = len(self.names) // self.width
        sums = [_group_sums(w, self.group, self.starts, groups) for w in weights]
        return np.concatenate(sums) * self.inv_norms

    def qdot(self, c: np.ndarray) -> np.ndarray:
        """Q c."""
        means, *slopes = (c * self.inv_norms).reshape(self.width, -1)
        out = means[self.group]
        if slopes:
            out += slopes[0][self.group] * self.centred
        return out


@dataclass(frozen=True)
class QRFactor:
    """Rank-checked QR factor of one design: ``[X, appended] = Q @ r``,
    where X is ``design``'s rows, whose coefficients b are reported as
    ``contrasts @ b``, named ``names``.

    Q is the one ``design`` spans, followed by ``border``, one orthonormal
    column per ``appended`` one, added by :meth:`bordered`. Both pairs are
    kept apart, so that a shared design is never copied. :func:`ols_fit`,
    :func:`hac_cov` and :func:`fit_with_hac` take the factor, so that a
    design shared by many regressands is factored once, the fit takes its
    fitted values from Q, and the covariance reuses the R that solved for
    the coefficients.
    """

    names: tuple[str, ...]  # the k reported coefficients
    contrasts: np.ndarray  # k x k, the reported coefficients of the design's
    design: GroupDesign  # n x m factored columns and their Q
    appended: np.ndarray  # n x (k - m) columns bordering the design
    border: np.ndarray  # n x (k - m) orthonormal columns bordering the design's Q
    r: np.ndarray  # k x k, upper triangular
    r_inv: np.ndarray  # inverse of r
    scale: float  # largest column norm of the design, the rank test's unit

    @property
    def nobs(self) -> int:
        """The design's number of rows."""
        return len(self.border)

    def qt(self, v: np.ndarray) -> np.ndarray:
        """Q'v."""
        return np.concatenate([self.design.qt(v), np.add.reduce(self.border * v[:, None])])

    def qdot(self, c: np.ndarray) -> np.ndarray:
        """Q c."""
        m = len(self.design.names)
        return self.design.qdot(c[:m]) + self.border @ c[m:]

    def bordered(self, name: str, column: np.ndarray) -> QRFactor:
        """The factor of the design, not bordered yet, with ``column``
        appended as its last column, reported as itself.

        The column is orthogonalised against Q twice (classical Gram-Schmidt
        with one reorthogonalisation); its coefficients and the norm of what
        is left border R by one column, so no new decomposition is made. A
        column in the span of the design raises :class:`SingularDesignError`
        naming it. The new factor shares this one's design, and holds the
        column as given, not copied.
        """
        if self.border.shape[1]:
            raise ValueError(f"factor is already bordered by {self.names[-1]!r}; border it once")
        column = np.asarray(column, dtype=np.float64)
        n, k = self.nobs, len(self.names)
        if column.shape != (n,):
            raise ValueError(f"column has shape {column.shape}, expected ({n},)")
        if name in self.names:
            raise ValueError("design column names must be unique")
        coef = self.qt(column)
        left = column - self.qdot(coef)
        again = self.qt(left)
        left -= self.qdot(again)
        coef += again
        r = np.zeros((k + 1, k + 1))
        r[:k, :k] = self.r
        r[:k, k] = coef
        r[k, k] = math.sqrt(np.add.reduce(left * left))
        scale = max(self.scale, math.sqrt(np.add.reduce(column * column)))
        _check_rank(self.design.names + (name,), r, scale)

        r_inv = np.zeros((k + 1, k + 1))
        r_inv[:k, :k] = self.r_inv
        r_inv[:k, k] = -(self.r_inv @ coef) / r[k, k]
        r_inv[k, k] = 1.0 / r[k, k]
        left /= r[k, k]
        contrasts = np.zeros((k + 1, k + 1))
        contrasts[:k, :k] = self.contrasts
        contrasts[k, k] = 1.0
        return QRFactor(
            self.names + (name,), contrasts, self.design, column[:, None], left[:, None],
            r, r_inv, scale,
        )

    def meat(self, u: np.ndarray, lag: int) -> np.ndarray:
        """The Bartlett meat of the scores u_t x_t of the rows x_t of the
        design, with the appended columns beside them (see
        :mod:`tempdyn.hac`, which only a HAC fit loads)."""
        from .hac import bartlett_meat

        return bartlett_meat(self.design, self.appended, u, lag)


def group_factor(
    names: Sequence[str], group: np.ndarray, t: Optional[np.ndarray] = None
) -> QRFactor:
    """The QR factor, in closed form, of the design named ``names`` whose
    columns are the indicators 1_g of the groups g = 0, 1, ... of rows
    (``group`` holds each row's), then, with ``t``, the products 1_g * t,
    each coefficient reported as itself.

    Per group, that is a mean, or a mean and a slope on the group's centred
    t: R holds sqrt(n_g) and s_g on its diagonal and sum_g(t)/sqrt(n_g)
    above s_g, with Q as :class:`GroupDesign` says. A design not of full
    rank, such as one with a group of no rows, or of one day under a slope,
    raises :class:`SingularDesignError` naming the first column in the span
    of the columns before it.
    """
    group = np.asarray(group, dtype=np.intp)
    n, k = len(group), len(names)
    if n <= k:
        raise InsufficientDataError(f"{n} observations for {k} regressors")
    groups = k // (1 if t is None else 2)
    counts = np.bincount(group, minlength=groups)
    starts = np.flatnonzero(np.concatenate(([True], group[1:] != group[:-1])))
    r = np.diag(np.sqrt(counts))
    # each column's sum of squares: a group's count, or its sum of t^2
    squares = counts.max()
    centred = None
    if t is not None:
        # the design keeps the caller's t, not this float copy
        times = np.asarray(t, dtype=np.float64)
        sums = _group_sums(times, group, starts, groups)
        centred = times - np.divide(sums, counts, out=np.zeros(groups), where=counts > 0)[group]
        above = np.divide(sums, r.diagonal(), out=np.zeros(groups), where=counts > 0)
        spread = np.sqrt(_group_sums(centred * centred, group, starts, groups))
        r = np.block([[r, np.diag(above)], [np.zeros((groups, groups)), np.diag(spread)]])
        squares = max(squares, _group_sums(times * times, group, starts, groups).max())
    scale = math.sqrt(squares)
    _check_rank(names, r, scale)
    # R is upper triangular, so LU's partial pivoting swaps no rows and the
    # solve is a back substitution
    r_inv = np.linalg.solve(r, np.eye(k))
    design = GroupDesign(tuple(names), group, t, starts, centred, 1.0 / r.diagonal())
    nothing = np.empty((n, 0))
    return QRFactor(design.names, np.eye(k), design, nothing, nothing, r, r_inv, scale)


def ols_fit(factor: QRFactor, y: np.ndarray) -> ModelFit:
    """Least-squares fit via the QR factor of a design; hac_cov left
    unpopulated.

    With c = Q'y, the design's coefficients b solve R b = c, beta is the
    factor's contrasts times b, and the fitted values are Q c, so the
    design's rows are never read: for a :func:`group_factor`, that is group
    sums and a gather.

    R^2 is centred: every design the package fits spans the constant (the
    trend and joint designs hold an intercept, the seasonal dummies
    partition the days).
    """
    y = np.asarray(y, dtype=np.float64)
    n = factor.nobs
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")

    c = factor.qt(y)
    beta = factor.contrasts @ np.linalg.solve(factor.r, c)
    residuals = y - factor.qdot(c)

    ssr = float(np.add.reduce(residuals * residuals))
    deviations = y - y.mean()
    sst = float(np.add.reduce(deviations * deviations))
    r_squared = 1.0 - ssr / sst if sst > 0 else 1.0

    beta.setflags(write=False)
    residuals.setflags(write=False)
    return ModelFit(factor.names, beta, residuals, r_squared, n)


def hac_cov(
    factor: QRFactor, residuals: np.ndarray, bandwidth: Bandwidth = "auto"
) -> np.ndarray:
    """Newey-West covariance of the OLS coefficients of a factored design.

    (X'X)^-1 comes from the factor's R, and the meat from
    :meth:`QRFactor.meat`, which reads no design rows; the sandwich V of
    the design's coefficients is reported as C V C', C the factor's
    contrasts. Bandwidth 0 collapses the kernel to the
    heteroskedasticity-only (HC0) sandwich. The result is exactly symmetric
    by construction.
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    n = factor.nobs
    if residuals.shape != (n,):
        raise ValueError("residuals do not match design length")
    lag = resolve_bandwidth(n, bandwidth)

    meat = factor.meat(residuals, lag)
    xtx_inv = factor.r_inv @ factor.r_inv.T
    cov = factor.contrasts @ (xtx_inv @ meat @ xtx_inv) @ factor.contrasts.T
    cov = (cov + cov.T) / 2.0
    cov.setflags(write=False)
    return cov


def fit_with_hac(
    factor: QRFactor, y: np.ndarray, bandwidth: Bandwidth = "auto"
) -> ModelFit:
    """ols_fit followed by hac_cov with the resolved lag, on one QR factor."""
    fit = ols_fit(factor, y)
    lag = resolve_bandwidth(fit.nobs, bandwidth)
    cov = hac_cov(factor, fit.residuals, lag)
    return ModelFit(
        fit.names, fit.beta, fit.residuals, fit.r_squared, fit.nobs, cov, lag
    )


def wald_test(fit: ModelFit, restricted: Sequence[str]) -> float:
    """The p-value of the chi-square Wald test that the named coefficients
    are jointly zero."""
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
        lower = np.linalg.cholesky(v_sub)
    except np.linalg.LinAlgError:
        raise WaldDegeneracyError(
            "restricted covariance block is not positive definite"
        ) from None
    whitened = np.linalg.solve(lower, b)
    return chi2_sf(float(whitened @ whitened), len(labels))


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function P(X > x) for a positive integer df.

    The regularized upper incomplete gamma Q(df/2, h) at h = x/2 has a
    closed form at integer and half-integer shape:

        even df:  sum_{k=0..df/2-1}   e^-h h^k / k!
        odd df:   erfc(sqrt h) + sum_{k=1/2..df/2-1} e^-h h^k / Gamma(k+1)

    with k in steps of one. Each term is exp(-h + k log h - lgamma(k+1)),
    so no factor of it overflows or underflows before the term itself does.
    """
    if x < 0:
        raise ValueError("chi-square statistic must be nonnegative")
    if not (df >= 1 and df % 1 == 0):
        raise ValueError(f"degrees of freedom must be a positive integer, not {df}")
    h = x / 2.0
    if h == 0.0:
        return 1.0
    if h == math.inf:
        return 0.0
    log_h = math.log(h)
    odd = df % 2
    total = math.erfc(math.sqrt(h)) if odd else 0.0
    for j in range(int(df) // 2):
        k = j + odd / 2.0
        total += math.exp(-h + k * log_h - math.lgamma(k + 1.0))
    return total
