"""The four nested conditional-mean specifications and their hypothesis tests.

For a daily series Y (AVG or DTR) over t = 1..T:

  trend:             Y ~ c + b*t                              (raw data)
  fixed seasonal:    Y~ ~ D_1..D_12                           (de-trended, no intercept)
  evolving seasonal: Y~ ~ D_1..D_12, D_1*t..D_12*t            (de-trended, no intercept)
  joint:             Y ~ c, t, D_i (i != 7), D_i*t (i != 7), Y(-1)

July is dropped from the joint design so the intercept captures July and
the remaining seasonal coefficients are relative to July. The joint fit
estimates over t = 2..T (the first day feeds the lag), with the time
regressor un-rescaled (t in days). The lag is its last column (the paper
lists it third; no estimate, error or test depends on the order).

Every column but the joint model's lag depends only on the window (first
date and length), so one :class:`WindowFactors` holds the factored design of
each model for every series and variable of a window, each factored on first
use. :meth:`WindowFactors.least_squares` is the one entry for all four
models: it pairs a model's factor with its regressand, which every command
then fits by ``ols_fit`` or ``fit_with_hac``. The joint fit borders the
factor of its design without the lag with the series' own lag (see
:mod:`tempdyn.regression`); the two seasonal fits de-trend by OLS on the
window's trend factor.

The fixed and evolving seasonal designs are block-diagonal by month: month
m's least-squares problem is a mean, or a mean and a slope on the month's
centred t. :func:`month_block_factor` writes their QR factor down in closed
form, with no Householder step.

Three Wald hypotheses are evaluated on the joint fit:

  p(nt)  no trend:                time and all 11 interactions zero  (df 12)
  p(ns)  no seasonality:          11 dummies and 11 interactions zero (df 22)
  p(nts) no trending seasonality: 11 interactions zero                (df 11)
"""

from __future__ import annotations

import calendar
from dataclasses import dataclass
from datetime import date
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .regression import (
    Bandwidth,
    DesignMatrix,
    InsufficientDataError,
    ModelFit,
    QRFactor,
    _check_rank,
    factorize,
    fit_with_hac,
    ols_fit,
    wald_test,
)
from .series import TemperatureSeries

JULY = 7
STAR_LEVEL = 0.01

DUMMY_NAMES = tuple(f"d{i:02d}" for i in range(1, 13))
INTERACTION_NAMES = tuple(f"dt{i:02d}" for i in range(1, 13))
JOINT_DUMMIES = tuple(n for i, n in enumerate(DUMMY_NAMES, start=1) if i != JULY)
JOINT_INTERACTIONS = tuple(
    n for i, n in enumerate(INTERACTION_NAMES, start=1) if i != JULY
)

# the restrictions of each Wald test on the joint fit, by the paper's label
HYPOTHESES = {
    "nt": ("time",) + JOINT_INTERACTIONS,
    "ns": JOINT_DUMMIES + JOINT_INTERACTIONS,
    "nts": JOINT_INTERACTIONS,
}


def delta_trend(fit: ModelFit) -> float:
    """A trend fit's total fitted movement over its sample, slope * (T - 1)."""
    return fit.coef("time") * (fit.nobs - 1)


def month_effects(fit: ModelFit, t: Optional[float] = None) -> tuple[float, ...]:
    """The twelve month effects in deg F of a seasonal fit, January first:
    the fixed model's dummies, or the evolving model's pattern at ``t``."""
    if t is None:
        return tuple(fit.coef(name) for name in DUMMY_NAMES)
    return tuple(
        fit.coef(dummy) + fit.coef(interaction) * t
        for dummy, interaction in zip(DUMMY_NAMES, INTERACTION_NAMES)
    )


def pattern_years(first: date, last: date) -> tuple[int, ...]:
    """The years of the first and last July 1 in the window ``[first, last]``
    (one year if they are the same day), where figures evaluate the evolving
    pattern. A window with no July 1 raises ValueError."""
    start = first.year + (first > date(first.year, JULY, 1))
    end = last.year - (last < date(last.year, JULY, 1))
    if start > end:
        raise ValueError(
            f"window {first}..{last} holds no July 1 to evaluate the evolving "
            "seasonal pattern at"
        )
    return (start,) if start == end else (start, end)


# days of each calendar month a design needs: one per dummy, two per slope
# on t; the joint design's July is its intercept and time trend
_MONTH_DAYS = {"trend": 0, "fixed": 1, "evolving": 2, "joint": 2}


def check_window_months(start: date, end: date, model: str) -> None:
    """Raise ValueError naming the calendar months of ``[start, end]`` with
    too few days for ``model``'s design to have full rank on any series.
    The joint model is fitted from the second day."""
    days = np.arange(np.datetime64(start, "D") + (model == "joint"), np.datetime64(end, "D") + 1)
    counts = np.bincount(days.astype("datetime64[M]").astype(np.int64) % 12, minlength=12)
    short = [calendar.month_abbr[m + 1] for m in np.flatnonzero(counts < _MONTH_DAYS[model])]
    if short:
        raise ValueError(
            f"window {start}..{end} is short of days in {', '.join(short)}: the {model} model "
            f"needs {('one day', 'two days')[_MONTH_DAYS[model] - 1]} in every calendar month"
        )


@dataclass(frozen=True)
class CityReport:
    """One summary-table row: trend movement plus joint-model statistics."""

    station: str
    delta_trend: float
    delta_trend_starred: bool
    p_nt: float
    p_ns: float
    p_nts: float
    rho: float
    rho_starred: bool
    r_squared: float
    hac_bandwidth: int


@dataclass(frozen=True)
class BatchReport:
    variable: str
    rows: tuple[CityReport, ...]
    median_row: Optional[CityReport]
    failures: tuple[tuple[str, str], ...]  # (station, diagnostic)


def trend_design(series: TemperatureSeries) -> DesignMatrix:
    data = np.column_stack([np.ones(len(series)), series.t.astype(np.float64)])
    return DesignMatrix(("const", "time"), data)


def seasonal_design(dummies: np.ndarray) -> DesignMatrix:
    return DesignMatrix(DUMMY_NAMES, dummies)


def evolving_design(dummies: np.ndarray, t: np.ndarray) -> DesignMatrix:
    t = np.asarray(t, dtype=np.float64)
    data = np.column_stack([dummies, dummies * t[:, None]])
    return DesignMatrix(DUMMY_NAMES + INTERACTION_NAMES, data)


def month_block_factor(month: np.ndarray, t: Optional[np.ndarray] = None) -> QRFactor:
    """The QR factor of :func:`seasonal_design` (``t`` omitted) or
    :func:`evolving_design` of the days' months, in closed form.

    For month m with n_m days, Q has the columns 1_m/sqrt(n_m) and
    (t - tbar_m) 1_m / s_m, where s_m is the norm of the month's centred t.
    R holds sqrt(n_m) and s_m on its diagonal and sum_m(t)/sqrt(n_m) above
    it, so the factor keeps the design's column order, and a month with no
    days (d) or with no spread in t (dt) is named as ``factorize`` names it:
    the first such column in design order.
    """
    index = np.asarray(month) - 1
    n, k = len(index), 12 if t is None else 24
    if n <= k:
        raise InsufficientDataError(f"{n} observations for {k} regressors")
    if not 0 <= index.min() <= index.max() <= 11:
        raise ValueError("months must lie in 1..12")
    days = np.arange(n)
    dummies = np.zeros((n, 12))
    dummies[days, index] = 1.0
    counts = np.bincount(index, minlength=12)
    root = np.sqrt(counts)
    if t is None:
        design = seasonal_design(dummies)
        diagonal = root
    else:
        t = np.asarray(t, dtype=np.float64)
        design = evolving_design(dummies, t)
        sums = np.bincount(index, weights=t, minlength=12)
        centred = t - sums[index] / counts[index]
        spread = np.sqrt(np.bincount(index, weights=centred * centred, minlength=12))
        diagonal = np.concatenate([root, spread])
    r = np.diag(diagonal)
    scale = float(np.linalg.norm(design.data, axis=0).max())
    _check_rank(design.names, r, scale)

    q = np.zeros((n, k), order="F")
    q[days, index] = 1.0 / root[index]
    if t is not None:
        months = np.arange(12)
        r[months, 12 + months] = sums / root  # row d_m, column dt_m
        q[days, 12 + index] = centred / spread[index]
    # R is upper triangular, so LU's partial pivoting swaps no rows and the
    # solve is a back substitution
    r_inv = np.linalg.solve(r, np.eye(k))
    return QRFactor(design, q, np.empty((n, 0)), r, r_inv, scale)


def joint_shared_design(month: np.ndarray, t: np.ndarray) -> DesignMatrix:
    """The joint design without its lag column, estimation sample t = 2..T."""
    month = np.asarray(month)[1:]
    time = np.asarray(t, dtype=np.float64)[1:]
    if len(time) < 1:
        raise ValueError("joint model needs at least two observations")
    dummies = (month[:, None] == np.delete(np.arange(1, 13), JULY - 1)).astype(np.float64)
    data = np.column_stack([np.ones(len(time)), time, dummies, dummies * time[:, None]])
    return DesignMatrix(("const", "time") + JOINT_DUMMIES + JOINT_INTERACTIONS, data)


class WindowFactors:
    """The factored design of each model on one window (first date and
    length), shared by every series and variable of the window.

    This is the one place that knows which design each model is fitted on
    and how it is factored. Each factor is built on first use, so a command
    holds only the ones it fits: ``trend`` and ``joint`` (the joint design
    without its lag) by Householder QR, ``fixed`` and ``evolving`` in closed
    form by month (:func:`month_block_factor`).
    """

    def __init__(self, series: TemperatureSeries):
        self._series = series

    @cached_property
    def trend(self) -> QRFactor:
        return factorize(trend_design(self._series))

    @cached_property
    def fixed(self) -> QRFactor:
        return month_block_factor(self._series.month)

    @cached_property
    def evolving(self) -> QRFactor:
        return month_block_factor(self._series.month, self._series.t)

    @cached_property
    def joint(self) -> QRFactor:
        return factorize(joint_shared_design(self._series.month, self._series.t))

    def least_squares(self, model: str, y: np.ndarray) -> tuple[QRFactor, np.ndarray]:
        """The factor and regressand that ``model`` fits to the window's
        values ``y``, ready for ``ols_fit`` or ``fit_with_hac``: the trend
        model takes ``y`` itself; the fixed and evolving seasonal models take
        its residuals from a plain OLS trend fit; the joint model takes
        t = 2..T, with the lag bordering the factor of
        :func:`joint_shared_design`, so it makes no new decomposition."""
        if model == "trend":
            return self.trend, y
        if model == "joint":
            return self.joint.bordered("lag", y[:-1]), y[1:]
        return getattr(self, model), ols_fit(self.trend, y).residuals


def city_report(
    station: str,
    series: TemperatureSeries,
    variable: str,
    bandwidth: Bandwidth = "auto",
    factors: Optional[WindowFactors] = None,
) -> CityReport:
    """``factors`` are the :class:`WindowFactors` of the series' window;
    they are built when omitted, with the same result to the last bit.

    The joint model is fitted first, so a degenerate series (a constant or
    otherwise collinear lag) is reported as its dependent design column.
    """
    factors = factors or WindowFactors(series)
    y = series.variable(variable)
    joint = fit_with_hac(*factors.least_squares("joint", y), bandwidth)
    trend = fit_with_hac(*factors.least_squares("trend", y), bandwidth)
    p = {name: wald_test(joint, labels).p_value for name, labels in HYPOTHESES.items()}
    return CityReport(
        station=station,
        delta_trend=delta_trend(trend),
        delta_trend_starred=trend.coef_p("time") < STAR_LEVEL,
        p_nt=p["nt"],
        p_ns=p["ns"],
        p_nts=p["nts"],
        rho=joint.coef("lag"),
        rho_starred=joint.coef_p("lag") < STAR_LEVEL,
        r_squared=joint.r_squared,
        hac_bandwidth=joint.bandwidth,
    )


MIN_ROWS_FOR_MEDIAN = 8


def _median(values: Iterable[float]) -> float:
    """The middle value, or the mean of the middle two (as ``statistics.median``)."""
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def batch_report(
    station_series: Sequence[tuple[str, Union[TemperatureSeries, Exception]]],
    variable: str,
    bandwidth: Bandwidth = "auto",
    factors: Optional[dict[tuple[date, int], WindowFactors]] = None,
) -> BatchReport:
    """Per-station rows in input order plus a column-wise median row.

    A station failure only aborts that row; an entry may carry an Exception
    instead of a series to record an upstream failure. The median row is
    produced when every requested station succeeded or at least
    MIN_ROWS_FOR_MEDIAN did. One :class:`WindowFactors` serves each window
    (first date, length); each row equals its :func:`city_report`.
    ``factors`` maps windows to their factors and gains the ones built
    here, so calls for several variables that share it factor each window
    once.
    """
    rows: list[CityReport] = []
    failures: list[tuple[str, str]] = []
    factors = {} if factors is None else factors
    for station, series in station_series:
        try:
            if isinstance(series, Exception):
                raise series
            window = (series.start, len(series))
            if window not in factors:
                factors[window] = WindowFactors(series)
            rows.append(city_report(station, series, variable, bandwidth, factors[window]))
        except Exception as exc:  # noqa: BLE001 - diagnostics per station
            failures.append((station, f"{type(exc).__name__}: {exc}"))
    median_row = None
    if rows and (not failures or len(rows) >= MIN_ROWS_FOR_MEDIAN):
        median_row = CityReport(
            station="Median",
            delta_trend=_median(r.delta_trend for r in rows),
            delta_trend_starred=False,
            p_nt=_median(r.p_nt for r in rows),
            p_ns=_median(r.p_ns for r in rows),
            p_nts=_median(r.p_nts for r in rows),
            rho=_median(r.rho for r in rows),
            rho_starred=False,
            r_squared=_median(r.r_squared for r in rows),
            hac_bandwidth=rows[0].hac_bandwidth,
        )
    return BatchReport(variable, tuple(rows), median_row, tuple(failures))
