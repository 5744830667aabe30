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

Every column but the joint model's lag depends only on the window, so one
:class:`WindowFactors` holds its t and month index and the factored design
of each model for every series and variable, each factored on first use.
:meth:`WindowFactors.least_squares` is the one entry for all four models:
it pairs a model's factor with its regressand, which every command then
fits by ``ols_fit`` or ``fit_with_hac``. The joint fit borders the factor
of its design without the lag with the series' own lag (see
:mod:`tempdyn.regression`); the two seasonal fits de-trend by OLS on the
window's trend factor.

Each design is, per group of days, a mean or a mean and a slope on t, so
each factor is a closed-form ``group_factor``: the trend is one group, the
fixed model twelve month means, and the evolving model twelve month means
and slopes. The joint design without its lag spans exactly the evolving
design of days 2..T, so the joint factor is that one's, with its
coefficients reported as contrasts with July: ``const`` and ``time`` are
July's intercept and slope, and ``d_m`` and ``dt_m`` month m's less July's.

Three Wald hypotheses are evaluated on the joint fit:

  p(nt)  no trend:                time and all 11 interactions zero  (df 12)
  p(ns)  no seasonality:          11 dummies and 11 interactions zero (df 22)
  p(nts) no trending seasonality: 11 interactions zero                (df 11)
"""

from __future__ import annotations

import calendar
from dataclasses import dataclass, replace
from datetime import date
from functools import cached_property
from typing import Iterable, Optional, Union

import numpy as np

from .regression import (
    Bandwidth, ModelFit, QRFactor, fit_with_hac, group_factor, ols_fit, wald_test,
)
from .series import TemperatureSeries
from .stations import ConfigError

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


def pattern_days(first: date, last: date) -> dict[str, int]:
    """``{"<year>": t}`` of the first and last July 1 in the window
    ``[first, last]`` (one entry if they are the same day), with t counted
    from ``first`` as 1: where figures evaluate the evolving pattern. A
    window with no July 1 raises ConfigError."""
    start = first.year + (first > date(first.year, JULY, 1))
    end = last.year - (last < date(last.year, JULY, 1))
    if start > end:
        raise ConfigError(
            f"window {first}..{last} holds no July 1 to evaluate the evolving "
            "seasonal pattern at"
        )
    return {str(year): (date(year, JULY, 1) - first).days + 1 for year in sorted({start, end})}


# days of each calendar month a design needs: one per dummy, two per slope
# on t; the joint design's July is its intercept and time trend, and it
# loses the window's first day to its lag, so it needs the most
_MONTH_DAYS = {"trend": 0, "fixed": 1, "evolving": 2, "joint": 2}


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


class WindowFactors:
    """The window ``[start, end]``'s read-only ``t`` (1..T, in days) and
    ``month_index`` of each day (0 for January to 11 for December), and
    the factored design of each model on it.

    This is the one place that computes them on the fit path, and knows
    which design each model is fitted on. Each factor is built on first
    use, or by :meth:`build`, so a command holds only the ones it fits:
    ``trend``, ``fixed``, ``evolving`` and ``joint`` (the joint design
    without its lag, as July contrasts of the evolving design of days
    2..T), each a ``group_factor`` of the window's days. The seasonal ones
    group the days by views of ``month_index``, the trend by a zero-stride
    view of one 0, so no factor copies a per-day group array, nor holds
    one of the window's days by the design's columns.
    """

    def __init__(self, start: date, end: date):
        days = np.arange(np.datetime64(start, "D"), np.datetime64(end, "D") + 1)
        self.start, self.end = start, end
        self.t = np.arange(1, len(days) + 1, dtype=np.int64)
        self.month_index = days.astype("datetime64[M]").astype(np.intp) % 12
        for array in (self.t, self.month_index):
            array.setflags(write=False)

    def build(self, *models: str, bandwidth: Bandwidth = "auto") -> WindowFactors:
        """These factors, with the window checked for ``models`` and then
        the factor :meth:`least_squares` fits each on built, in order (the
        trend's before a seasonal one it de-trends). ConfigError names the
        months with too few days for the most demanding of ``models`` to
        have full rank, or a fixed HAC ``bandwidth`` at or above a model's
        nobs (the joint model's from the second day).

        Commands call this before their first read, so the reads reuse the
        heap the build frees (with a lazy build, ``figures`` peaks about
        0.1 MiB higher). Once the window is checked, only the trend design
        can fail to factor (a window of two days or less).
        """
        demanding = max(models, key=lambda model: (_MONTH_DAYS[model], model == "joint"))
        needed = _MONTH_DAYS[demanding]
        counts = np.bincount(self.month_index[int(demanding == "joint"):], minlength=12)
        short = [calendar.month_abbr[m + 1] for m in np.flatnonzero(counts < needed)]
        if short:
            raise ConfigError(
                f"window {self.start}..{self.end} is short of days in {', '.join(short)}: the "
                f"{demanding} model needs {('one day', 'two days')[needed - 1]} in every "
                "calendar month"
            )
        for model in models:
            nobs = len(self.t) - (model == "joint")
            if bandwidth != "auto" and bandwidth >= nobs:
                raise ConfigError(
                    f"HAC bandwidth {bandwidth} must be below the {model} model's nobs "
                    f"{nobs} on {self.start}..{self.end}"
                )
        for model in models:
            if model in ("fixed", "evolving"):
                self.trend
            getattr(self, model)
        return self

    @cached_property
    def trend(self) -> QRFactor:
        return group_factor(("const", "time"), np.broadcast_to(np.intp(0), len(self.t)), self.t)

    @cached_property
    def fixed(self) -> QRFactor:
        return group_factor(DUMMY_NAMES, self.month_index)

    @cached_property
    def evolving(self) -> QRFactor:
        names = DUMMY_NAMES + INTERACTION_NAMES
        return group_factor(names, self.month_index, self.t)

    @cached_property
    def joint(self) -> QRFactor:
        # const and time are July's coefficients, and each other month's
        # dummy and interaction its coefficient less July's
        factor = group_factor(DUMMY_NAMES + INTERACTION_NAMES, self.month_index[1:], self.t[1:])
        eye, july = np.eye(24), [JULY - 1, 11 + JULY]
        others = np.delete(eye, july, 0) - np.repeat(eye[july], 11, axis=0)
        contrasts = np.vstack([eye[july], others])
        names = ("const", "time") + JOINT_DUMMIES + JOINT_INTERACTIONS
        return replace(factor, names=names, contrasts=contrasts)

    def least_squares(self, model: str, y: np.ndarray) -> tuple[QRFactor, np.ndarray]:
        """The factor and regressand that ``model`` fits to the window's
        values ``y``, ready for ``ols_fit`` or ``fit_with_hac``: the trend
        model takes ``y`` itself; the fixed and evolving seasonal models take
        its residuals from a plain OLS trend fit; the joint model takes
        t = 2..T, with the lag bordering the factor of the joint design
        without it, so it makes no new decomposition."""
        if model == "trend":
            return self.trend, y
        if model == "joint":
            return self.joint.bordered("lag", y[:-1]), y[1:]
        return getattr(self, model), ols_fit(self.trend, y).residuals


def city_report(
    station: str,
    series: TemperatureSeries,
    variable: str,
    factors: WindowFactors,
    bandwidth: Bandwidth = "auto",
) -> CityReport:
    """One row, fitted on ``factors``, the :class:`WindowFactors` of the
    series' window. A series of another window raises ValueError naming
    both windows.

    The joint model is fitted first, so a degenerate series (a constant or
    otherwise collinear lag) is reported as its dependent design column.
    """
    if (series.start, series.end) != (factors.start, factors.end):
        raise ValueError(
            f"series covers {series.start}..{series.end} but the factors are of "
            f"{factors.start}..{factors.end}"
        )
    y = series.variable(variable)
    joint = fit_with_hac(*factors.least_squares("joint", y), bandwidth)
    trend = fit_with_hac(*factors.least_squares("trend", y), bandwidth)
    p = {name: wald_test(joint, labels) for name, labels in HYPOTHESES.items()}
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
    station_series: Iterable[tuple[str, Union[TemperatureSeries, Exception]]],
    variables: Union[str, tuple[str, ...]],
    bandwidth: Bandwidth = "auto",
    factors: Optional[WindowFactors] = None,
) -> Union[BatchReport, tuple[BatchReport, ...]]:
    """Per-station rows in input order plus a column-wise median row, one
    :class:`BatchReport` per name in ``variables``, in order.

    Each entry of ``station_series`` is drawn once, from any iterable (a
    one-shot generator that reads each series when its station is drawn
    serves), and every variable is fitted on it before the series is
    dropped and the next entry drawn, so a caller that streams its reads
    holds one series at a time. A station failure only aborts that row; an
    entry may carry an Exception instead of a series to record an upstream
    failure, which fails the station in every variable. The median row is
    produced when every requested station succeeded or at least
    MIN_ROWS_FOR_MEDIAN did. Every row is fitted on ``factors``, built from
    the first series' window when omitted, so every variable shares them,
    and a series of another window fails its row; each row equals its
    :func:`city_report`.

    A single variable name returns its one report, not a tuple. That form
    serves the benchmark's serial runner (``bench/layers.py serial``) and
    goes when ROADMAP's retirement of that runner lands.
    """
    names = (variables,) if isinstance(variables, str) else variables
    rows: dict[str, list[CityReport]] = {variable: [] for variable in names}
    failures: dict[str, list[tuple[str, str]]] = {variable: [] for variable in names}
    for station, series in station_series:
        for variable in names:
            try:
                if isinstance(series, Exception):
                    raise series
                factors = factors or WindowFactors(series.start, series.end)
                rows[variable].append(city_report(station, series, variable, factors, bandwidth))
            except Exception as exc:  # noqa: BLE001 - diagnostics per station
                failures[variable].append((station, f"{type(exc).__name__}: {exc}"))
        # the next entry is drawn, and its series read, with this one freed
        del series
    reports = tuple(_report(variable, rows[variable], failures[variable]) for variable in names)
    return reports[0] if isinstance(variables, str) else reports


def _report(
    variable: str, rows: list[CityReport], failures: list[tuple[str, str]]
) -> BatchReport:
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
