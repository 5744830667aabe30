import inspect
import itertools
import math
import tracemalloc
from datetime import date, timedelta
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

import tempdyn.models as models
from tempdyn import reporting
from tempdyn.models import (
    DUMMY_NAMES,
    HYPOTHESES,
    JOINT_DUMMIES,
    JOINT_INTERACTIONS,
    WindowFactors,
    batch_report,
    city_report,
    delta_trend,
    month_effects,
)
from tempdyn.regression import (
    ModelFit,
    QRFactor,
    SingularDesignError,
    fit_with_hac,
    hac_cov,
    nw_auto_bandwidth,
    ols_fit,
    wald_test,
)
from tempdyn.series import TemperatureSeries, build_series
from tempdyn.stations import ConfigError

from conftest import DesignMatrix, evolving_design, factorize, month_dummies, stacked_meat
from dgp import calendar_months, joint_design, joint_shared_design, simulate_joint


def series_from_avg(avg: np.ndarray, start: date = date(1960, 1, 1)) -> TemperatureSeries:
    """Test-only construction with a controlled (possibly non-integer) AVG:
    max and min both equal it, so the AVG derived from them has its bits."""
    avg = np.asarray(avg, dtype=np.float64)
    return TemperatureSeries(start=start, max_f=avg, min_f=avg)


def factors_of(series: TemperatureSeries) -> WindowFactors:
    """The factors of the series' window."""
    return WindowFactors(series.start, series.end)


def fitted(series: TemperatureSeries, model: str, bandwidth="auto") -> ModelFit:
    """``model`` fitted with HAC to the series' avg, through the factors of
    its window."""
    y = series.variable("avg")
    return fit_with_hac(*factors_of(series).least_squares(model, y), bandwidth)


def wald_suite(joint: ModelFit) -> dict:
    """The p-values of the three hypothesis tests on a joint fit, by label
    (nt, ns, nts)."""
    return {label: wald_test(joint, restrictions) for label, restrictions in HYPOTHESES.items()}


def fixed_on(series: TemperatureSeries, detrended: np.ndarray) -> ModelFit:
    """The fixed seasonal model of the series' window, fitted to a given
    de-trended regressand."""
    return fit_with_hac(factors_of(series).fixed, detrended)


def evolving_on(series: TemperatureSeries, detrended: np.ndarray) -> ModelFit:
    """The evolving seasonal model of the series' window, fitted to a given
    de-trended regressand."""
    return fit_with_hac(factors_of(series).evolving, detrended)


def integer_series(start: date, end: date, tmax_fn, tmin_fn) -> TemperatureSeries:
    days = [start + timedelta(days=i) for i in range((end - start).days + 1)]
    return build_series([tmax_fn(d) for d in days], [tmin_fn(d) for d in days], start, end)


class TestFitTrend:
    def test_known_slope_recovered(self):
        rng = np.random.default_rng(314)
        T = 1000
        t = np.arange(1, T + 1)
        series = series_from_avg(0.001 * t + rng.standard_normal(T))
        trend = fitted(series, "trend")
        se_delta = trend.se("time") * (T - 1)
        assert abs(delta_trend(trend) - 0.999) < 3 * se_delta

    def test_delta_antisymmetric_under_time_reversal(self):
        rng = np.random.default_rng(55)
        values = 60.0 + 0.002 * np.arange(1, 731) + rng.standard_normal(730)
        forward = fitted(series_from_avg(values), "trend")
        backward = fitted(series_from_avg(values[::-1]), "trend")
        assert backward.coef("time") == pytest.approx(-forward.coef("time"), rel=1e-9)
        assert abs(delta_trend(backward)) == pytest.approx(
            abs(delta_trend(forward)), rel=1e-9
        )

    def test_strong_trend_is_starred(self):
        t = np.arange(1, 2001)
        series = series_from_avg(50.0 + 0.01 * t)
        trend = fitted(series, "trend")
        assert trend.coef_p("time") < models.STAR_LEVEL


class TestDetrend:
    def test_constant_series_detrends_to_zero(self):
        series = series_from_avg(np.full(400, 60.0))
        trend = fitted(series, "trend")
        np.testing.assert_allclose(trend.residuals, 0.0, atol=1e-9)

    def test_pure_trend_detrends_to_zero(self):
        t = np.arange(1, 401)
        series = series_from_avg(5.0 + 0.01 * t)
        trend = fitted(series, "trend")
        np.testing.assert_allclose(trend.residuals, 0.0, atol=1e-8)

    def test_mean_zero(self):
        rng = np.random.default_rng(21)
        series = series_from_avg(60 + np.cumsum(rng.standard_normal(500)) * 0.1)
        trend = fitted(series, "trend")
        assert abs(trend.residuals.mean()) < 1e-9


class TestFixedSeasonal:
    def test_january_indicator_pattern(self):
        series = series_from_avg(np.zeros(365 * 2), start=date(1961, 1, 1))
        detrended = np.where(factors_of(series).month_index == 0, 1.0, -1.0)
        result = fixed_on(series, detrended)
        assert month_effects(result)[0] == pytest.approx(1.0, abs=1e-12)
        for effect in month_effects(result)[1:]:
            assert effect == pytest.approx(-1.0, abs=1e-12)

    def test_coefficients_equal_month_means(self):
        rng = np.random.default_rng(99)
        series = series_from_avg(np.zeros(1200))
        detrended = rng.standard_normal(1200)
        result = fixed_on(series, detrended)
        for m in range(1, 13):
            month_mean = detrended[factors_of(series).month_index == m - 1].mean()
            assert month_effects(result)[m - 1] == pytest.approx(
                month_mean, abs=1e-10
            )


class TestEvolvingSeasonal:
    def test_stable_seasonality_gives_flat_interactions(self):
        rng = np.random.default_rng(1234)
        T = 3653
        month = calendar_months(date(1960, 1, 1), T)
        seasonal = np.array([8, 4, 0, -3, -6, -8, -9, -7, -3, 1, 4, 7], float)
        detrended = seasonal[month - 1] + rng.standard_normal(T)
        detrended -= detrended.mean()
        series = series_from_avg(detrended)
        result = evolving_on(series, detrended)
        first = month_effects(result, 1.0)
        last = month_effects(result, float(T))
        for m in range(12):
            interaction = result.coef(f"dt{m + 1:02d}")
            se = result.se(f"dt{m + 1:02d}")
            assert abs(last[m] - first[m]) == pytest.approx(
                abs(interaction) * (T - 1), rel=1e-9
            )
            assert abs(interaction) < 3 * se

    def test_drifting_october_detected(self):
        rng = np.random.default_rng(4321)
        T = 7305
        month = calendar_months(date(1960, 1, 1), T)
        t = np.arange(1, T + 1)
        drift = np.where(month == 10, -4e-4 * t, 0.0)
        detrended = drift + rng.standard_normal(T)
        series = series_from_avg(detrended)
        result = evolving_on(series, detrended)
        october = result.coef("dt10")
        assert october < 0
        assert abs(october / result.se("dt10")) > 3

    def test_pattern_time_average_is_zero(self):
        # fitted values are month_effects(t) picked out by each day's month, and
        # they average to the mean of the regressand
        rng = np.random.default_rng(8)
        T = 1461
        month = calendar_months(date(1960, 1, 1), T)
        seasonal = np.array([5, 3, 1, -1, -3, -5, -5, -3, -1, 1, 3, 5], float)
        detrended = seasonal[month - 1] + rng.standard_normal(T)
        detrended -= detrended.mean()
        series = series_from_avg(detrended)
        result = evolving_on(series, detrended)
        factors = factors_of(series)
        values = evolving_design(month_dummies(factors.month_index), factors.t).data @ result.beta
        assert abs(values.mean()) < 1e-10

    def test_pattern_for_year_uses_july_first(self):
        # the t of a year's pattern is the window's t on July 1, and its
        # column is labelled by the year
        T = 731
        series = series_from_avg(np.zeros(T), start=date(1960, 1, 1))
        detrended = np.linspace(-1, 1, T)
        result = evolving_on(series, detrended)
        anchored = month_effects(result, factors_of(series).t[(date(1960, 7, 1) - series.start).days])
        t_july = (date(1960, 7, 1) - date(1960, 1, 1)).days + 1
        direct = month_effects(result, float(t_july))
        assert anchored == direct
        text = b"".join(reporting.patterns_csv({"1960": anchored})).decode()
        assert text.split("\n")[0] == "month,effect_1960"


@pytest.mark.parametrize(
    "start, end, days",
    [
        (date(1960, 1, 1), date(2017, 12, 31), {"1960": 183, "2017": 21002}),
        (date(1960, 9, 1), date(2017, 12, 31), {"1961": 304, "2017": 20758}),
        (date(1960, 7, 1), date(2017, 6, 30), {"1960": 1, "2016": 20455}),
        (date(1961, 1, 1), date(2016, 12, 31), {"1961": 182, "2016": 20271}),
        (date(1960, 9, 1), date(1961, 12, 31), {"1961": 304}),
    ],
)
def test_pattern_years_are_those_of_the_first_and_last_july_first(start, end, days):
    # t counts from the window's first day as 1; the first year is the first column
    assert list(models.pattern_days(start, end).items()) == list(days.items())


def test_window_without_july_first_has_no_pattern_years():
    with pytest.raises(ConfigError, match="1960-07-02..1961-06-30 holds no July 1"):
        models.pattern_days(date(1960, 7, 2), date(1961, 6, 30))


def dense_designs(factors: WindowFactors) -> dict[str, DesignMatrix]:
    """Each model's design on the window of ``factors`` (the joint one
    without its lag) as one dense matrix, by model."""
    dummies = month_dummies(factors.month_index)
    t = factors.t.astype(np.float64)
    return {
        "trend": DesignMatrix(("const", "time"), np.column_stack([np.ones(len(t)), t])),
        "fixed": DesignMatrix(DUMMY_NAMES, dummies),
        "evolving": evolving_design(dummies, t),
        "joint": joint_shared_design(factors.month_index + 1, factors.t),
    }


def meat_layout_rows(design) -> np.ndarray:
    """The dense rows of a design as the Bartlett meat reads them: each
    row's ``scores`` of weight 1 at its group's columns, column j of group
    g being j * groups + g."""
    n = len(design.group)
    groups = len(design.names) // design.width
    rows = np.zeros((n, len(design.names)))
    columns = design.group[:, None] + groups * np.arange(design.width)
    rows[np.arange(n)[:, None], columns] = design.scores(0, n, np.ones(n))
    return rows


class TestGroupFactor:
    """The closed-form factor of each model against numpy's Householder QR
    of the same design: the trend, fixed and evolving factors by their Q
    and R, the joint one, the evolving factor of days 2..T reported as July
    contrasts, by its fits."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_householder_factor(self, seed):
        # random windows: any start day, a third of them shorter than a year
        rng = np.random.default_rng(seed)
        start = date(1950, 1, 1) + timedelta(days=int(rng.integers(0, 20000)))
        length = int(rng.integers(340, 365 if seed % 3 == 0 else 4000))
        factors = WindowFactors(start, start + timedelta(days=length - 1))
        y = np.sin(factors.t / 58.0) * 10.0 + rng.standard_normal(length)
        for model, design in dense_designs(factors).items():
            try:
                dense = factorize(design)
            except SingularDesignError as exc:
                with pytest.raises(SingularDesignError) as raised:
                    getattr(factors, model)
                assert raised.value.column == exc.column
                continue
            closed = getattr(factors, model)
            n, k = design.data.shape
            regressand = y[-n:]
            assert closed.names == design.names
            if model != "joint":
                assert np.array_equal(meat_layout_rows(closed.design), design.data)
                assert closed.scale == dense.scale
                q = np.column_stack([closed.qdot(column) for column in np.eye(k)])
                np.testing.assert_allclose(q @ closed.r, design.data, rtol=0, atol=1e-9)
                np.testing.assert_allclose(q.T @ q, np.eye(k), rtol=0, atol=1e-12)
                np.testing.assert_allclose(closed.qt(regressand), q.T @ regressand, rtol=1e-12, atol=1e-9)

            ours, theirs = ols_fit(closed, regressand), ols_fit(dense, regressand)
            assert np.abs(ours.beta - theirs.beta).max() <= 1e-12 * np.abs(theirs.beta).max()
            assert ours.r_squared == pytest.approx(theirs.r_squared, rel=1e-12)
            cov_ours = hac_cov(closed, ours.residuals)
            cov_theirs = hac_cov(dense, theirs.residuals)
            assert np.abs(cov_ours - cov_theirs).max() <= 1e-10 * np.abs(cov_theirs).max()

    @pytest.mark.parametrize(
        "start, end, fixed_column, evolving_column, joint_column",
        [
            # April to December have no days
            (date(1960, 1, 1), date(1960, 3, 31), "d04", "d04", "d04"),
            # January has one day, the joint model's lost first one: a mean
            # but no slope, and nothing from day 2
            (date(1960, 1, 31), date(1960, 12, 31), None, "dt01", "d01"),
            # both: December is empty, and comes first in design order
            (date(1960, 1, 31), date(1960, 11, 30), "d12", "d12", "d01"),
            # July, the joint design's intercept and time trend, has one day
            # from day 2
            (date(1960, 7, 31), date(1961, 7, 1), None, None, "dt07"),
        ],
    )
    def test_rank_deficiency_named_as_householder_names_it(
        self, start, end, fixed_column, evolving_column, joint_column
    ):
        # the joint factor is the evolving one of days 2..T and names that
        # design's first dependent column, as Householder does; no numpy
        # warning is raised on the way, as pytest makes it an error
        factors = WindowFactors(start, end)
        designs = dense_designs(factors)
        designs["joint"] = evolving_design(month_dummies(factors.month_index[1:]), factors.t[1:])
        expected = {"fixed": fixed_column, "evolving": evolving_column, "joint": joint_column}
        for model, column in expected.items():
            if column is None:
                factorize(designs[model])
                getattr(factors, model)
                continue
            for build in (lambda: factorize(designs[model]), lambda: getattr(factors, model)):
                with pytest.raises(SingularDesignError) as raised:
                    build()
                assert raised.value.column == column, model


def exact_least_squares(X: np.ndarray, y: np.ndarray) -> list[Fraction]:
    """The least-squares coefficients of ``X`` and ``y`` in exact rational
    arithmetic, by the normal equations. Every float is a dyadic rational,
    so scaled by a power of two each entry is an integer."""
    scale = 2 ** max(Fraction(v).denominator for v in np.concatenate([X.ravel(), y])).bit_length()
    columns = [[int(v * scale) for v in column] for column in X.T.tolist()] + [
        [int(v * scale) for v in y.tolist()]
    ]
    k = X.shape[1]
    system = [
        [Fraction(sum(a * b for a, b in zip(columns[i], columns[j]))) for j in range(k + 1)]
        for i in range(k)
    ]
    for i in range(k):
        pivot = max(range(i, k), key=lambda row: abs(system[row][i]))
        system[i], system[pivot] = system[pivot], system[i]
        for row in range(k):
            if row != i and system[row][i]:
                ratio = system[row][i] / system[i][i]
                system[row] = [a - ratio * b for a, b in zip(system[row], system[i])]
    return [system[i][k] / system[i][i] for i in range(k)]


def largest_relative_error(beta: np.ndarray, exact: list[Fraction]) -> float:
    return max(float(abs(Fraction(b) - e) / abs(e)) for b, e in zip(beta.tolist(), exact))


def exact_residuals(X: np.ndarray, y: np.ndarray, beta: list[Fraction]) -> list[Fraction]:
    """y - X beta in exact rational arithmetic."""
    return [
        Fraction(v) - sum(Fraction(x) * b for x, b in zip(row, beta) if x)
        for row, v in zip(X.tolist(), y.tolist())
    ]


def largest_error(values: np.ndarray, exact: list[Fraction]) -> float:
    return max(float(abs(Fraction(v) - e)) for v, e in zip(values.tolist(), exact))


@pytest.mark.parametrize("variable", ["avg", "dtr"])
def test_closed_form_coefficients_as_accurate_as_householder(variable):
    # t is an integer and AVG and DTR are exact halves, so each model's
    # least-squares problem has an exact rational solution; the de-trended
    # regressand of the seasonal models is a vector of floats, each exact.
    # The residuals, y less the fitted values Q Q'y, are held against
    # Householder's y - X beta
    start, end = date(1961, 3, 1), date(1963, 8, 31)
    days = (end - start).days + 1
    rng = np.random.default_rng(5)
    season = np.rint(20 * np.cos(2 * np.pi * np.arange(days) / 365.25)).astype(np.int64)
    tmin = 40 + season + rng.integers(-8, 9, size=days)
    series = build_series(tmin + rng.integers(5, 30, size=days), tmin, start, end)
    factors = factors_of(series)
    designs = dense_designs(factors)
    for model in ("trend", "fixed", "evolving", "joint"):
        factor, regressand = factors.least_squares(model, series.variable(variable))
        design = designs[model]
        if model == "joint":
            design, _ = joint_design(factors.month_index + 1, factors.t, series.variable(variable))
        exact = exact_least_squares(design.data, regressand)
        ours, householder = ols_fit(factor, regressand), ols_fit(factorize(design), regressand)
        errors = largest_relative_error(ours.beta, exact), largest_relative_error(householder.beta, exact)
        assert errors[0] <= 2 * errors[1], (model, *errors)
        exact = exact_residuals(design.data, regressand, exact)
        errors = (
            largest_error(ours.residuals, exact),
            largest_error(regressand - design.data @ householder.beta, exact),
        )
        assert errors[0] <= 2 * errors[1], (model, *errors)


def test_group_sums_accurate_over_a_full_window():
    # a month of a 58-year window is ~58 runs of ~30 days: Q'v adds each
    # run's pairwise sum in order. Held against math.fsum relative to the
    # sum of magnitudes, the worst month over these draws is ~1e-15; summing
    # every day in sequence is ~5e-15
    factors = WindowFactors(date(1960, 1, 1), date(2017, 12, 31))
    rows = [np.flatnonzero(factors.month_index == m) for m in range(12)]
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        for model in ("fixed", "evolving"):
            design = getattr(factors, model).design
            v = rng.uniform(0.0, 100.0, len(design.group))
            weights = [v] if design.centred is None else [v, design.centred * v]
            sums = (design.qt(v) / design.inv_norms).reshape(len(weights), 12)
            for w, got in zip(weights, sums):
                for month, at in enumerate(rows):
                    month_w = w[at].tolist()
                    error = abs(got[month] - math.fsum(month_w)) / math.fsum(map(abs, month_w))
                    worst = max(worst, error)
    assert worst <= 4e-15, worst


def exact_bartlett_meat(X: np.ndarray, u: np.ndarray, lag: int) -> list[Fraction]:
    """The Bartlett meat of the scores u_t x_t, row by row, in exact rational
    arithmetic, by its lag sum G_0 + sum_{j=1..lag} (1 - j/(lag+1)) (G_j + G_j'),
    with G_j the lag-j cross product of the scores."""
    scales = [
        2 ** max(Fraction(v).denominator for v in values.ravel().tolist()).bit_length()
        for values in (X, u)
    ]
    weights = [int(v * scales[1]) for v in u.tolist()]
    scores = [[int(x * scales[0]) * w for x, w in zip(column, weights)] for column in X.T.tolist()]
    n, k = X.shape
    numerator = [[0] * k for _ in range(k)]
    for j in range(lag + 1):
        for a, b in itertools.product(range(k), repeat=2):
            product = (lag + 1 - j) * sum(p * q for p, q in zip(scores[a][j:], scores[b][: n - j]))
            numerator[a][b] += product
            if j:
                numerator[b][a] += product
    denominator = (lag + 1) * (scales[0] * scales[1]) ** 2
    return [Fraction(v, denominator) for row in numerator for v in row]


def largest_entry_error(values: np.ndarray, exact: list[Fraction]) -> float:
    """The largest error of an entry relative to its exact value, where an
    exact zero is matched by a zero."""
    return max(
        float(abs(Fraction(v) - e) / abs(e)) if e else (0.0 if v == 0 else math.inf)
        for v, e in zip(values.ravel().tolist(), exact)
    )


@pytest.mark.parametrize("variable", ["avg", "dtr"])
def test_joint_meat_as_accurate_as_the_stacked_design(variable):
    # the joint meat is summed over the scores of the evolving design of
    # days 2..T and the lag, built a block at a time from the days' months
    # and t; on a window of 14 months it is no further from the exact meat
    # of the fit's residuals than that design stacked as one dense matrix
    start, end = date(1961, 3, 1), date(1962, 4, 30)
    days = (end - start).days + 1
    rng = np.random.default_rng(6)
    season = np.rint(20 * np.cos(2 * np.pi * np.arange(days) / 365.25)).astype(np.int64)
    tmin = 40 + season + rng.integers(-8, 9, size=days)
    series = build_series(tmin + rng.integers(5, 30, size=days), tmin, start, end)
    factors = factors_of(series)
    y = series.variable(variable)
    factor, regressand = factors.least_squares("joint", y)
    evolving = evolving_design(month_dummies(factors.month_index[1:]), factors.t[1:])
    design = DesignMatrix(evolving.names + ("lag",), np.column_stack([evolving.data, y[:-1]]))
    u = ols_fit(factor, regressand).residuals
    lag = nw_auto_bandwidth(len(u))
    exact = exact_bartlett_meat(design.data, u, lag)
    ours = factor.meat(u, lag)
    stacked = stacked_meat(design.data, u, lag)
    errors = largest_entry_error(ours, exact), largest_entry_error(stacked, exact)
    assert errors[0] <= 2 * errors[1], errors


def lattice_regressand(seed: int, days: int) -> np.ndarray:
    """``days`` values of a seasonal cycle, a trend and AR(1) noise, each of
    a size drawn from ``seed``, rounded to half a degree as AVG is."""
    rng = np.random.default_rng(seed)
    t = np.arange(days)
    amplitude, sd, rho, slope = rng.uniform(0, 2), rng.uniform(1, 6), rng.uniform(0, 0.9), rng.uniform(-1e-3, 1e-3)
    noise = lfilter([1.0], [1.0, -rho], sd * rng.standard_normal(days))
    cycle = amplitude * np.cos(2 * np.pi * t / 365.25 + rng.uniform(0, 2 * np.pi))
    return np.rint(2 * (50 + cycle + slope * t + noise)) / 2


# bounds of the differential tests below, of each model's fit through the
# window's factors against Householder of its dense design: each is 10
# times the largest gap of draws of their ranges (numpy's default rng; the
# same gaps at one and two BLAS threads), rounded up. For the joint model,
# 1,000 draws gave 2.8e-12, 1.6e-13, 1.8e-9 and 2.0e-10. The gaps are
# Householder's: on the draw of the largest joint p-value gap, an exact
# rational fit was within 4e-14 of this package's p-values and 2e-10 of
# Householder's
BETA_SE = 3e-11  # |beta gap| over Householder's HAC standard error
RESIDUALS = 2e-12  # |residual gap| over the largest |regressand|
COV_SE = 2e-8  # |hac_cov gap| over sqrt(V_ii V_jj)
P_VALUE = 2e-9  # |Wald p-value gap|
# BETA_SE, RESIDUALS and COV_SE of the trend, fixed and evolving models,
# from 2,000 draws whose largest gaps were: trend 9.4e-12, 1.8e-14 and
# 1.3e-12; fixed 9.6e-12, 7.6e-14 and 3.6e-13; evolving 5.7e-12, 6.8e-14
# and 4.5e-12 (the joint model's stayed within its bounds above)
TREND_AND_SEASONAL = {
    "trend": (1e-10, 2e-13, 2e-11),
    "fixed": (1e-10, 8e-13, 4e-12),
    "evolving": (6e-11, 7e-13, 5e-11),
}

windows_and_lags = given(
    start=st.dates(date(1950, 1, 1), date(2010, 12, 31)),
    days=st.integers(365, 7 * 365 + 2),
    lag=st.one_of(st.just("auto"), st.integers(0, 90)),
    seed=st.integers(0, 2**32 - 1),
)


def householder_gaps(ours: ModelFit, theirs: ModelFit, regressand: np.ndarray) -> np.ndarray:
    """The gaps of a fit from Householder's fit ``theirs`` of the same
    model's dense design to ``regressand``: the largest |beta gap| over
    Householder's HAC standard error, |residual gap| over the largest
    |regressand|, and |hac_cov gap| over sqrt(V_ii V_jj)."""
    assert ours.names == theirs.names
    assert ours.bandwidth == theirs.bandwidth
    se = np.sqrt(np.diag(theirs.hac_cov))
    return np.array([
        (np.abs(ours.beta - theirs.beta) / se).max(),
        np.abs(ours.residuals - theirs.residuals).max() / np.abs(regressand).max(),
        (np.abs(ours.hac_cov - theirs.hac_cov) / np.outer(se, se)).max(),
    ])


def trend_and_seasonal_gaps(start: date, days: int, y: np.ndarray, lag) -> dict[str, np.ndarray]:
    """The :func:`householder_gaps` of the trend, fixed and evolving fits
    to ``y`` through the factors of the window of ``days`` days from
    ``start``, by model. Householder's seasonal fits take the residuals of
    its own trend fit, and its designs enumerate the months from the
    dates, so they read nothing of ``WindowFactors``."""
    factors = WindowFactors(start, start + timedelta(days=days - 1))
    dummies, t = month_dummies(calendar_months(start, days) - 1), np.arange(1.0, days + 1)
    trend = factorize(DesignMatrix(("const", "time"), np.column_stack([np.ones(days), t])))
    detrended = ols_fit(trend, y).residuals
    dense = {
        "trend": (trend, y),
        "fixed": (factorize(DesignMatrix(DUMMY_NAMES, dummies)), detrended),
        "evolving": (factorize(evolving_design(dummies, t)), detrended),
    }
    return {
        model: householder_gaps(
            fit_with_hac(*factors.least_squares(model, y), lag),
            fit_with_hac(factor, regressand, lag),
            regressand,
        )
        for model, (factor, regressand) in dense.items()
    }


@settings(max_examples=100, deadline=None)
@windows_and_lags
@example(start=date(1960, 2, 29), days=365, lag="auto", seed=0)
@example(start=date(1996, 2, 29), days=7 * 365 + 2, lag=90, seed=1)
def test_joint_fit_matches_householder_of_the_dense_design(start, days, lag, seed):
    # the joint fit every command makes, through the evolving factor of
    # days 2..T reported as July contrasts and bordered by the lag, against
    # Householder of the dense joint design, on a window that starts on any
    # day (on Feb 29 in the examples) and is one to seven years long, at a
    # lag of up to 90 days or the automatic one
    factors = WindowFactors(start, start + timedelta(days=days - 1))
    y = lattice_regressand(seed, days)
    ours = fit_with_hac(*factors.least_squares("joint", y), lag)
    design, regressand = joint_design(calendar_months(start, days), factors.t, y)
    theirs = fit_with_hac(factorize(design), regressand, lag)
    assert np.all(householder_gaps(ours, theirs, regressand) <= (BETA_SE, RESIDUALS, COV_SE))
    for labels in HYPOTHESES.values():
        assert wald_test(ours, labels) == pytest.approx(wald_test(theirs, labels), rel=0, abs=P_VALUE)


@settings(max_examples=100, deadline=None)
@windows_and_lags
@example(start=date(1960, 2, 29), days=365, lag="auto", seed=0)
@example(start=date(1996, 2, 29), days=7 * 365 + 2, lag=90, seed=1)
def test_trend_and_seasonal_fits_match_householder_of_the_dense_designs(start, days, lag, seed):
    # the same draws for the trend fit and the fixed and evolving fits of
    # its residuals
    gaps = trend_and_seasonal_gaps(start, days, lattice_regressand(seed, days), lag)
    for model, bounds in TREND_AND_SEASONAL.items():
        assert np.all(gaps[model] <= bounds), (model, gaps[model])


# lags on both sides of where the most months that a window of lag + 1
# days spans grows: 2 from lag 1, 3 from 29 (a February and a day on each
# side), 4 from 60 and 5 from 90
MEAT_LAGS = (0, 1, "auto", 27, 28, 29, 58, 59, 89, 90)


@settings(max_examples=100, deadline=None)
@given(
    start=st.dates(date(1950, 1, 1), date(2010, 12, 31)),
    days=st.integers(365, 4 * 365 + 1),
    lag=st.sampled_from(MEAT_LAGS),
    seed=st.integers(0, 2**32 - 1),
)
@example(start=date(1960, 2, 29), days=365, lag=29, seed=0)  # from Feb 29
@example(start=date(1983, 1, 31), days=800, lag=28, seed=1)  # from a month's last day
@example(start=date(1970, 3, 2), days=426, lag=59, seed=2)  # to May 1
# past the lag where the slots are the twelve months, on over two years
@example(start=date(1987, 6, 30), days=976, lag=400, seed=3)
# twenty years, over several blocks of window rows: at the automatic lag,
# in the twelve-month layout, and with each block's scores reaching back
# past the block before it
@example(start=date(1970, 1, 1), days=7305, lag="auto", seed=4)
@example(start=date(1970, 1, 1), days=7305, lag=365, seed=5)
@example(start=date(1970, 1, 1), days=7305, lag=2500, seed=6)
def test_slot_meat_equals_the_meat_of_the_stacked_design(start, days, lag, seed):
    # each model's Bartlett meat, summed in slots of months and Grammed a
    # segment at a time, against the plain Gram of the window sums of its
    # design stacked as one dense matrix, within test_window_sums_equal_lag_loop's
    # bound; the joint design is the evolving one of days 2..T, beside the lag
    factors = WindowFactors(start, start + timedelta(days=days - 1))
    y = lattice_regressand(seed, days)
    designs = dense_designs(factors)
    evolving = evolving_design(month_dummies(factors.month_index[1:]), factors.t[1:])
    designs["joint"] = DesignMatrix(evolving.names + ("lag",), np.column_stack([evolving.data, y[:-1]]))
    for model, design in designs.items():
        factor, regressand = factors.least_squares(model, y)
        u = ols_fit(factor, regressand).residuals
        resolved = nw_auto_bandwidth(len(u)) if lag == "auto" else lag
        ours, stacked = factor.meat(u, resolved), stacked_meat(design.data, u, resolved)
        tol = 8.0 * math.sqrt(len(u) + resolved) * np.finfo(float).eps * np.abs(stacked).max()
        np.testing.assert_allclose(ours, stacked, rtol=0, atol=tol, err_msg=model)


class TestWindowFactors:
    """Every model is fitted on the factors of its window, each built once."""

    def test_window_calendar_is_read_only(self):
        # one t and one month index per day of the window, 1960 a leap year
        factors = WindowFactors(date(1960, 2, 28), date(1960, 3, 2))
        assert factors.t.tolist() == [1, 2, 3, 4]
        assert factors.month_index.tolist() == [1, 1, 2, 2]
        for array in (factors.t, factors.month_index):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_one_month_index_shared_by_every_factor(self):
        # each day's month less one, by date enumeration over the leap year
        # 1964 and its neighbours' edges; the seasonal factors group the days
        # by that one array, the joint one by its view from day 2, and the
        # trend by a zero-stride view, so no per-day group array is copied
        start, end = date(1963, 12, 30), date(1965, 1, 2)
        factors = WindowFactors(start, end)
        days = [start + timedelta(days=i) for i in range((end - start).days + 1)]
        assert factors.month_index.tolist() == [day.month - 1 for day in days]
        assert factors.month_index.dtype == np.intp
        assert not factors.month_index.flags.writeable
        assert not hasattr(factors, "month")
        for model in ("fixed", "evolving"):
            group = getattr(factors, model).design.group
            assert np.shares_memory(group, factors.month_index), model
            assert group.ctypes.data == factors.month_index.ctypes.data, model
        joint = factors.joint.design.group
        assert np.shares_memory(joint, factors.month_index)
        assert joint.ctypes.data == factors.month_index[1:].ctypes.data
        assert np.array_equal(joint, factors.month_index[1:])
        trend = factors.trend.design.group
        assert trend.strides == (0,) and trend.shape == (len(days),)
        assert not trend.any()
        # and its one group is one run, summed as it is
        assert factors.trend.design.starts.tolist() == [0]

    def test_fit_functions_share_one_signature(self):
        # one entry serves all four models: a factor and a regressand of
        # equal length, for ols_fit or fit_with_hac
        series = quick_series(29)
        factors = factors_of(series)
        assert tuple(inspect.signature(factors.least_squares).parameters) == ("model", "y")
        for model, nobs in (("trend", 1200), ("fixed", 1200), ("evolving", 1200), ("joint", 1199)):
            factor, regressand = factors.least_squares(model, series.variable("avg"))
            assert isinstance(factor, QRFactor)
            assert factor.nobs == len(regressand) == nobs, model

    @pytest.mark.parametrize("design", ["fixed", "evolving"])
    def test_seasonal_fits_detrend_by_ols_on_the_trend_factor(self, design):
        series = quick_series(30)
        factors = factors_of(series)
        detrended = ols_fit(factors.trend, series.variable("avg")).residuals
        expected = fit_with_hac(getattr(factors, design), detrended, 5)
        result = fitted(series, design, bandwidth=5)
        assert result.names == expected.names
        assert np.array_equal(result.beta, expected.beta)
        assert np.array_equal(result.hac_cov, expected.hac_cov)
        assert result.bandwidth == 5

    def test_factors_built_on_first_use_and_shared(self, monkeypatch):
        built = []
        original = models.group_factor

        def counting(names, group, *args, **kwargs):
            # the first and last names and the row count tell the four
            # designs apart: the joint one is the evolving one of days 2..T
            built.append((names[0], names[-1], len(group)))
            return original(names, group, *args, **kwargs)

        monkeypatch.setattr(models, "group_factor", counting)
        series = quick_series(31)
        factors = factors_of(series)
        for variable in ("avg", "dtr"):
            fit_with_hac(*factors.least_squares("trend", series.variable(variable)))
        n = len(series)
        assert built == [("const", "time", n)]
        for variable in ("avg", "dtr"):
            fit_with_hac(*factors.least_squares("evolving", series.variable(variable)))
            fit_with_hac(*factors.least_squares("fixed", series.variable(variable)))
        fit_with_hac(*factors.least_squares("joint", series.variable("avg")))
        fit_with_hac(*factors.least_squares("joint", series.variable("avg")))
        assert built == [
            ("const", "time", n), ("d01", "dt12", n), ("d01", "d12", n), ("d01", "dt12", n - 1)
        ]

    def test_joint_hac_fit_holds_no_dense_design(self):
        # the Bartlett meat builds its scores a block of days at a time from
        # the days' months and t, so with the factors built, bordering the
        # 58-year joint factor and fitting it allocates less than its dense
        # 21,184 x 24 design
        factors = WindowFactors(date(1960, 1, 1), date(2017, 12, 31))
        factors.build("joint")
        rng = np.random.default_rng(34)
        y = np.sin(factors.t / 58.0) * 10.0 + rng.standard_normal(len(factors.t))
        tracemalloc.start()
        try:
            fit = fit_with_hac(*factors.least_squares("joint", y))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.nobs == 21184
        assert peak < 21184 * 24 * 8


class TestModelSpec:
    """The regressor set each model kind is fitted with, read off its design builder."""

    def test_regressor_sets_per_kind(self):
        series = quick_series(70, T=500)
        factors = factors_of(series)
        assert factors.trend.names == ("const", "time")
        assert len(factors.fixed.names) == 12
        assert len(factors.evolving.names) == 24
        joint, _ = joint_design(factors.month_index + 1, factors.t, series.variable("avg"))
        assert len(joint.names) == 25
        assert "d07" not in joint.names
        assert "dt07" not in joint.names

    def test_every_window_design_spans_the_constant(self):
        # so ols_fit's centred R^2 is the right one for each
        factors = factors_of(quick_series(71))
        for model in ("trend", "fixed", "evolving", "joint"):
            factor = getattr(factors, model)
            ones = np.ones(factor.nobs)
            assert np.abs(ones - factor.qdot(factor.qt(ones))).max() < 1e-9, model


@pytest.mark.parametrize(
    "start, end, refused",
    [
        (date(1960, 1, 1), date(1960, 12, 2), set()),
        # two January days, one of them the joint model's lost first day
        (date(1960, 1, 30), date(1960, 12, 31), {"joint"}),
        (date(1960, 1, 31), date(1960, 12, 31), {"evolving", "joint"}),
        (date(1960, 2, 1), date(1960, 12, 31), {"fixed", "evolving", "joint"}),
        # July is the joint design's intercept and time trend
        (date(1960, 7, 30), date(1961, 7, 1), set()),
        (date(1960, 7, 31), date(1961, 7, 1), {"joint"}),
        (date(1994, 6, 9), date(1995, 4, 12), {"fixed", "evolving", "joint"}),
    ],
)
def test_window_month_check_agrees_with_the_designs(start, end, refused):
    factors = WindowFactors(start, end)
    for model in ("fixed", "evolving", "joint"):
        try:
            factors.build(model)
        except ConfigError:
            assert model in refused
        else:
            assert model not in refused
        try:
            getattr(factors, model)
            singular = False
        except SingularDesignError:
            singular = True
        assert singular == (model in refused), model


@pytest.mark.parametrize(
    "fitted, end, bandwidth, message",
    [
        # every model's nobs is checked, the joint one's a day short of T
        (("trend", "joint"), date(2000, 12, 31), 365,
         "HAC bandwidth 365 must be below the joint model's nobs 365 on 2000-01-01..2000-12-31"),
        # the months of the most demanding model, wherever it is listed
        (("trend", "fixed", "evolving"), date(2000, 12, 1), "auto",
         "Dec: the evolving model needs two days in every calendar month"),
    ],
    ids=["lag", "months"],
)
def test_window_refused_before_any_factor_is_built(monkeypatch, fitted, end, bandwidth, message):
    built = []
    monkeypatch.setattr(models, "group_factor", lambda names, *arrays: built.append(names))
    with pytest.raises(ConfigError) as refused:
        WindowFactors(date(2000, 1, 1), end).build(*fitted, bandwidth=bandwidth)
    assert str(refused.value).endswith(message)
    assert built == []


class TestJointModel:
    def test_design_layout(self):
        month = calendar_months(date(1960, 1, 1), 400)
        y = np.arange(400, dtype=float)
        design, regressand = joint_design(month, np.arange(1, 401), y)
        assert design.names == (
            ("const", "time")
            + ("d01", "d02", "d03", "d04", "d05", "d06")
            + ("d08", "d09", "d10", "d11", "d12")
            + ("dt01", "dt02", "dt03", "dt04", "dt05", "dt06")
            + ("dt08", "dt09", "dt10", "dt11", "dt12")
            + ("lag",)
        )
        assert design.data.shape == (399, 25)
        np.testing.assert_array_equal(regressand, y[1:])
        np.testing.assert_array_equal(design.data[:, design.names.index("lag")], y[:-1])
        np.testing.assert_array_equal(
            design.data[:, design.names.index("time")], np.arange(2.0, 401.0)
        )

    def test_builders_match_declared_regressors(self):
        factors = factors_of(quick_series(70, T=500))
        dummy_names = ("d01", "d02", "d03", "d04", "d05", "d06") + (
            "d07", "d08", "d09", "d10", "d11", "d12"
        )
        interaction_names = ("dt01", "dt02", "dt03", "dt04", "dt05", "dt06") + (
            "dt07", "dt08", "dt09", "dt10", "dt11", "dt12"
        )
        assert factors.trend.names == ("const", "time")
        assert factors.fixed.names == dummy_names
        assert factors.evolving.names == dummy_names + interaction_names
        assert factors.joint.names == joint_shared_design(factors.month_index + 1, factors.t).names

    def test_white_noise_rho_near_zero(self):
        rng = np.random.default_rng(60)
        series = series_from_avg(rng.standard_normal(4000))
        joint = fitted(series, "joint")
        assert abs(joint.coef("lag")) < 3 * joint.se("lag")

    def test_known_process_recovered(self):
        rng = np.random.default_rng(61)
        T = 8000
        month = calendar_months(date(1960, 1, 1), T)
        delta = {m: float(m - 6) for m in range(1, 13) if m != 7}
        y = simulate_joint(month, 10.0, 2e-4, delta, {}, 0.6, 1.5, rng)
        series = series_from_avg(y)
        joint = fitted(series, "joint")
        assert abs(joint.coef("lag") - 0.6) < 3 * joint.se("lag")
        assert abs(joint.coef("time") - 2e-4) < 3 * joint.se("time")
        assert abs(joint.coef("d03") - delta[3]) < 3 * joint.se("d03")

    def test_nesting_evolving_collapses_to_fixed(self):
        rng = np.random.default_rng(62)
        T = 2000
        series = series_from_avg(rng.standard_normal(T))
        factors = factors_of(series)
        detrended = rng.standard_normal(T)
        full = evolving_design(month_dummies(factors.month_index), factors.t)
        restricted = DesignMatrix(full.names[:12], full.data[:, :12])
        fixed = fixed_on(series, detrended)
        from_restricted = ols_fit(factorize(restricted), detrended)
        np.testing.assert_allclose(from_restricted.beta, fixed.beta, atol=1e-12)

    def test_nesting_joint_collapses_to_trend_ar(self):
        rng = np.random.default_rng(63)
        T = 2000
        month = calendar_months(date(1960, 1, 1), T)
        y = rng.standard_normal(T).cumsum() * 0.05 + 50
        design, regressand = joint_design(month, np.arange(1, T + 1), y)
        kept = [design.names.index(name) for name in ("const", "time", "lag")]
        restricted = DesignMatrix(("const", "time", "lag"), design.data[:, kept])
        direct = DesignMatrix(
            ("const", "time", "lag"),
            np.column_stack([np.ones(T - 1), np.arange(2.0, T + 1.0), y[:-1]]),
        )
        np.testing.assert_array_equal(restricted.data, direct.data)
        a = ols_fit(factorize(restricted), regressand)
        b = ols_fit(factorize(direct), regressand)
        np.testing.assert_allclose(a.beta, b.beta, atol=1e-14)

    def test_bordered_fit_matches_full_design_fit(self):
        series = quick_series(66, T=3650)
        joint = fitted(series, "joint")
        factors = factors_of(series)
        design, regressand = joint_design(factors.month_index + 1, factors.t, series.variable("avg"))
        direct = fit_with_hac(factorize(design), regressand)
        assert joint.names == direct.names
        np.testing.assert_allclose(joint.beta, direct.beta, rtol=1e-9)
        np.testing.assert_allclose(joint.hac_cov, direct.hac_cov, rtol=1e-8, atol=1e-20)
        assert joint.coef("lag") == pytest.approx(direct.coef("lag"), rel=1e-12)
        assert joint.r_squared == pytest.approx(direct.r_squared, rel=1e-12)


class TestInvariance:
    def test_time_in_years_leaves_tests_unchanged(self):
        # the full 58-year window: the joint design's condition number is
        # about 4.5e5, so the rescaled design exercises RANK_TOL
        rng = np.random.default_rng(67)
        T = 21185
        month = calendar_months(date(1960, 1, 1), T)
        # weak effects keep every p-value away from 0 and 1
        delta = {m: 0.02 * (m - 6) for m in range(1, 13) if m != 7}
        y = simulate_joint(month, 20.0, 1e-6, delta, {1: 2e-6}, 0.6, 2.0, rng)
        series = series_from_avg(y)
        by_day = fitted(series, "joint")
        # the same window with t counted in years, before any factor is built
        years = factors_of(series)
        years.t = years.t / 365.25
        by_year = fit_with_hac(*years.least_squares("joint", series.variable("avg")))
        a, b = wald_suite(by_day), wald_suite(by_year)
        assert 1e-4 < min(a.values()) and max(a.values()) < 1.0
        for before, after in (
            (a["nt"], b["nt"]),
            (a["ns"], b["ns"]),
            (a["nts"], b["nts"]),
            (by_day.coef("lag"), by_year.coef("lag")),
            (by_day.r_squared, by_year.r_squared),
        ):
            assert after == pytest.approx(before, rel=1e-9)
        assert by_year.coef("time") == pytest.approx(
            365.25 * by_day.coef("time"), rel=1e-9
        )

    def test_scale_equivariance(self):
        # y in other units, times s, through the factors every command fits
        # on: each coefficient scales by s but the joint model's lag, which
        # has no unit, and each covariance entry by s per coefficient of the
        # two that is not the lag, so no Wald test moves
        scale = 3.7
        rng = np.random.default_rng(43)
        month = calendar_months(date(1960, 1, 1), 1500)
        delta = {m: 0.03 * (m - 6) for m in range(1, 13) if m != 7}
        y = simulate_joint(month, 20.0, 1e-4, delta, {1: 5e-4}, 0.5, 2.0, rng)
        factors = factors_of(series_from_avg(y))
        for model in ("trend", "fixed", "evolving", "joint"):
            base = fit_with_hac(*factors.least_squares(model, y), 4)
            scaled = fit_with_hac(*factors.least_squares(model, scale * y), 4)
            power = np.array([name != "lag" for name in base.names], dtype=np.float64)
            np.testing.assert_allclose(scaled.beta, scale**power * base.beta, rtol=1e-10)
            np.testing.assert_allclose(
                scaled.hac_cov, scale ** np.add.outer(power, power) * base.hac_cov, rtol=1e-10
            )
        assert base.names[-1] == "lag"
        a, b = wald_suite(base), wald_suite(scaled)
        assert 1e-4 < min(a.values())
        for label in HYPOTHESES:
            assert b[label] == pytest.approx(a[label], rel=1e-9, abs=1e-15)

    def test_station_order_leaves_every_fit_unchanged(self):
        # every command fits its stations one after another through one
        # window's factors: in any order of the stations, each fit of the
        # four models is the same bits as through factors of its own, built
        # in the opposite model order
        kinds = ("trend", "fixed", "evolving", "joint")
        stations = [quick_series(seed, T=1500) for seed in (80, 81, 82)]

        def fits(series, factors, order=kinds):
            y = series.variable("avg")
            return {model: fit_with_hac(*factors.least_squares(model, y), 5) for model in order}

        alone = [fits(series, factors_of(series), kinds[::-1]) for series in stations]
        for order in itertools.permutations(range(len(stations))):
            shared = factors_of(stations[0])
            for i in order:
                for model, fit in fits(stations[i], shared).items():
                    expected = alone[i][model]
                    assert fit.names == expected.names
                    for field in ("beta", "residuals", "hac_cov"):
                        assert np.array_equal(getattr(fit, field), getattr(expected, field)), (order, model)

    def test_lag_position_leaves_results_unchanged(self):
        # least_squares borders the window's factor with the lag as the last
        # column; the paper lists the lag third, and factoring the full
        # design in that order gives the same estimates, errors and tests
        rng = np.random.default_rng(67)
        T = 21185
        month = calendar_months(date(1960, 1, 1), T)
        delta = {m: 0.02 * (m - 6) for m in range(1, 13) if m != 7}
        y = simulate_joint(month, 20.0, 1e-6, delta, {1: 2e-6}, 0.6, 2.0, rng)
        series = series_from_avg(y)
        bordered = fitted(series, "joint")
        assert bordered.names[-1] == "lag"
        factors = factors_of(series)
        shared = joint_shared_design(factors.month_index + 1, factors.t)
        paper = DesignMatrix(
            shared.names[:2] + ("lag",) + shared.names[2:],
            np.insert(shared.data, 2, y[:-1], axis=1),
        )
        direct = fit_with_hac(factorize(paper), y[1:])
        a, b = wald_suite(bordered), wald_suite(direct)
        assert 1e-4 < min(b.values()) and max(b.values()) < 1.0
        for ours, theirs in (
            (bordered.coef("lag"), direct.coef("lag")),
            (bordered.se("lag"), direct.se("lag")),
            (a["nt"], b["nt"]),
            (a["ns"], b["ns"]),
            (a["nts"], b["nts"]),
            (bordered.r_squared, direct.r_squared),
        ):
            assert ours == pytest.approx(theirs, rel=1e-9)


class TestHypothesisSuite:
    def test_degrees_of_freedom(self):
        rng = np.random.default_rng(64)
        series = series_from_avg(rng.standard_normal(3000))
        suite = wald_suite(fitted(series, "joint"))
        assert set(suite) == {"nt", "ns", "nts"}
        assert len(HYPOTHESES["nt"]) == 12
        assert len(HYPOTHESES["ns"]) == 22
        assert len(HYPOTHESES["nts"]) == 11
        assert HYPOTHESES["nt"] == ("time",) + JOINT_INTERACTIONS
        assert set(HYPOTHESES["ns"]) == set(JOINT_DUMMIES + JOINT_INTERACTIONS)

    def test_trend_and_seasonality_detected(self):
        rng = np.random.default_rng(65)
        T = 7000
        month = calendar_months(date(1960, 1, 1), T)
        delta = {m: 2.0 * (m - 6) for m in range(1, 13) if m != 7}
        y = simulate_joint(month, 10.0, 6e-4, delta, {}, 0.5, 1.0, rng)
        suite = wald_suite(fitted(series_from_avg(y), "joint"))
        assert suite["nt"] < 0.01
        assert suite["ns"] < 0.01
        assert suite["nts"] > 0.01  # no interactions in the generating process


def quick_series(seed: int, T: int = 1200) -> TemperatureSeries:
    rng = np.random.default_rng(seed)
    month = calendar_months(date(1960, 1, 1), T)
    delta = {m: 1.5 * (m - 6) for m in range(1, 13) if m != 7}
    y = simulate_joint(month, 20.0, 5e-4, delta, {}, 0.4, 1.0, rng)
    return series_from_avg(y)


class TestReports:
    def test_city_report_columns(self):
        series = quick_series(1)
        report = city_report("AAA", series, "avg", factors_of(series))
        assert report.station == "AAA"
        assert 0.0 <= report.p_nt <= 1.0
        assert 0.0 <= report.p_ns <= 1.0
        assert 0.0 <= report.p_nts <= 1.0
        assert report.hac_bandwidth >= 0

    def test_single_station_median_equals_row(self):
        batch = batch_report([("AAA", quick_series(2))], "avg")
        assert len(batch.rows) == 1
        median = batch.median_row
        assert median is not None
        assert median.delta_trend == batch.rows[0].delta_trend
        assert median.rho == batch.rows[0].rho
        assert median.r_squared == batch.rows[0].r_squared

    def test_rows_follow_input_order_and_are_order_invariant(self):
        pairs = [("AAA", quick_series(3)), ("BBB", quick_series(4)), ("CCC", quick_series(5))]
        forward = batch_report(pairs, "avg")
        backward = batch_report(pairs[::-1], "avg")
        assert [r.station for r in forward.rows] == ["AAA", "BBB", "CCC"]
        assert [r.station for r in backward.rows] == ["CCC", "BBB", "AAA"]
        by_station_f = {r.station: r for r in forward.rows}
        by_station_b = {r.station: r for r in backward.rows}
        for code in ("AAA", "BBB", "CCC"):
            assert by_station_f[code] == by_station_b[code]
        assert forward.median_row.delta_trend == backward.median_row.delta_trend

    def test_batch_rows_bitwise_equal_single_station_reports(self):
        pairs = [(code, quick_series(seed)) for code, seed in (("AAA", 20), ("BBB", 21), ("CCC", 22))]
        singles = {code: city_report(code, series, "avg", factors_of(series)) for code, series in pairs}
        for order in itertools.permutations(pairs):
            batch = batch_report(list(order), "avg")
            assert [r.station for r in batch.rows] == [code for code, _ in order]
            for row in batch.rows:
                assert row == singles[row.station]

    def test_one_window_factored_once_and_another_refused(self, monkeypatch):
        # built from the first series' window, the factors fit every row of
        # that window; a series of another window fails its own row
        built = []
        original = models.WindowFactors

        def counting(start, end):
            built.append((start, end))
            return original(start, end)

        monkeypatch.setattr(models, "WindowFactors", counting)
        short = quick_series(23, T=1100)
        late = series_from_avg(quick_series(24).variable("avg"), start=date(1960, 3, 1))
        pairs = [("AAA", FileNotFoundError("no series file")), ("BBB", quick_series(25)),
                 ("CCC", short), ("DDD", quick_series(26)), ("EEE", late)]
        batch = batch_report(pairs, "avg")
        first = pairs[1][1]
        assert built == [(first.start, first.end)]
        assert [r.station for r in batch.rows] == ["BBB", "DDD"]
        assert batch.failures == (
            ("AAA", "FileNotFoundError: no series file"),
            ("CCC", f"ValueError: series covers 1960-01-01..{short.end} but the factors "
                    f"are of 1960-01-01..{first.end}"),
            ("EEE", f"ValueError: series covers 1960-03-01..{late.end} but the factors "
                    f"are of 1960-01-01..{first.end}"),
        )
        monkeypatch.undo()
        for row in batch.rows:
            series = dict(pairs)[row.station]
            assert row == city_report(row.station, series, "avg", factors_of(series))

    def test_given_factors_serve_every_row_and_refuse_another_window(self):
        pairs = [("AAA", quick_series(32)), ("BBB", quick_series(33))]
        factors = factors_of(pairs[0][1])
        batch = batch_report(pairs, "avg", "auto", factors)
        assert batch.rows == tuple(city_report(code, s, "avg", factors) for code, s in pairs)
        other = WindowFactors(date(1960, 1, 2), pairs[0][1].end)
        with pytest.raises(ValueError, match=r"covers 1960-01-01\.\..* factors are of 1960-01-02\.\."):
            city_report("AAA", pairs[0][1], "avg", factors=other)
        refused = batch_report(pairs, "avg", "auto", other)
        assert (refused.rows, [code for code, _ in refused.failures]) == ((), ["AAA", "BBB"])

    def test_median_is_columnwise(self):
        pairs = [(c, quick_series(i)) for i, c in enumerate(["A", "B", "C"], start=10)]
        batch = batch_report(pairs, "avg")
        deltas = sorted(r.delta_trend for r in batch.rows)
        assert batch.median_row.delta_trend == deltas[1]
        rhos = sorted(r.rho for r in batch.rows)
        assert batch.median_row.rho == rhos[1]

    def test_failure_recorded_and_median_suppressed(self):
        pairs = [
            ("AAA", quick_series(6)),
            ("BAD", FileNotFoundError("no series file")),
        ]
        batch = batch_report(pairs, "avg")
        assert [r.station for r in batch.rows] == ["AAA"]
        assert batch.median_row is None
        assert batch.failures[0][0] == "BAD"
        assert "no series file" in batch.failures[0][1]

    def test_variables_fitted_on_one_draw_of_a_one_shot_iterable(self):
        # eight stations keep the median beside the failure in the middle
        start = date(1960, 1, 1)
        pairs = []
        for seed in range(50, 58):
            avg, dtr = quick_series(seed).variable("avg"), quick_series(seed + 100).variable("avg")
            pairs.append((f"S{seed}", TemperatureSeries(start, avg + dtr / 2, avg - dtr / 2)))
        pairs.insert(4, ("BAD", FileNotFoundError("no series file")))
        drawn = []

        def entries():
            for code, series in pairs:
                drawn.append(code)
                yield code, series

        both = batch_report(entries(), ("avg", "dtr"))
        assert drawn == [code for code, _ in pairs]
        assert [report.variable for report in both] == ["avg", "dtr"]
        for report in both:
            single = batch_report(pairs, report.variable)
            assert isinstance(single, models.BatchReport)
            assert len(single.rows) == 8 and single.median_row is not None
            assert single.failures == (("BAD", "FileNotFoundError: no series file"),)
            assert (report.rows, report.median_row, report.failures) == (
                single.rows, single.median_row, single.failures
            )

    def test_trend_design_names(self):
        factors = factors_of(quick_series(7))
        assert factors.trend.names == ("const", "time")
        assert len(factors.fixed.design.names) == 12
