import dataclasses
import inspect
import itertools
from datetime import date, timedelta

import numpy as np
import pytest

import tempdyn.models as models
from tempdyn import reporting
from tempdyn.models import (
    HYPOTHESES,
    JOINT_DUMMIES,
    JOINT_INTERACTIONS,
    WindowFactors,
    batch_report,
    city_report,
    delta_trend,
    evolving_design,
    month_block_factor,
    month_effects,
    seasonal_design,
    trend_design,
)
from tempdyn.regression import (
    DesignMatrix,
    ModelFit,
    QRFactor,
    SingularDesignError,
    factorize,
    fit_with_hac,
    hac_cov,
    ols_fit,
    wald_test,
)
from tempdyn.series import TemperatureSeries, build_series

from conftest import month_dummies
from dgp import calendar_months, joint_design, simulate_joint


def series_from_avg(avg: np.ndarray, start: date = date(1960, 1, 1)) -> TemperatureSeries:
    """Test-only construction with a controlled (possibly non-integer) AVG."""
    avg = np.asarray(avg, dtype=np.float64)
    n = len(avg)
    dtr = np.full(n, 10.0)
    return TemperatureSeries(
        start=start,
        max_f=avg + 5.0,
        min_f=avg - 5.0,
        avg=avg,
        dtr=dtr,
        t=np.arange(1, n + 1, dtype=np.int64),
        month=calendar_months(start, n),
    )


def fitted(series: TemperatureSeries, model: str, bandwidth="auto") -> ModelFit:
    """``model`` fitted with HAC to the series' avg, through the factors of
    its window."""
    return fit_with_hac(*WindowFactors(series).least_squares(model, series.avg), bandwidth)


def wald_suite(joint: ModelFit) -> dict:
    """The three hypothesis tests on a joint fit, by label (nt, ns, nts)."""
    return {label: wald_test(joint, restrictions) for label, restrictions in HYPOTHESES.items()}


def fixed_on(series: TemperatureSeries, detrended: np.ndarray) -> ModelFit:
    """The fixed seasonal model of the series' window, fitted to a given
    de-trended regressand."""
    return fit_with_hac(WindowFactors(series).fixed, detrended)


def evolving_on(series: TemperatureSeries, detrended: np.ndarray) -> ModelFit:
    """The evolving seasonal model of the series' window, fitted to a given
    de-trended regressand."""
    return fit_with_hac(WindowFactors(series).evolving, detrended)


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
        detrended = np.where(series.month == 1, 1.0, -1.0)
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
            month_mean = detrended[series.month == m].mean()
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
        values = evolving_design(month_dummies(series), series.t).data @ result.beta
        assert abs(values.mean()) < 1e-10

    def test_pattern_for_year_uses_july_first(self, tmp_path):
        # the t of a year's pattern is the series' t on July 1, and its
        # column is labelled by the year
        T = 731
        series = series_from_avg(np.zeros(T), start=date(1960, 1, 1))
        detrended = np.linspace(-1, 1, T)
        result = evolving_on(series, detrended)
        anchored = month_effects(result, series.t[series.iso_dates.index("1960-07-01")])
        t_july = (date(1960, 7, 1) - date(1960, 1, 1)).days + 1
        direct = month_effects(result, float(t_july))
        assert anchored == direct
        reporting.write_patterns_csv({"1960": anchored}, tmp_path / "patterns.csv")
        assert (tmp_path / "patterns.csv").read_text().split("\n")[0] == "month,effect_1960"


@pytest.mark.parametrize(
    "start, end, years",
    [
        (date(1960, 1, 1), date(2017, 12, 31), (1960, 2017)),
        (date(1960, 9, 1), date(2017, 12, 31), (1961, 2017)),
        (date(1960, 7, 1), date(2017, 6, 30), (1960, 2016)),
        (date(1960, 9, 1), date(1961, 12, 31), (1961,)),
    ],
)
def test_pattern_years_are_those_of_the_first_and_last_july_first(start, end, years):
    assert models.pattern_years(start, end) == years


def test_window_without_july_first_has_no_pattern_years():
    with pytest.raises(ValueError, match="1960-07-02..1961-06-30 holds no July 1"):
        models.pattern_years(date(1960, 7, 2), date(1961, 6, 30))


def seasonal_designs(month: np.ndarray, t: np.ndarray):
    """The fixed and evolving designs built densely, with the t each takes."""
    dummies = (month[:, None] == np.arange(1, 13)).astype(np.float64)
    return [(seasonal_design(dummies), None), (evolving_design(dummies, t), t)]


class TestMonthBlockFactor:
    """The closed-form factor against numpy's Householder QR of the same design."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_householder_factor(self, seed):
        # random windows: any start day, a third of them shorter than a year
        rng = np.random.default_rng(seed)
        start = date(1950, 1, 1) + timedelta(days=int(rng.integers(0, 20000)))
        length = int(rng.integers(340, 365 if seed % 3 == 0 else 4000))
        month = calendar_months(start, length)
        t = np.arange(1.0, length + 1.0)
        y = np.sin(t / 58.0) * 10.0 + rng.standard_normal(length)
        for design, times in seasonal_designs(month, t):
            try:
                dense = factorize(design)
            except SingularDesignError as exc:
                with pytest.raises(SingularDesignError) as raised:
                    month_block_factor(month, times)
                assert raised.value.column == exc.column
                continue
            block = month_block_factor(month, times)
            assert np.array_equal(block.design.data, design.data)
            assert block.design.names == design.names
            assert block.scale == dense.scale
            np.testing.assert_allclose(block.qdot(block.r), design.data, rtol=0, atol=1e-9)
            k = len(design.names)
            np.testing.assert_allclose(block.q.T @ block.q, np.eye(k), rtol=0, atol=1e-12)

            ours, theirs = ols_fit(block, y), ols_fit(dense, y)
            assert np.abs(ours.beta - theirs.beta).max() <= 1e-12 * np.abs(theirs.beta).max()
            assert ours.r_squared == pytest.approx(theirs.r_squared, rel=1e-12)
            cov_ours = hac_cov(block, ours.residuals)
            cov_theirs = hac_cov(dense, theirs.residuals)
            assert np.abs(cov_ours - cov_theirs).max() <= 1e-10 * np.abs(cov_theirs).max()

    @pytest.mark.parametrize(
        "start, end, fixed_column, evolving_column",
        [
            # April to December have no days
            (date(1960, 1, 1), date(1960, 3, 31), "d04", "d04"),
            # January has one day: a mean but no slope
            (date(1960, 1, 31), date(1960, 12, 31), None, "dt01"),
            # both: December is empty, and comes first in design order
            (date(1960, 1, 31), date(1960, 11, 30), "d12", "d12"),
        ],
    )
    def test_rank_deficiency_named_as_householder_names_it(
        self, start, end, fixed_column, evolving_column
    ):
        length = (end - start).days + 1
        month = calendar_months(start, length)
        t = np.arange(1.0, length + 1.0)
        for (design, times), column in zip(
            seasonal_designs(month, t), (fixed_column, evolving_column)
        ):
            if column is None:
                factorize(design)
                month_block_factor(month, times)
                continue
            for build in (lambda: factorize(design), lambda: month_block_factor(month, times)):
                with pytest.raises(SingularDesignError) as raised:
                    build()
                assert raised.value.column == column


class TestWindowFactors:
    """Every model is fitted on the factors of its window, each built once."""

    def test_fit_functions_share_one_signature(self):
        # one entry serves all four models: a factor and a regressand of
        # equal length, for ols_fit or fit_with_hac
        series = quick_series(29)
        factors = WindowFactors(series)
        assert tuple(inspect.signature(factors.least_squares).parameters) == ("model", "y")
        for model, nobs in (("trend", 1200), ("fixed", 1200), ("evolving", 1200), ("joint", 1199)):
            factor, regressand = factors.least_squares(model, series.avg)
            assert isinstance(factor, QRFactor)
            assert len(factor.design.data) == len(regressand) == nobs, model

    @pytest.mark.parametrize("design", ["fixed", "evolving"])
    def test_seasonal_fits_detrend_by_ols_on_the_trend_factor(self, design):
        series = quick_series(30)
        factors = WindowFactors(series)
        detrended = ols_fit(factors.trend, series.avg).residuals
        expected = fit_with_hac(getattr(factors, design), detrended, 5)
        result = fitted(series, design, bandwidth=5)
        assert result.names == expected.names
        assert np.array_equal(result.beta, expected.beta)
        assert np.array_equal(result.hac_cov, expected.hac_cov)
        assert result.bandwidth == 5

    def test_factors_built_on_first_use_and_shared(self, monkeypatch):
        built = []
        original_factorize, original_block = models.factorize, models.month_block_factor

        def counting(design):
            built.append(design.names[-1])
            return original_factorize(design)

        def counting_block(month, t=None):
            built.append("dt12" if t is not None else "d12")
            return original_block(month, t)

        monkeypatch.setattr(models, "factorize", counting)
        monkeypatch.setattr(models, "month_block_factor", counting_block)
        series = quick_series(31)
        factors = WindowFactors(series)
        for variable in ("avg", "dtr"):
            fit_with_hac(*factors.least_squares("trend", series.variable(variable)))
        assert built == ["time"]
        for variable in ("avg", "dtr"):
            fit_with_hac(*factors.least_squares("evolving", series.variable(variable)))
            fit_with_hac(*factors.least_squares("fixed", series.variable(variable)))
        fit_with_hac(*factors.least_squares("joint", series.avg))
        fit_with_hac(*factors.least_squares("joint", series.avg))
        assert built == ["time", "dt12", "d12", "dt12"]


class TestModelSpec:
    """The regressor set each model kind is fitted with, read off its design builder."""

    def test_regressor_sets_per_kind(self):
        series = quick_series(70, T=500)
        dummies = month_dummies(series)
        assert trend_design(series).names == ("const", "time")
        assert len(seasonal_design(dummies).names) == 12
        assert len(evolving_design(dummies, series.t).names) == 24
        joint, _ = joint_design(series.month, series.t, series.avg)
        assert len(joint.names) == 25
        assert "d07" not in joint.names
        assert "dt07" not in joint.names

    def test_every_window_design_spans_the_constant(self):
        # so ols_fit's centred R^2 is the right one for each
        factors = WindowFactors(quick_series(71))
        for model in ("trend", "fixed", "evolving", "joint"):
            factor = getattr(factors, model)
            ones = np.ones(len(factor.design.data))
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
    rng = np.random.default_rng(start.toordinal())
    series = series_from_avg(rng.standard_normal((end - start).days + 1), start=start)
    factors = WindowFactors(series)
    for model in ("fixed", "evolving", "joint"):
        try:
            models.check_window_months(start, end, model)
        except ValueError:
            assert model in refused
        else:
            assert model not in refused
        try:
            getattr(factors, model)
            singular = False
        except SingularDesignError:
            singular = True
        assert singular == (model in refused), model


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
        series = quick_series(70, T=500)
        dummies = month_dummies(series)
        dummy_names = ("d01", "d02", "d03", "d04", "d05", "d06") + (
            "d07", "d08", "d09", "d10", "d11", "d12"
        )
        interaction_names = ("dt01", "dt02", "dt03", "dt04", "dt05", "dt06") + (
            "dt07", "dt08", "dt09", "dt10", "dt11", "dt12"
        )
        assert trend_design(series).names == ("const", "time")
        assert seasonal_design(dummies).names == dummy_names
        assert evolving_design(dummies, series.t).names == dummy_names + interaction_names

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
        dummies = month_dummies(series)
        detrended = rng.standard_normal(T)
        full = evolving_design(dummies, series.t)
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
        design, regressand = joint_design(series.month, series.t, series.avg)
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
        days = series_from_avg(y)
        years = dataclasses.replace(days, t=days.t / 365.25)
        by_day = fitted(days, "joint")
        by_year = fitted(years, "joint")
        a = {label: test.p_value for label, test in wald_suite(by_day).items()}
        b = {label: test.p_value for label, test in wald_suite(by_year).items()}
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
        shared = models.joint_shared_design(series.month, series.t)
        paper = DesignMatrix(
            shared.names[:2] + ("lag",) + shared.names[2:],
            np.insert(shared.data, 2, y[:-1], axis=1),
        )
        direct = fit_with_hac(factorize(paper), y[1:])
        a = {label: test.p_value for label, test in wald_suite(bordered).items()}
        b = {label: test.p_value for label, test in wald_suite(direct).items()}
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
        assert suite["nt"].df == 12
        assert suite["ns"].df == 22
        assert suite["nts"].df == 11
        assert suite["nt"].restriction_labels == ("time",) + JOINT_INTERACTIONS
        assert set(suite["ns"].restriction_labels) == set(
            JOINT_DUMMIES + JOINT_INTERACTIONS
        )

    def test_trend_and_seasonality_detected(self):
        rng = np.random.default_rng(65)
        T = 7000
        month = calendar_months(date(1960, 1, 1), T)
        delta = {m: 2.0 * (m - 6) for m in range(1, 13) if m != 7}
        y = simulate_joint(month, 10.0, 6e-4, delta, {}, 0.5, 1.0, rng)
        suite = wald_suite(fitted(series_from_avg(y), "joint"))
        assert suite["nt"].p_value < 0.01
        assert suite["ns"].p_value < 0.01
        assert suite["nts"].p_value > 0.01  # no interactions in the generating process


def quick_series(seed: int, T: int = 1200) -> TemperatureSeries:
    rng = np.random.default_rng(seed)
    month = calendar_months(date(1960, 1, 1), T)
    delta = {m: 1.5 * (m - 6) for m in range(1, 13) if m != 7}
    y = simulate_joint(month, 20.0, 5e-4, delta, {}, 0.4, 1.0, rng)
    return series_from_avg(y)


class TestReports:
    def test_city_report_columns(self):
        report = city_report("AAA", quick_series(1), "avg")
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
        singles = {code: city_report(code, series, "avg") for code, series in pairs}
        for order in itertools.permutations(pairs):
            batch = batch_report(list(order), "avg")
            assert [r.station for r in batch.rows] == [code for code, _ in order]
            for row in batch.rows:
                assert row == singles[row.station]

    def test_each_window_factored_once(self, monkeypatch):
        windows = []
        original = models.WindowFactors

        def counting(series):
            windows.append((series.start, len(series)))
            return original(series)

        monkeypatch.setattr(models, "WindowFactors", counting)
        short = quick_series(23, T=1100)
        late = series_from_avg(quick_series(24).avg, start=date(1960, 3, 1))
        pairs = [("AAA", quick_series(25)), ("BBB", short), ("CCC", quick_series(26)),
                 ("DDD", late), ("EEE", quick_series(27, T=1100))]
        batch = batch_report(pairs, "avg")
        assert windows == [(date(1960, 1, 1), 1200), (date(1960, 1, 1), 1100),
                           (date(1960, 3, 1), 1200)]
        monkeypatch.undo()
        for (code, series), row in zip(pairs, batch.rows):
            assert row == city_report(code, series, "avg")

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

    def test_trend_design_names(self):
        series = quick_series(7)
        assert trend_design(series).names == ("const", "time")
        assert seasonal_design(month_dummies(series)).data.shape[1] == 12
