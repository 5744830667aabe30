"""Acceptance gates for the whole pipeline.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
live). Criteria 1-5 and 7 run offline; criterion 6 re-estimates the
published Philadelphia and fifteen-city results from the live GHCN archive
and only runs when TEMPDYN_REPLICATION=1 is set (a warm cache avoids
re-downloading).
"""

import math
import os
import random
import time
from datetime import date

import numpy as np
import pytest
from scipy.stats import kstest

from tempdyn.ghcn import parse_dly, station_observations
from tempdyn.models import JOINT_INTERACTIONS, WindowFactors, batch_report, city_report
from tempdyn.density import kde
from tempdyn.regression import chi2_sf, fit_with_hac, hac_cov, ols_fit, wald_test
from tempdyn.series import build_series

from conftest import (
    FIXTURE_TENTHS, DesignMatrix, decode_records, factorize, find_modes, fixture_line, random_valid_line,
    serialize_record,
)
from dgp import calendar_months, joint_design, simulate_joint, joint_truth
from test_regression import chi2_sf_quadrature, hac_triple_loop, normal_equations_beta


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert passed, f"{criterion} failed {suffix}"


class TestCriterion1OracleEquivalence:
    def test_solver_and_hac_match_brute_force(self):
        started = time.perf_counter()
        rng = np.random.default_rng(20231101)

        worst_beta = 0.0
        for _ in range(20):
            k = int(rng.integers(1, 7))
            n = int(rng.integers(k + 4, 51))
            data = rng.standard_normal((n, k))
            data[:, 0] = 1.0
            X = DesignMatrix(tuple(f"x{i}" for i in range(k)), data)
            y = rng.standard_normal(n)
            fit = ols_fit(factorize(X), y)
            oracle = normal_equations_beta(X.data, y)
            np.testing.assert_allclose(fit.beta, oracle, rtol=1e-8, atol=1e-10)
            scale = np.maximum(np.abs(oracle), 1.0)
            worst_beta = max(worst_beta, float(np.max(np.abs(fit.beta - oracle) / scale)))

        worst_hac = 0.0
        for _ in range(8):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(k + 4, 21))
            lag = int(rng.integers(0, 4))
            data = rng.standard_normal((n, k))
            X = DesignMatrix(tuple(f"x{i}" for i in range(k)), data)
            residuals = rng.standard_normal(n)
            cov = hac_cov(factorize(X), residuals, bandwidth=lag)
            oracle = hac_triple_loop(X.data, residuals, lag)
            np.testing.assert_allclose(cov, oracle, atol=1e-10)
            worst_hac = max(worst_hac, float(np.max(np.abs(cov - oracle))))

        elapsed = time.perf_counter() - started
        report(
            "criterion 1 (oracle equivalence)",
            elapsed < 1.0,
            f"beta dev {worst_beta:.2e}, hac dev {worst_hac:.2e}, {elapsed:.2f}s",
        )


class TestCriterion2WaldCalibration:
    def test_null_p_nts_uniform(self):
        # Null process: trend + fixed seasonal + AR(1) via the lagged level,
        # no interactions. The lag regressor whitens the innovations, so the
        # matched covariance is the bandwidth-0 (HC0) case of the HAC
        # estimator; wider kernels only add sampling noise to an already
        # serially uncorrelated score. The companion control below reruns
        # the identical design with an exogenous column in the lag slot,
        # confirming the Wald machinery itself is exactly calibrated.
        started = time.perf_counter()
        T, reps = 3650, 1000
        month = calendar_months(date(1960, 1, 1), T)
        t_index = np.arange(1, T + 1)
        delta = {m: 3.0 * (m - 6) for m in range(1, 13) if m != 7}
        rng = np.random.default_rng(7)
        p_values = np.empty(reps)
        for i in range(reps):
            y = simulate_joint(month, 10.0, 2e-4, delta, {}, 0.35, 2.0, rng)
            design, regressand = joint_design(month, t_index, y)
            fit = fit_with_hac(factorize(design), regressand, bandwidth=0)
            p_values[i] = wald_test(fit, JOINT_INTERACTIONS)

        rejection = float((p_values < 0.05).mean())
        ks_p = float(kstest(p_values, "uniform").pvalue)
        elapsed = time.perf_counter() - started
        report(
            "criterion 2 (Wald calibration)",
            0.035 <= rejection <= 0.065 and ks_p > 0.01 and elapsed < 120.0,
            f"rejection {rejection:.3f}, KS p {ks_p:.4f}, {elapsed:.1f}s",
        )

    def test_static_control_is_exactly_uniform(self):
        # same design with the lag slot replaced by an exogenous AR column:
        # removes the (small, inherent) dynamic-regression finite-sample
        # effect and isolates the estimator under test
        from scipy.signal import lfilter

        T, reps = 3650, 500
        month = calendar_months(date(1960, 1, 1), T)
        t_index = np.arange(1, T + 1)
        delta_arr = np.array([3.0 * (m - 6) if m != 7 else 0.0 for m in range(1, 13)])
        rng = np.random.default_rng(7)
        p_values = np.empty(reps)
        for i in range(reps):
            exogenous = lfilter([1.0], [1.0, -0.7], rng.standard_normal(T))
            y = (
                10.0
                + 2e-4 * t_index
                + delta_arr[month - 1]
                + 0.5 * exogenous
                + 2.0 * rng.standard_normal(T)
            )
            design, regressand = joint_design(month, t_index, y)
            data = design.data.copy()
            data[:, design.names.index("lag")] = exogenous[1:]
            fit = fit_with_hac(factorize(DesignMatrix(design.names, data)), regressand, bandwidth=0)
            p_values[i] = wald_test(fit, JOINT_INTERACTIONS)
        rejection = float((p_values < 0.05).mean())
        ks_p = float(kstest(p_values, "uniform").pvalue)
        report(
            "criterion 2 control (static design)",
            0.03 <= rejection <= 0.07 and ks_p > 0.01,
            f"rejection {rejection:.3f}, KS p {ks_p:.4f}",
        )


class TestCriterion3ParameterRecovery:
    def test_joint_coefficients_within_three_se(self):
        started = time.perf_counter()
        T, reps = 21185, 100
        month = calendar_months(date(1960, 1, 1), T)
        t_index = np.arange(1, T + 1)
        const, slope, rho, sigma = 40.0, 2e-4, 0.7, 2.0
        delta = {m: 3.0 * (m - 6) for m in range(1, 13) if m != 7}
        gamma = {1: 1e-4, 10: -1e-4}
        rng = np.random.default_rng(11)
        hits = None
        names = None
        for _ in range(reps):
            y = simulate_joint(month, const, slope, delta, gamma, rho, sigma, rng)
            design, regressand = joint_design(month, t_index, y)
            fit = fit_with_hac(factorize(design), regressand, bandwidth="auto")
            truth = joint_truth(design.names, const, slope, delta, gamma, rho)
            se = np.sqrt(np.diag(fit.hac_cov))
            within = np.abs(fit.beta - truth) <= 3.0 * se
            hits = within.astype(int) if hits is None else hits + within
            names = design.names
        coverage = hits / reps
        worst = float(coverage.min())
        worst_name = names[int(np.argmin(coverage))]
        elapsed = time.perf_counter() - started
        report(
            "criterion 3 (parameter recovery)",
            worst >= 0.95 and elapsed < 60.0,
            f"worst coverage {worst:.2f} ({worst_name}), {elapsed:.1f}s",
        )


class TestCriterion4ChiSquareTail:
    def test_closed_form_and_quadrature(self):
        for x in (0.5, 1.0, 2.0, 5.0, 10.0):
            assert abs(chi2_sf(x, 2) - math.exp(-x / 2.0)) <= 1e-12
        worst = 0.0
        for df in (1, 5, 11, 12, 22):
            for x in (0.5, 2.0, 5.0, 10.0, 20.0, 50.0):
                deviation = abs(chi2_sf(x, df) - chi2_sf_quadrature(x, df))
                worst = max(worst, deviation)
                assert deviation <= 1e-9
        report("criterion 4 (chi-square tail)", True, f"worst quadrature dev {worst:.1e}")


class TestCriterion5Parser:
    def test_thousand_fuzzed_round_trips(self):
        rng = random.Random(19600101)
        for _ in range(1000):
            line = random_valid_line(rng)
            record = decode_records(parse_dly((line + "\n").encode("ascii")))[0]
            assert serialize_record(record) == line

        record = decode_records(parse_dly((fixture_line() + "\n").encode("ascii")))[0]
        assert record.station_id == "USW00013739"
        assert (record.year, record.month, record.element) == (1960, 1, "TMAX")
        assert [slot.value for slot in record.values] == FIXTURE_TENTHS
        report("criterion 5 (parser round-trip)", True, "1000 lines byte-exact")


REPLICATION = os.environ.get("TEMPDYN_REPLICATION") == "1"

AVG_MEDIANS = {"delta_trend": 3.93, "rho": 0.74, "r_squared": 0.91}
DTR_MEDIANS = {"delta_trend": -1.65, "rho": 0.34, "r_squared": 0.19}


@pytest.mark.skipif(
    not REPLICATION,
    reason="archive replication is network-dependent; set TEMPDYN_REPLICATION=1",
)
class TestCriterion6ArchiveReplication:
    @pytest.fixture(scope="class")
    def config(self):
        from tempdyn.stations import load_config

        config = load_config()
        # fetch_station caches into a directory that exists
        os.makedirs(config.cache_dir, exist_ok=True)
        return config

    @pytest.fixture(scope="class")
    def phl_series(self, config):
        from tempdyn.ghcn import fetch_station

        station = config.station("PHL")
        payload = fetch_station(station.ghcn_id, config.endpoint, config.cache_dir)
        tmax, tmin, _ = station_observations(
            payload.records, config.window_start, config.window_end
        )
        return build_series(tmax, tmin, config.window_start, config.window_end)

    def test_phl_avg_row(self, phl_series):
        row = city_report("PHL", phl_series, "avg", WindowFactors(phl_series.start, phl_series.end))
        ok = (
            abs(row.delta_trend - 4.78) <= 0.30
            and abs(row.rho - 0.72) <= 0.03
            and abs(row.r_squared - 0.91) <= 0.02
            and row.p_nts > 0.10
        )
        report(
            "criterion 6 (PHL AVG row)",
            ok,
            f"delta {row.delta_trend:.2f}, rho {row.rho:.2f}, "
            f"R2 {row.r_squared:.2f}, p_nts {row.p_nts:.2f}",
        )

    def test_phl_dtr_row(self, phl_series):
        row = city_report("PHL", phl_series, "dtr", WindowFactors(phl_series.start, phl_series.end))
        ok = (
            abs(row.delta_trend - (-2.13)) <= 0.30
            and abs(row.rho - 0.34) <= 0.05
            and abs(row.r_squared - 0.19) <= 0.03
            and row.p_nts < 0.01
        )
        report(
            "criterion 6 (PHL DTR row)",
            ok,
            f"delta {row.delta_trend:.2f}, rho {row.rho:.2f}, "
            f"R2 {row.r_squared:.2f}, p_nts {row.p_nts:.2f}",
        )

    def test_phl_seasonal_fit_shares(self, phl_series):
        r2 = {}
        for variable, target, tol in (("avg", 0.81, 0.02), ("dtr", 0.07, 0.02)):
            y = phl_series.variable(variable)
            fixed = fit_with_hac(
                *WindowFactors(phl_series.start, phl_series.end).least_squares("fixed", y)
            )
            r2[variable] = fixed.r_squared
            assert abs(fixed.r_squared - target) <= tol
        report(
            "criterion 6 (PHL seasonal R2)",
            True,
            f"avg {r2['avg']:.2f}, dtr {r2['dtr']:.2f}",
        )

    def test_phl_densities(self, phl_series):
        avg_modes = find_modes(kde(phl_series.variable("avg")))
        dtr_modes = find_modes(kde(phl_series.variable("dtr")))
        ok = (
            len(avg_modes) == 2
            and abs(avg_modes[0][0] - 40.0) <= 3.0
            and abs(avg_modes[1][0] - 75.0) <= 3.0
            and len(dtr_modes) == 1
            and abs(dtr_modes[0][0] - 19.0) <= 2.0
        )
        report(
            "criterion 6 (PHL densities)",
            ok,
            f"avg modes {[round(m[0], 1) for m in avg_modes]}, "
            f"dtr modes {[round(m[0], 1) for m in dtr_modes]}",
        )

    @pytest.fixture(scope="class")
    def all_series(self, config):
        from tempdyn.ghcn import fetch_station

        loaded = []
        for station in config.active_stations():
            payload = fetch_station(station.ghcn_id, config.endpoint, config.cache_dir)
            tmax, tmin, _ = station_observations(
                payload.records, config.window_start, config.window_end
            )
            loaded.append(
                (
                    station.code,
                    build_series(tmax, tmin, config.window_start, config.window_end),
                )
            )
        return loaded

    @pytest.mark.parametrize(
        "variable,targets,tols",
        [
            ("avg", AVG_MEDIANS, {"delta_trend": 0.30, "rho": 0.03, "r_squared": 0.02}),
            ("dtr", DTR_MEDIANS, {"delta_trend": 0.30, "rho": 0.05, "r_squared": 0.03}),
        ],
    )
    def test_fifteen_city_medians(self, all_series, variable, targets, tols):
        batch = batch_report(all_series, variable)
        assert batch.median_row is not None, batch.failures
        median = batch.median_row
        ok = (
            abs(median.delta_trend - targets["delta_trend"]) <= tols["delta_trend"]
            and abs(median.rho - targets["rho"]) <= tols["rho"]
            and abs(median.r_squared - targets["r_squared"]) <= tols["r_squared"]
            and (median.p_nts > 0.10 if variable == "avg" else median.p_nts < 0.10)
        )
        report(
            f"criterion 6 ({variable} medians)",
            ok,
            f"delta {median.delta_trend:.2f}, rho {median.rho:.2f}, "
            f"R2 {median.r_squared:.2f}, p_nts {median.p_nts:.2f}",
        )


class TestCriterion7InvariantSuite:
    def test_every_declared_invariant_has_a_test(self):
        # the invariants themselves run as part of this same suite; this
        # gate pins the declared-property -> test mapping so none can be
        # silently dropped
        import test_cli
        import test_density
        import test_ghcn
        import test_models
        import test_regression
        import test_series

        checklist = [
            (test_ghcn.TestRoundTrip, "test_parse_serialize_identity"),
            (test_ghcn.TestInterpolateMissing, "test_idempotent"),
            (test_ghcn.TestToFahrenheit, "test_monotone_nondecreasing"),
            (test_ghcn.TestStationObservations, "test_complete_window"),
            (test_series.TestBuildSeries, "test_ingest_order_invariance"),
            (test_series.TestBuildSeries, "test_reconstruction_identity"),
            (test_series.TestMonthDummies, "test_partition_property"),
            (test_regression.TestInvariants, "test_scale_equivariance"),
            (test_regression.TestInvariants, "test_column_permutation"),
            (test_regression.TestHacCov, "test_exact_symmetry"),
            (test_regression.TestInvariants, "test_adding_column_orthogonal_to_y"),
            (test_models.TestJointModel, "test_nesting_evolving_collapses_to_fixed"),
            (test_models.TestJointModel, "test_nesting_joint_collapses_to_trend_ar"),
            (test_models.TestFixedSeasonal, "test_coefficients_equal_month_means"),
            (test_models.TestEvolvingSeasonal, "test_pattern_time_average_is_zero"),
            (test_models.TestFitTrend, "test_delta_antisymmetric_under_time_reversal"),
            (test_models.TestReports, "test_rows_follow_input_order_and_are_order_invariant"),
            (test_models.TestReports, "test_batch_rows_bitwise_equal_single_station_reports"),
            (test_models.TestInvariance, "test_time_in_years_leaves_tests_unchanged"),
            (test_models.TestInvariance, "test_scale_equivariance"),
            (test_regression.TestBartlettMeat, "test_window_sums_equal_lag_loop"),
            (test_density.TestInvariants, "test_location_equivariance"),
            (test_density.TestKde, "test_integral_near_one"),
            (test_cli.TestIngest, "test_reruns_are_byte_identical"),
            (test_cli.TestTables, "test_reruns_byte_identical"),
            (test_cli.TestTables, "test_csv_and_text_agree_at_declared_precision"),
            (test_cli.TestIngest, "test_fetch_failure_sets_exit_code"),
        ]
        missing = [
            f"{holder.__name__}.{name}"
            for holder, name in checklist
            if not callable(getattr(holder, name, None))
        ]
        report(
            "criterion 7 (invariant suite)",
            not missing,
            f"{len(checklist)} properties mapped" if not missing else f"missing: {missing}",
        )
