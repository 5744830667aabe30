import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaincc

from tempdyn.regression import (
    BandwidthError,
    InsufficientDataError,
    ModelFit,
    SingularDesignError,
    WaldDegeneracyError,
    chi2_sf,
    fit_with_hac,
    hac_cov,
    nw_auto_bandwidth,
    ols_fit,
    resolve_bandwidth,
    wald_test,
)

from conftest import DesignMatrix, factorize, stacked_meat

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def normal_equations_beta(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Textbook (X'X)^-1 X'y, deliberately via the normal equations."""
    return np.linalg.inv(X.T @ X) @ (X.T @ y)


def hac_triple_loop(X: np.ndarray, u: np.ndarray, lag: int) -> np.ndarray:
    """Bartlett sandwich computed with an explicit double sum over t, s."""
    n, k = X.shape
    meat = np.zeros((k, k))
    for t in range(n):
        for s in range(n):
            j = t - s
            if abs(j) > lag:
                continue
            weight = 1.0 - abs(j) / (lag + 1.0)
            meat += weight * u[t] * u[s] * np.outer(X[t], X[s])
    bread = np.linalg.inv(X.T @ X)
    return bread @ meat @ bread


def bartlett_lag_loop(scores: np.ndarray, lag: int) -> np.ndarray:
    """sum_{|j|<=L} (1 - |j|/(L+1)) G_j with one cross product per lag."""
    meat = scores.T @ scores
    for j in range(1, lag + 1):
        gamma = scores[j:].T @ scores[:-j]
        meat += (1.0 - j / (lag + 1.0)) * (gamma + gamma.T)
    return meat


def chi2_sf_quadrature(x: float, df: int) -> float:
    """Adaptive quadrature of the chi-square density over [x, inf)."""

    def pdf(u: float) -> float:
        return math.exp(
            (df / 2.0 - 1.0) * math.log(u)
            - u / 2.0
            - math.lgamma(df / 2.0)
            - (df / 2.0) * math.log(2.0)
        )

    value, _ = quad(pdf, x, np.inf, epsabs=1e-13, epsrel=1e-12, limit=500)
    return value


def random_design(rng: np.random.Generator, n: int, k: int) -> DesignMatrix:
    data = rng.standard_normal((n, k))
    data[:, 0] = 1.0
    return DesignMatrix(tuple(f"x{i}" for i in range(k)), data)


# ---------------------------------------------------------------------------
# ols_fit
# ---------------------------------------------------------------------------


class TestOlsFit:
    def test_exact_linear_relation(self):
        x = np.arange(10, dtype=float)
        X = DesignMatrix(("const", "x"), np.column_stack([np.ones(10), x]))
        fit = ols_fit(factorize(X), 2.0 + 3.0 * x)
        np.testing.assert_allclose(fit.beta, [2.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-10)

    def test_five_point_toy_matches_normal_equations(self):
        X = DesignMatrix(
            ("const", "x"),
            np.column_stack([np.ones(5), [1.0, 2.0, 4.0, 7.0, 11.0]]),
        )
        y = np.array([2.0, 3.0, 5.0, 9.0, 16.0])
        fit = ols_fit(factorize(X), y)
        np.testing.assert_allclose(
            fit.beta, normal_equations_beta(X.data, y), rtol=1e-12
        )

    def test_random_designs_match_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            n = int(rng.integers(12, 50))
            k = int(rng.integers(1, 6))
            X = random_design(rng, n, k)
            y = rng.standard_normal(n)
            fit = ols_fit(factorize(X), y)
            oracle = normal_equations_beta(X.data, y)
            np.testing.assert_allclose(fit.beta, oracle, rtol=1e-8)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(3)
        X = random_design(rng, 200, 4)
        y = rng.standard_normal(200)
        fit = ols_fit(factorize(X), y)
        products = X.data.T @ fit.residuals
        scale = np.linalg.norm(X.data, axis=0) * np.linalg.norm(fit.residuals)
        assert np.max(np.abs(products) / scale) < 1e-8

    def test_rank_deficiency_names_a_dependent_column(self):
        x = np.arange(1.0, 9.0)
        X = DesignMatrix(
            ("const", "x", "x_doubled"),
            np.column_stack([np.ones(8), x, 2.0 * x]),
        )
        with pytest.raises(SingularDesignError) as excinfo:
            ols_fit(factorize(X), np.ones(8))
        # the first column in the span of the columns before it
        assert excinfo.value.column == "x_doubled"

    def test_insufficient_data(self):
        X = DesignMatrix(("a", "b"), np.ones((2, 2)))
        with pytest.raises(InsufficientDataError):
            ols_fit(factorize(X), np.ones(2))

    def test_centered_r_squared_with_intercept(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(100)
        y = 5.0 + 0.0 * x + rng.standard_normal(100)
        X = DesignMatrix(("const", "x"), np.column_stack([np.ones(100), x]))
        fit = ols_fit(factorize(X), y)
        # no explanatory power -> centered R^2 near zero, not near one
        assert fit.r_squared < 0.1

    def test_centered_r_squared_with_full_dummy_set(self):
        # a complete indicator partition spans the constant, so the centered
        # convention must apply even without an explicit intercept column
        rng = np.random.default_rng(9)
        groups = rng.integers(0, 3, size=120)
        dummies = np.eye(3)[groups]
        y = 10.0 + rng.standard_normal(120)
        fit = ols_fit(factorize(DesignMatrix(("g0", "g1", "g2"), dummies)), y)
        assert fit.r_squared < 0.2

    def test_r_squared_is_centred_about_the_mean(self):
        # 1 - SSR / sum (y - ybar)^2, the only convention: every design the
        # package fits spans the constant
        rng = np.random.default_rng(10)
        X = random_design(rng, 80, 3)
        y = 3.0 + X.data @ np.array([1.0, -0.5, 0.25]) + rng.standard_normal(80)
        fit = ols_fit(factorize(X), y)
        ssr = float(fit.residuals @ fit.residuals)
        sst = float(((y - y.mean()) ** 2).sum())
        assert fit.r_squared == pytest.approx(1.0 - ssr / sst, rel=1e-12)


# ---------------------------------------------------------------------------
# hac_cov
# ---------------------------------------------------------------------------


class TestHacCov:
    def test_bandwidth_zero_equals_hc0(self):
        rng = np.random.default_rng(11)
        X = random_design(rng, 60, 3)
        y = rng.standard_normal(60)
        fit = ols_fit(factorize(X), y)
        cov = hac_cov(factorize(X), fit.residuals, bandwidth=0)
        bread = np.linalg.inv(X.data.T @ X.data)
        scores = X.data * fit.residuals[:, None]
        hc0 = bread @ (scores.T @ scores) @ bread
        np.testing.assert_allclose(cov, hc0, atol=1e-14)

    def test_six_observation_toy_vs_triple_loop(self):
        X = DesignMatrix(
            ("const", "x"),
            np.column_stack([np.ones(6), [0.5, -1.0, 2.0, 1.5, -0.5, 3.0]]),
        )
        y = np.array([1.0, 0.0, 2.5, 2.0, 0.5, 4.0])
        fit = ols_fit(factorize(X), y)
        cov = hac_cov(factorize(X), fit.residuals, bandwidth=2)
        oracle = hac_triple_loop(X.data, fit.residuals, 2)
        np.testing.assert_allclose(cov, oracle, atol=1e-10)

    def test_iid_monte_carlo_matches_classical_variance(self):
        rng = np.random.default_rng(123)
        n = 200
        X = random_design(rng, n, 2)
        sigma = 1.5
        classical = sigma**2 * np.linalg.inv(X.data.T @ X.data)
        total = np.zeros(2)
        reps = 1000
        for _ in range(reps):
            y = 1.0 + sigma * rng.standard_normal(n)
            fit = ols_fit(factorize(X), y)
            total += np.diag(hac_cov(factorize(X), fit.residuals, bandwidth=2))
        average = total / reps
        np.testing.assert_allclose(average, np.diag(classical), rtol=0.08)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(5)
        X = random_design(rng, 300, 4)
        y = rng.standard_normal(300)
        fit = ols_fit(factorize(X), y)
        cov = hac_cov(factorize(X), fit.residuals, bandwidth=5)
        assert np.array_equal(cov, cov.T)
        assert np.all(np.diag(cov) >= 0)

    def test_auto_bandwidth_rule(self):
        assert nw_auto_bandwidth(100) == 4
        assert nw_auto_bandwidth(3650) == math.floor(4 * 36.5 ** (2 / 9))
        assert resolve_bandwidth(50, "auto") == nw_auto_bandwidth(50)

    def test_bandwidth_out_of_range(self):
        rng = np.random.default_rng(2)
        X = random_design(rng, 10, 2)
        with pytest.raises(BandwidthError):
            hac_cov(factorize(X), np.zeros(10), bandwidth=10)
        with pytest.raises(BandwidthError):
            hac_cov(factorize(X), np.zeros(10), bandwidth=-1)

    def test_rank_deficient_design_rejected(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(50)
        X = DesignMatrix(("x", "x_again"), np.column_stack([x, x]))
        with pytest.raises(SingularDesignError) as excinfo:
            hac_cov(factorize(X), rng.standard_normal(50), bandwidth=2)
        assert excinfo.value.column == "x_again"


class TestBartlettMeat:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 5000),
        k=st.integers(1, 5),
        lag_rule=st.sampled_from(["0", "1", "auto", "n-1", "random"]),
        one_sign=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # a lag that puts a block's first score inside the block before it, and
    # scores of one sign, whose running sums grow along the block
    @example(n=5000, k=2, lag_rule="random", one_sign=False, seed=0)
    @example(n=5000, k=5, lag_rule="n-1", one_sign=True, seed=1)
    def test_window_sums_equal_lag_loop(self, n, k, lag_rule, one_sign, seed):
        rng = np.random.default_rng(seed)
        lags = {"0": 0, "1": 1, "auto": nw_auto_bandwidth(n), "n-1": n - 1, "random": int(rng.integers(n))}
        lag = min(lags[lag_rule], n - 1)
        x = rng.standard_normal((n, k)) * rng.uniform(0.1, 1e3, size=k)
        u = rng.standard_normal(n)
        if one_sign:
            x, u = np.abs(x), np.abs(u) + 1.0
        expected = bartlett_lag_loop(x * u[:, None], lag)
        meat = stacked_meat(x, u, lag)
        # both sides sum over n + lag rows; rounding grows like its square root
        tol = 8.0 * math.sqrt(n + lag) * np.finfo(float).eps * np.abs(expected).max()
        np.testing.assert_allclose(meat, expected, rtol=0, atol=tol)

    def test_lag_zero_is_the_score_gram(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((300, 3))
        u = rng.standard_normal(300)
        scores = x * u[:, None]
        meat = stacked_meat(x, u, 0)
        np.testing.assert_allclose(meat, scores.T @ scores, rtol=1e-13)


class TestQRFactor:
    def setup_method(self):
        rng = np.random.default_rng(12)
        self.X = random_design(rng, 400, 4)
        self.w = 0.5 * self.X.data[:, 1] + rng.standard_normal(400)
        self.y = 1.0 + 0.3 * self.w + rng.standard_normal(400)

    def test_bordered_equals_factoring_the_full_design(self):
        full = DesignMatrix(self.X.names + ("w",), np.column_stack([self.X.data, self.w]))
        bordered = factorize(self.X).bordered("w", self.w)
        assert bordered.names == full.names
        np.testing.assert_array_equal(np.column_stack([bordered.design.data, bordered.appended]), full.data)
        a = fit_with_hac(bordered, self.y, bandwidth=5)
        b = fit_with_hac(factorize(full), self.y, bandwidth=5)
        np.testing.assert_allclose(a.beta, b.beta, rtol=1e-11)
        np.testing.assert_allclose(a.residuals, b.residuals, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(a.hac_cov, b.hac_cov, rtol=1e-10, atol=1e-16)
        assert a.r_squared == pytest.approx(b.r_squared, rel=1e-12)

    def test_bordered_hac_meat_equals_the_stacked_design_bit_for_bit(self):
        # the Bartlett meat assembles the bordered rows a block at a time,
        # with the arithmetic of the stacked design on each row; 8000 rows
        # span several blocks. The residuals, y less Q Q'y, are the
        # stacked design's to rounding.
        rng = np.random.default_rng(8)
        X = random_design(rng, 8000, 24)
        w = rng.standard_normal(8000)
        y = 0.4 * w + rng.standard_normal(8000)
        bordered = factorize(X).bordered("w", w)
        fit = fit_with_hac(bordered, y, bandwidth=13)
        stacked = np.column_stack([X.data, w])
        np.testing.assert_allclose(fit.residuals, y - stacked @ fit.beta, rtol=1e-9, atol=1e-12)
        xtx_inv = bordered.r_inv @ bordered.r_inv.T
        meat = stacked_meat(stacked, fit.residuals, 13)
        cov = xtx_inv @ meat @ xtx_inv
        assert fit.hac_cov.tobytes() == ((cov + cov.T) / 2.0).tobytes()

    def test_bordered_fit_allocates_less_than_the_shared_design(self):
        # the fit of each series shares the design; neither bordering it
        # nor fitting on it copies it
        rng = np.random.default_rng(9)
        X = random_design(rng, 10000, 24)
        factor = factorize(X)
        w, y = rng.standard_normal(10000), rng.standard_normal(10000)
        tracemalloc.start()
        try:
            fit_with_hac(factor.bordered("w", w), y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.data.nbytes

    def test_bordered_fit_reuses_the_block(self):
        block = factorize(self.X)
        first = fit_with_hac(block.bordered("w", self.w), self.y, bandwidth=3)
        again = fit_with_hac(block.bordered("w", self.w), self.y, bandwidth=3)
        np.testing.assert_array_equal(first.beta, again.beta)
        np.testing.assert_array_equal(first.hac_cov, again.hac_cov)

    @pytest.mark.parametrize("kind", ["constant", "combination"])
    def test_column_in_span_names_itself(self, kind):
        if kind == "constant":
            column = np.full(400, 7.0)  # the design has an intercept
        else:
            column = 2.0 * self.X.data[:, 1] - self.X.data[:, 3]
        with pytest.raises(SingularDesignError) as excinfo:
            factorize(self.X).bordered("lag", column)
        assert excinfo.value.column == "lag"

    def test_bordering_twice_is_refused(self):
        # a second column would border R beside a border of one column,
        # which the fit could not solve with
        once = factorize(self.X).bordered("w", self.w)
        with pytest.raises(ValueError, match="already bordered by 'w'"):
            once.bordered("v", self.y)

    def test_factor_in_place_of_design(self):
        factor = factorize(self.X)
        a = ols_fit(factor, self.y)
        b = ols_fit(factorize(self.X), self.y)
        np.testing.assert_array_equal(a.beta, b.beta)
        np.testing.assert_array_equal(
            hac_cov(factor, a.residuals, 4), hac_cov(factorize(self.X), a.residuals, 4)
        )


# ---------------------------------------------------------------------------
# wald_test
# ---------------------------------------------------------------------------


def synthetic_fit(beta, cov, names=None):
    names = tuple(names or (f"b{i}" for i in range(len(beta))))
    beta = np.asarray(beta, dtype=float)
    return ModelFit(
        names=names,
        beta=beta,
        residuals=np.zeros(len(beta) + 5),
        r_squared=0.5,
        nobs=len(beta) + 5,
        hac_cov=np.asarray(cov, dtype=float),
        bandwidth=0,
    )


class TestWaldTest:
    def test_zero_coefficient_gives_zero_statistic(self):
        # a zero statistic has p-value 1 at any df; the nonzero b0 beside
        # it is not tested
        fit = synthetic_fit([1.0, 0.0], np.eye(2))
        assert wald_test(fit, ["b1"]) == 1.0

    def test_known_quadratic_form(self):
        # V = diag(4, 9), b = (2, 3) -> stat = 4/4 + 9/9 = 2 on df 2, whose
        # p-value is exp(-1); the one restriction b0 has stat 1 on df 1
        fit = synthetic_fit([2.0, 3.0], np.diag([4.0, 9.0]))
        assert wald_test(fit, ["b0", "b1"]) == pytest.approx(math.exp(-1.0), rel=1e-10)
        assert wald_test(fit, ["b0"]) == pytest.approx(math.erfc(math.sqrt(0.5)), rel=1e-12)

    def test_empty_restriction_set_rejected(self):
        fit = synthetic_fit([1.0], [[1.0]])
        with pytest.raises(ValueError, match="empty"):
            wald_test(fit, [])

    def test_unknown_name_rejected(self):
        fit = synthetic_fit([1.0], [[1.0]])
        with pytest.raises(KeyError):
            wald_test(fit, ["nope"])

    def test_missing_covariance_rejected(self):
        fit = ModelFit(("a",), np.array([1.0]), np.zeros(5), 0.0, 5)
        with pytest.raises(ValueError, match="no HAC covariance"):
            wald_test(fit, ["a"])

    def test_singular_subblock_degenerate(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])
        fit = synthetic_fit([1.0, 2.0], cov)
        with pytest.raises(WaldDegeneracyError):
            wald_test(fit, ["b0", "b1"])

    def test_null_rejection_rate_calibrated(self):
        rng = np.random.default_rng(99)
        n, reps = 500, 1000
        rejections = 0
        for _ in range(reps):
            X = random_design(rng, n, 3)
            y = 0.7 + rng.standard_normal(n)
            fit = fit_with_hac(factorize(X), y, bandwidth=3)
            rejections += wald_test(fit, ["x1", "x2"]) < 0.05
        assert 0.035 <= rejections / reps <= 0.065


# ---------------------------------------------------------------------------
# chi2_sf
# ---------------------------------------------------------------------------


class TestChi2Sf:
    def test_full_mass_at_zero(self):
        for df in (1, 2, 5, 22, 50):
            assert chi2_sf(0.0, df) == 1.0

    def test_df2_closed_form(self):
        for x in (0.5, 1.0, 2.0, 5.0, 10.0):
            assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), abs=1e-13)

    def test_matches_quadrature(self):
        assert chi2_sf(10.0, 5) == pytest.approx(chi2_sf_quadrature(10.0, 5), abs=1e-10)
        assert chi2_sf(3.0, 1) == pytest.approx(chi2_sf_quadrature(3.0, 1), abs=1e-10)

    def test_matches_regularized_incomplete_gamma(self):
        # x up to where the tail underflows; the reference is scipy's Q(df/2, x/2)
        xs = np.concatenate([[1e-300, 1e-12, 1e-6], np.geomspace(1e-3, 1500.0, 400)])
        for df in range(1, 41):
            for x in xs:
                want = gammaincc(df / 2.0, x / 2.0)
                if want >= 1e-300:
                    assert chi2_sf(float(x), df) == pytest.approx(want, rel=1e-12, abs=0.0)
            assert chi2_sf(math.inf, df) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chi2_sf(-1.0, 2)
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)
        with pytest.raises(ValueError):
            chi2_sf(1.0, 2.5)


# ---------------------------------------------------------------------------
# module invariants
# ---------------------------------------------------------------------------


class TestInvariants:
    def setup_method(self):
        rng = np.random.default_rng(77)
        self.X = random_design(rng, 250, 4)
        self.y = (
            1.0
            + 0.5 * self.X.data[:, 1]
            - 0.25 * self.X.data[:, 2]
            + rng.standard_normal(250)
        )

    def test_scale_equivariance(self):
        scale = 3.7
        base = fit_with_hac(factorize(self.X), self.y, bandwidth=4)
        scaled = fit_with_hac(factorize(self.X), scale * self.y, bandwidth=4)
        np.testing.assert_allclose(scaled.beta, scale * base.beta, rtol=1e-10)
        np.testing.assert_allclose(
            scaled.residuals, scale * base.residuals, rtol=1e-8, atol=1e-12
        )
        np.testing.assert_allclose(
            scaled.hac_cov, scale**2 * base.hac_cov, rtol=1e-10
        )
        assert scaled.r_squared == pytest.approx(base.r_squared, rel=1e-12)
        for names in (["x1"], ["x1", "x2"], ["x1", "x2", "x3"]):
            a = wald_test(base, names)
            b = wald_test(scaled, names)
            assert b == pytest.approx(a, rel=1e-9, abs=1e-15)

    def test_column_permutation(self):
        order = [2, 0, 3, 1]
        permuted = DesignMatrix(
            tuple(self.X.names[i] for i in order), self.X.data[:, order]
        )
        base = fit_with_hac(factorize(self.X), self.y, bandwidth=4)
        other = fit_with_hac(factorize(permuted), self.y, bandwidth=4)
        for name in self.X.names:
            assert other.coef(name) == pytest.approx(base.coef(name), rel=1e-9)
            assert other.se(name) == pytest.approx(base.se(name), rel=1e-9)
        assert other.r_squared == pytest.approx(base.r_squared, rel=1e-12)
        a = wald_test(base, ["x1", "x3"])
        b = wald_test(other, ["x1", "x3"])
        assert b == pytest.approx(a, rel=1e-9, abs=1e-15)

    def test_adding_column_orthogonal_to_y(self):
        # orthogonalize against span([X, y]): a column orthogonal to the
        # existing columns cannot move their coefficients
        rng = np.random.default_rng(4)
        basis = np.linalg.qr(np.column_stack([self.X.data, self.y]))[0]
        z = rng.standard_normal(len(self.y))
        z -= basis @ (basis.T @ z)
        assert abs(z @ self.y) < 1e-8
        augmented = DesignMatrix(self.X.names + ("z",), np.column_stack([self.X.data, z]))
        base = ols_fit(factorize(self.X), self.y)
        extended = ols_fit(factorize(augmented), self.y)
        for name in self.X.names:
            assert extended.coef(name) == pytest.approx(base.coef(name), abs=1e-10)
        assert abs(extended.coef("z")) < 1e-8
