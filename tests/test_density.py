import math
import os
import subprocess
import sys
import tracemalloc
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tempdyn
import tempdyn.density as density
from tempdyn.density import (
    DegenerateBandwidthError,
    kde,
    silverman_bandwidth,
)
from tempdyn.series import build_series

from conftest import find_modes, integral


def whole_matrix_kde(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The grid and densities of ``kde`` from one kernel matrix of the whole
    grid by the distinct values: the reference that its block sum must
    equal bit for bit."""
    h = silverman_bandwidth(data)
    grid = np.linspace(data.min() - 3.0 * h, data.max() + 3.0 * h, 512)
    points, counts = np.unique(data, return_counts=True)
    z = (grid[:, None] - points) / h
    norm = 1.0 / (data.size * h * math.sqrt(2.0 * math.pi))
    return grid, norm * (np.exp(-0.5 * z * z) @ counts)


def fifty_eight_years(seed: int):
    """A seasonal 1960-2017 series of integer daily readings: about 190
    distinct AVG values on the half-degree lattice, 30 DTR values."""
    start, end = date(1960, 1, 1), date(2017, 12, 31)
    days = (end - start).days + 1
    rng = np.random.default_rng(seed)
    season = 20.0 * np.sin(2.0 * np.pi * (np.arange(days) - 110) / 365.25)
    tmin = np.round(42.0 + season + rng.normal(0.0, 8.0, days)).astype(np.int64)
    return build_series(tmin + rng.integers(5, 35, days), tmin, start, end)


def assert_bits_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64))


class TestKde:
    def test_single_kernel_case(self):
        # a point mass with one day either side: its bandwidth comes from the
        # sd, as the IQR is 0
        data = np.concatenate([np.full(48, 42.0), [41.0, 43.0]])
        estimate = kde(data)
        assert integral(estimate) == pytest.approx(1.0, abs=0.01)
        peak = estimate.grid[np.argmax(estimate.values)]
        assert peak == pytest.approx(42.0, abs=estimate.grid[1] - estimate.grid[0])

    def test_auto_bandwidth_is_silverman(self):
        rng = np.random.default_rng(12)
        data = rng.normal(50.0, 8.0, size=4000)
        estimate = kde(data)
        assert estimate.bandwidth == pytest.approx(silverman_bandwidth(data))
        sd = data.std(ddof=1)
        iqr = np.subtract(*np.percentile(data, [75, 25]))
        expected = 0.9 * min(sd, iqr / 1.34) * len(data) ** -0.2
        assert estimate.bandwidth == pytest.approx(expected)

    def test_integral_near_one(self):
        rng = np.random.default_rng(13)
        data = rng.normal(0.0, 5.0, size=2000)
        estimate = kde(data)
        assert 0.99 <= integral(estimate) <= 1.01

    def test_values_nonnegative_grid_increasing(self):
        rng = np.random.default_rng(14)
        estimate = kde(rng.normal(size=500))
        assert np.all(estimate.values >= 0.0)
        assert np.all(np.diff(estimate.grid) > 0)

    @pytest.mark.parametrize("step", [0.5, 1.0])
    def test_lattice_sum_equals_sum_over_every_point(self, step):
        # AVG lies on a half-degree lattice and DTR on the integers; the
        # estimate sums each distinct value's kernel times its count, which
        # reorders the float sums, so it may differ from the direct sum by
        # rounding alone
        rng = np.random.default_rng(19)
        data = np.round(rng.normal(55.0, 15.0, size=4000) / step) * step
        estimate = kde(data)
        z = (estimate.grid[:, None] - data[None, :]) / estimate.bandwidth
        direct = np.exp(-0.5 * z * z).sum(axis=1) / (
            data.size * estimate.bandwidth * np.sqrt(2.0 * np.pi)
        )
        assert np.abs(estimate.values - direct).max() <= 1e-12 * direct.max()

    @pytest.mark.parametrize("variable", ["avg", "dtr"])
    def test_block_sum_equals_the_whole_matrix_on_58_years(self, variable):
        data = fifty_eight_years(21).variable(variable)
        estimate = kde(data)
        grid, values = whole_matrix_kde(data)
        assert_bits_equal(estimate.grid, grid)
        assert_bits_equal(estimate.values, values)

    @settings(max_examples=60, deadline=None)
    @given(
        steps=arrays(np.int64, st.integers(2, 3000), elements=st.integers(-150, 250)),
        step=st.sampled_from([0.5, 1.0]),
    )
    def test_block_sum_equals_the_whole_matrix_on_lattice_data(self, steps, step):
        data = steps * step
        assume(silverman_bandwidth(data) > 0)
        estimate = kde(data)
        grid, values = whole_matrix_kde(data)
        assert_bits_equal(estimate.grid, grid)
        assert_bits_equal(estimate.values, values)

    def test_58_year_estimate_holds_no_kernel_matrix_of_the_whole_grid(self):
        # the kernels are summed a block of grid points at a time: this
        # call traced 0.34 MB, and 2.4 MB when it made the matrix of all
        # 512 points by the series' distinct values, with two temporaries
        data = fifty_eight_years(22).variable("avg")
        assert np.unique(data).size > 150
        kde(data)
        tracemalloc.start()
        try:
            kde(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000

    def test_grid_span_and_size(self):
        data = np.array([10.0, 20.0])
        estimate = kde(data)
        h = estimate.bandwidth
        assert h == silverman_bandwidth(data)
        assert len(estimate.grid) == 512
        assert estimate.grid[0] == pytest.approx(10.0 - 3.0 * h)
        assert estimate.grid[-1] == pytest.approx(20.0 + 3.0 * h)

    def test_zero_iqr_auto_bandwidth_falls_back_to_sd(self):
        # 80 values of 20.0 among 10.0..29.0: both quartiles are 20.0, yet
        # the data has spread (sd 2.60), so the rule takes sd alone
        data = np.concatenate([np.full(80, 20.0), np.arange(10.0, 30.0)])
        q75, q25 = np.percentile(data, [75, 25])
        assert q75 == q25
        sd = data.std(ddof=1)
        assert sd == pytest.approx(2.60, abs=0.005)
        estimate = kde(data)
        assert estimate.bandwidth == silverman_bandwidth(data) == 0.9 * sd * data.size ** -0.2
        assert 0.99 <= integral(estimate) <= 1.01

    def test_zero_variance_auto_bandwidth_rejected(self):
        with pytest.raises(DegenerateBandwidthError, match="no spread"):
            kde(np.full(10, 5.0))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            kde(np.array([]))


class TestFindModes:
    def test_two_component_mixture(self):
        # equal point masses at 40 and 75, nine bandwidths apart, give two
        # equal bumps centred on the components
        data = np.concatenate([np.full(500, 40.0), np.full(500, 75.0)])
        estimate = kde(data)
        modes = find_modes(estimate)
        step = estimate.grid[1] - estimate.grid[0]
        assert len(modes) == 2
        assert modes[0][0] == pytest.approx(40.0, abs=step / 2 + 1e-9)
        assert modes[1][0] == pytest.approx(75.0, abs=step / 2 + 1e-9)

    def test_monotone_segment_has_at_most_one_mode(self):
        from tempdyn.density import DensityEstimate

        grid = np.linspace(0.0, 1.0, 100)
        rising = DensityEstimate(grid, np.linspace(0.1, 2.0, 100), 1.0)
        assert len(find_modes(rising)) <= 1

    def test_prominence_threshold_suppresses_ripples(self):
        from tempdyn.density import DensityEstimate

        grid = np.linspace(0.0, 10.0, 101)
        values = np.exp(-0.5 * (grid - 5.0) ** 2)
        values[20] += 0.02  # small ripple, under 10% of the peak
        estimate = DensityEstimate(grid, values, 1.0)
        modes = find_modes(estimate)
        assert len(modes) == 1
        assert modes[0][0] == pytest.approx(5.0, abs=0.1)

    def test_unimodal_gaussian_sample(self):
        rng = np.random.default_rng(15)
        data = rng.normal(19.0, 3.0, size=5000)
        modes = find_modes(kde(data))
        assert len(modes) == 1
        assert modes[0][0] == pytest.approx(19.0, abs=1.0)


class TestInvariants:
    def test_location_equivariance(self):
        rng = np.random.default_rng(16)
        data = rng.normal(0.0, 4.0, size=1500)
        shift = 25.0
        base = kde(data)
        shifted = kde(data + shift)
        assert shifted.bandwidth == pytest.approx(base.bandwidth, rel=1e-12)
        np.testing.assert_allclose(shifted.grid, base.grid + shift, atol=1e-9)
        np.testing.assert_allclose(shifted.values, base.values, atol=1e-12)


class TestQuartiles:
    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=80
        ),
        scale=st.sampled_from([1e-9, 1e-3, 1.0, 0.5, 7.0, 1e6]),
        lattice=st.booleans(),
    )
    def test_equal_to_numpy_percentile(self, values, scale, lattice):
        data = np.array(values) * scale
        if lattice:
            data = np.round(data)
        ours = np.array(density._percentiles(data, (0.75, 0.25)))
        theirs = np.percentile(data, [75, 25])
        if np.any(data == 0.0) and len(set(np.signbit(data[data == 0.0]))) == 2:
            # with both 0.0 and -0.0 present, sort and numpy's partition may
            # pick different zeros; they differ only in the sign of a zero
            assert np.array_equal(ours, theirs)
        else:
            assert np.array_equal(ours.view(np.int64), theirs.view(np.int64))

    def test_kde_does_not_import_numpy_ma(self):
        # np.percentile's first call imports numpy.ma, about 20 ms a process
        src = Path(tempdyn.__file__).resolve().parents[1]
        probe = (
            "import sys, numpy as np; from tempdyn.density import kde; "
            "kde(np.arange(100.0) % 7); print('numpy.ma' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == "False"
