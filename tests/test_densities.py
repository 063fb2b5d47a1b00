import numpy as np
import pytest
from scipy.stats import chi2, ncx2

from permacheck import (
    InputFormatError,
    NonFiniteError,
    NotPositiveDefiniteError,
    fkg_lattice_test,
    gaussian_pair_pdf,
    kernel,
    marginal_quantile_grid,
    squared_pair_density,
)
from oracles import gaussian_pairs, mc_mean_se

C = np.array([[1.0, 0.5], [0.5, 1.0]])


def _cell_probability(h, s_lo, s_hi, t_lo, t_hi, n=60):
    s = np.linspace(s_lo, s_hi, n)
    t = np.linspace(t_lo, t_hi, n)
    vals = h(s[:, None], t[None, :])
    return float(np.trapezoid(np.trapezoid(vals, t, axis=1), s))


class TestGaussianPairPdf:
    def test_standard_normal_at_origin(self):
        pdf = gaussian_pair_pdf(np.eye(2))
        assert pdf(0.0, 0.0) == pytest.approx(1.0 / (2 * np.pi))

    def test_matches_scipy(self):
        from scipy.stats import multivariate_normal
        pdf = gaussian_pair_pdf(C)
        pts = [(0.0, 0.0), (1.0, -0.5), (2.0, 2.0), (-1.5, 0.25)]
        ref = multivariate_normal(mean=[0, 0], cov=C)
        for x, y in pts:
            assert pdf(x, y) == pytest.approx(ref.pdf([x, y]), rel=1e-12)

    def test_degenerate_covariance_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            gaussian_pair_pdf([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            gaussian_pair_pdf([[0.0, 0.0], [0.0, 1.0]])

    def test_wrong_shape_rejected(self):
        with pytest.raises(InputFormatError):
            gaussian_pair_pdf(np.eye(3))


class TestSquaredPairDensity:
    def test_central_matches_histogram(self):
        h = squared_pair_density(C)
        x, y = gaussian_pairs(0.5, 2_000_000, seed=41)
        s, t = x * x, y * y
        for cell in [(0.1, 0.6, 0.1, 0.6), (0.5, 1.5, 0.2, 1.0),
                     (1.0, 3.0, 1.0, 3.0)]:
            prob = _cell_probability(h, *cell)
            inside = ((s >= cell[0]) & (s < cell[1]) &
                      (t >= cell[2]) & (t < cell[3])).astype(float)
            mean, se = mc_mean_se(inside)
            assert abs(prob - mean) <= 4 * se

    def test_shifted_matches_histogram(self):
        r = 0.7
        h = squared_pair_density(C, r)
        x, y = gaussian_pairs(0.5, 2_000_000, seed=42)
        s, t = (x + r) ** 2, (y + r) ** 2
        for cell in [(0.2, 1.0, 0.2, 1.0), (1.0, 4.0, 0.5, 2.0)]:
            prob = _cell_probability(h, *cell)
            inside = ((s >= cell[0]) & (s < cell[1]) &
                      (t >= cell[2]) & (t < cell[3])).astype(float)
            mean, se = mc_mean_se(inside)
            assert abs(prob - mean) <= 4 * se

    def test_zero_shift_reduces_to_central(self):
        h0 = squared_pair_density(C)
        hr = squared_pair_density(C, 0.0)
        pts = [(0.3, 0.4), (1.0, 2.0), (0.05, 3.0)]
        for s, t in pts:
            assert h0(s, t) == pytest.approx(hr(s, t), rel=1e-14)

    def test_integrates_to_one(self):
        h = squared_pair_density(C)
        grid = np.geomspace(1e-6, 30.0, 400)
        vals = h(grid[:, None], grid[None, :])
        total = np.trapezoid(np.trapezoid(vals, grid, axis=1), grid)
        assert total == pytest.approx(1.0, abs=2e-3)

    def test_axis_evaluation_rejected(self):
        h = squared_pair_density(C)
        with pytest.raises(InputFormatError):
            h(0.0, 1.0)
        with pytest.raises(InputFormatError):
            h(1.0, -0.5)


def _scipy_stats_grid(variance, r):
    # the grid as built from scipy.stats, the reference for bit equality
    if r == 0.0:
        qlo, qhi = chi2.ppf(0.01, df=1), chi2.ppf(0.99, df=1)
    else:
        nc = r * r / variance
        qlo, qhi = ncx2.ppf(0.01, df=1, nc=nc), ncx2.ppf(0.99, df=1, nc=nc)
    return np.geomspace(variance * qlo, variance * qhi, 40)


class TestQuantileGrids:
    def test_central_endpoints(self):
        g = marginal_quantile_grid(2.0)
        assert np.array_equal(g, _scipy_stats_grid(2.0, 0.0))
        assert g[0] == 2.0 * chi2.ppf(0.01, df=1)
        assert g[-1] == 2.0 * chi2.ppf(0.99, df=1)
        assert np.all(np.diff(g) > 0)

    def test_shifted_endpoints(self):
        v, r = 1.5, 0.8
        g = marginal_quantile_grid(v, r)
        assert np.array_equal(g, _scipy_stats_grid(v, r))
        assert g[0] == v * ncx2.ppf(0.01, df=1, nc=r * r / v)

    @pytest.mark.parametrize("r", [1e-200, -1e-180, 1e-170])
    def test_underflowing_noncentrality_takes_the_central_branch(self, r):
        # r*r/variance underflows to 0, where ncx2.ppf falls back to chi2
        assert r * r / 1.0 == 0.0
        g = marginal_quantile_grid(1.0, r)
        assert np.array_equal(g, _scipy_stats_grid(1.0, r))
        assert np.array_equal(g, marginal_quantile_grid(1.0, 0.0))

    def test_seeded_pairs_bit_identical_to_scipy_stats(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            v = float(np.exp(rng.uniform(-7.0, 7.0)))
            r = float(rng.choice([0.0, 1e-200, rng.normal(scale=3.0)]))
            g = marginal_quantile_grid(v, r)
            assert np.array_equal(g, _scipy_stats_grid(v, r)), (v, r)

    def test_quantiles_cover_mass(self):
        # empirical fraction below/above the endpoints matches lo/hi
        v, r = 1.0, 0.7
        g = marginal_quantile_grid(v, r)
        x, _ = gaussian_pairs(0.0, 1_000_000, seed=43)
        s = (x + r) ** 2
        assert np.mean(s < g[0]) == pytest.approx(0.01, abs=5e-4)
        assert np.mean(s < g[-1]) == pytest.approx(0.99, abs=5e-4)

    def test_pair_grid_uses_marginal_variances(self):
        # the FKG lattice of a pair is each coordinate's own quantile grid,
        # so a witness's coordinates lie on the two marginal grids
        v = fkg_lattice_test(kernel([[1.5, -0.6], [-0.6, 0.5]]), 0.5)
        assert v.fails
        for point in (v.witness["x"], v.witness["y"]):
            assert point[0] in _scipy_stats_grid(1.5, 0.5)
            assert point[1] in _scipy_stats_grid(0.5, 0.5)

    @pytest.mark.parametrize("r", [3e5, 1e6, 1e10])
    def test_nan_quantiles_raise(self, r):
        # chndtrix gives NaN once the noncentrality r^2/v reaches about
        # 10^10.65 (r = 3e5 gives 9e10); from 1e11 on it is not called
        with pytest.raises(NonFiniteError):
            marginal_quantile_grid(1.0, r)

    def test_large_finite_noncentrality_keeps_its_grid(self):
        g = marginal_quantile_grid(1.0, 1e5)
        assert np.all(np.isfinite(g)) and np.all(np.diff(g) > 0)

    def test_bad_arguments_rejected(self):
        for variance in (0.0, -1.0):
            with pytest.raises(InputFormatError):
                marginal_quantile_grid(variance)
