import math

import numpy as np
import pytest
from scipy.stats import chi2, ncx2

from permacheck import (
    InputFormatError,
    NonFiniteError,
    NotPSDError,
    NotPositiveDefiniteError,
    fkg_lattice_test,
    gaussian_pair_pdf,
    kernel,
    marginal_quantile_grid,
    squared_pair_density,
)
from permacheck.defaults import QUANTILE_HI, QUANTILE_LO
from oracles import gaussian_pairs, mc_mean_se, mp_squared_shift_quantile

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
        # singular is NotPositiveDefiniteError; indefinite is its subclass
        # NotPSDError, as every PSD screen raises it
        for singular in ([[1.0, 1.0], [1.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]]):
            with pytest.raises(NotPositiveDefiniteError) as exc:
                gaussian_pair_pdf(singular)
            assert type(exc.value) is NotPositiveDefiniteError
        with pytest.raises(NotPSDError):
            gaussian_pair_pdf([[1.0, 2.0], [2.0, 1.0]])

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

    @pytest.mark.parametrize("j", [-300, -200, -80, 80, 200, 300])
    def test_oracles_scale_exactly(self, j):
        # 4^j C with shift 2^j r is the same pair in other units; computed
        # on the unscaled covariance, the determinant overflowed (NaN) or
        # underflowed from |j| of about 256 on
        rng = np.random.default_rng(45)
        for _ in range(50):
            v1, v2 = rng.uniform(0.1, 5.0, 2)
            c = rng.uniform(-0.95, 0.95) * math.sqrt(v1 * v2)
            cov, r = np.array([[v1, c], [c, v2]]), rng.uniform(0.0, 2.0)
            s, t = rng.uniform(0.01, 8.0, (2, 30))
            big = np.ldexp(cov, 2 * j)
            x, y = s - r, t - r
            pdf = gaussian_pair_pdf(big)(np.ldexp(x, j), np.ldexp(y, j))
            assert np.array_equal(pdf, np.ldexp(gaussian_pair_pdf(cov)(x, y), -2 * j))
            if abs(j) > 200:
                continue  # 4^-2j times a squared-pair density leaves the normal range
            h = squared_pair_density(cov, r)(s, t)
            scaled = squared_pair_density(big, math.ldexp(r, j))(np.ldexp(s, 2 * j),
                                                                 np.ldexp(t, 2 * j))
            assert np.array_equal(scaled, np.ldexp(h, -4 * j))

    def test_huge_pair_density_is_finite(self):
        value = squared_pair_density(1e160 * np.array([[1.0, -0.5], [-0.5, 1.0]]),
                                     5e79)(1e160, 1e160)
        assert 0.0 < value < 1e-300

    def test_axis_evaluation_rejected(self):
        h = squared_pair_density(C)
        with pytest.raises(InputFormatError):
            h(0.0, 1.0)
        with pytest.raises(InputFormatError):
            h(1.0, -0.5)


def _ulps(q: float, exact) -> float:
    return float(abs(q - exact) / np.spacing(float(exact)))


def _endpoint_ulps(variance, r):
    g = marginal_quantile_grid(variance, r)
    return [_ulps(q, mp_squared_shift_quantile(variance, r, p, q))
            for q, p in ((g[0], QUANTILE_LO), (g[-1], QUANTILE_HI))]


# marginal_quantile_grid's docstring bound
ENDPOINT_ULPS = 16


class TestQuantileGrids:
    def test_central_endpoints(self):
        g = marginal_quantile_grid(2.0)
        assert len(g) == 40 and np.all(np.diff(g) > 0)
        assert max(_endpoint_ulps(2.0, 0.0)) <= ENDPOINT_ULPS
        # P(chi2_1 <= q) = erf(sqrt(q/2)) at the endpoints of variance 1
        lo, hi = marginal_quantile_grid(1.0)[[0, -1]]
        assert math.erf(math.sqrt(lo / 2)) == pytest.approx(0.01, rel=1e-14)
        assert math.erfc(math.sqrt(hi / 2)) == pytest.approx(0.01, rel=1e-13)

    def test_shifted_endpoints(self):
        assert max(_endpoint_ulps(1.5, 0.8)) <= ENDPOINT_ULPS

    @pytest.mark.parametrize("r", [1e-200, -1e-180, 1e-170])
    def test_underflowing_noncentrality_takes_the_central_branch(self, r):
        # r*r/variance underflows to 0: the grid is the central one
        assert r * r / 1.0 == 0.0
        g = marginal_quantile_grid(1.0, r)
        assert np.array_equal(g, marginal_quantile_grid(1.0, 0.0))

    def test_seeded_pairs_within_bound_of_mpmath(self):
        # 50-digit quantiles on 420 seeded (variance, r) pairs, from r = 0
        # and |r| = 1e-200 up to the range's end mu = 2^33, with a band at
        # mu in [0.5, 5], where the lower quantile is most sensitive; scipy's
        # chi2/ncx2 quantiles, where they answer, err by more
        rng = np.random.default_rng(44)
        ours, theirs = [], []
        for i in range(420):
            v = float(np.exp(rng.uniform(-7.0, 7.0)))
            sd = math.sqrt(v)
            r = [0.0, 1e-200, float(np.exp(rng.uniform(-7.0, 3.0))) * sd,
                 float(rng.uniform(0.5, 5.0)) * sd,
                 float(np.exp(rng.uniform(0.0, 33 * math.log(2.0)))) * sd,
                 math.ldexp(sd, 33)][i % 6] * (-1.0) ** (i // 6)
            g = marginal_quantile_grid(v, r)
            nc = r * r / v
            for q, p in ((g[0], QUANTILE_LO), (g[-1], QUANTILE_HI)):
                exact = mp_squared_shift_quantile(v, r, p, q)
                ours.append(_ulps(q, exact))
                if nc < 1e10:  # chndtrix has no answer past about 10^10.65
                    ref = v * (chi2.ppf(p, df=1) if nc == 0.0 else ncx2.ppf(p, df=1, nc=nc))
                    theirs.append(_ulps(float(ref), exact))
        assert max(ours) <= ENDPOINT_ULPS
        assert max(ours) <= max(theirs)

    @pytest.mark.parametrize("v, r", [(1.0, 0.0), (0.7, 1e-200), (1.5, 0.8),
                                      (0.3, -2.5), (1.9, 3e4), (1.0, 2.0 ** 33)])
    def test_endpoints_scale_exactly(self, v, r):
        base = marginal_quantile_grid(v, r)[[0, -1]]
        for k in range(-200, 201):
            g = marginal_quantile_grid(math.ldexp(v, 2 * k), math.ldexp(r, k))
            assert np.array_equal(g[[0, -1]], np.ldexp(base, 2 * k)), k

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
            assert point[0] in marginal_quantile_grid(1.5, 0.5)
            assert point[1] in marginal_quantile_grid(0.5, 0.5)

    @pytest.mark.parametrize("r", [3e5, 1e6, 1e10])
    def test_nan_quantiles_raise(self, r):
        # |r| / sqrt(variance) = 1e6 r, past 2^33, where float64 cannot
        # place the lattice (it once made a positive pair fail at 1e14)
        with pytest.raises(NonFiniteError):
            marginal_quantile_grid(1e-12, r)

    def test_range_ends_at_two_to_the_33(self):
        g = marginal_quantile_grid(1.0, 2.0 ** 33)
        assert np.all(np.diff(g) > 0)
        for r in (math.nextafter(2.0 ** 33, math.inf), -1e200, math.inf, math.nan):
            with pytest.raises(NonFiniteError):
                marginal_quantile_grid(1.0, r)
        with pytest.raises(NonFiniteError):  # variance * t^2 overflows
            marginal_quantile_grid(1e308, 0.0)

    def test_large_finite_noncentrality_keeps_its_grid(self):
        g = marginal_quantile_grid(1.0, 1e5)
        assert np.all(np.isfinite(g)) and np.all(np.diff(g) > 0)

    def test_bad_arguments_rejected(self):
        for variance in (0.0, -1.0):
            with pytest.raises(InputFormatError):
                marginal_quantile_grid(variance)
