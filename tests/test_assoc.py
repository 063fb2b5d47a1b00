import numpy as np
import pytest

from permacheck import (
    InputFormatError,
    KernelMatrix,
    NotPSDError,
    PermanentalSpec,
    SingularMatrixError,
    abs_product_moment,
    association_mc_test,
    default_family,
    fkg_lattice_test,
    kernel,
    pair_grid,
    random_scalings,
    resolvent,
    resolvent_monotonicity_scan,
    sample_gaussian,
    shifted_strong_order_test,
    squared_pair_density,
)
from oracles import mc_mean_se, naive_monotonicity_scan
from permacheck.defaults import MONOTONE_TOL

G2 = kernel([[1.0, 0.5], [0.5, 1.0]])
GREEN2 = kernel([[4 / 3, 2 / 3], [2 / 3, 4 / 3]])


class TestFamily:
    def test_members_are_coordinatewise_nondecreasing(self):
        rng = np.random.default_rng(51)
        x = rng.exponential(size=(500, 3))
        fam = default_family(x)
        bump = x + np.array([0.5, 0.0, 0.2])
        for name, f in fam.members:
            assert np.all(f(bump) >= f(x) - 1e-12), name

    def test_member_census(self):
        fam = default_family(np.abs(np.random.default_rng(52).normal(size=(100, 2))))
        names = [name for name, _ in fam.members]
        assert names == ["orthant_q25", "orthant_q50", "orthant_q75",
                         "proj_0", "proj_1", "max", "min", "soft_orthant"]

    def test_tiny_reference_rejected(self):
        with pytest.raises(InputFormatError):
            default_family(np.ones((5, 2)))


class TestAssociationMC:
    def test_independent_coordinates_hold(self):
        spec = PermanentalSpec(kernel(np.diag([1.0, 2.0])), 2.0)
        rep = association_mc_test(spec, n_draws=50_000, seed=53)
        assert rep.verdict.holds
        # the only independent family pair is the two coordinate projections
        row = next(r for r in rep.pairs
                   if r["f"] == "proj_0" and r["h"] == "proj_1")
        assert abs(row["z"]) < 4

    def test_positively_correlated_pair_holds(self):
        rep = association_mc_test(PermanentalSpec(G2, 2.0),
                                  n_draws=50_000, seed=54)
        assert rep.verdict.holds
        # squared-Gaussian cross covariance 2 G(0,1)^2 is picked up
        row = next(r for r in rep.pairs
                   if r["f"] == "proj_0" and r["h"] == "proj_1")
        assert abs(row["cov"] - 0.5) <= 4 * row["se"]
        assert row["z"] > 3

    def test_seed_echoed_and_deterministic(self):
        spec = PermanentalSpec(G2, 1.0)
        a = association_mc_test(spec, n_draws=20_000, seed=55)
        b = association_mc_test(spec, n_draws=20_000, seed=55)
        assert a.seed == 55
        assert a.pairs == b.pairs


class TestFkgLattice:
    def test_product_density_holds_with_equality(self):
        c = np.diag([1.0, 2.0])
        v = fkg_lattice_test(squared_pair_density(c), pair_grid(c, size=25))
        assert v.holds

    def test_squared_pair_holds_both_correlation_signs(self):
        for rho in (0.5, -0.5):
            c = np.array([[1.0, rho], [rho, 1.0]])
            v = fkg_lattice_test(squared_pair_density(c), pair_grid(c, size=30))
            assert v.holds

    def test_two_bump_mixture_fails(self):
        # mass on (1,3) and (3,1) only: anti-diagonal dependence
        def h(s, t):
            s, t = np.asarray(s, float), np.asarray(t, float)
            b1 = np.exp(-0.5 * ((s - 1) ** 2 + (t - 3) ** 2) / 0.09)
            b2 = np.exp(-0.5 * ((s - 3) ** 2 + (t - 1) ** 2) / 0.09)
            return b1 + b2

        g = np.array([1.0, 3.0])
        v = fkg_lattice_test(h, (g, g))
        assert v.fails
        assert v.witness["lhs"] > v.witness["rhs"]

    def test_bad_grid_rejected(self):
        h = squared_pair_density(np.eye(2))
        with pytest.raises(InputFormatError):
            fkg_lattice_test(h, (np.array([0.0, 1.0]), np.array([1.0, 2.0])))
        with pytest.raises(InputFormatError):
            fkg_lattice_test(h, (np.array([2.0, 1.0]), np.array([1.0, 2.0])))


class TestMonotonicityScan:
    def test_diagonal_kernel_holds(self):
        v = resolvent_monotonicity_scan(kernel(np.diag([1.0, 3.0])))
        assert v.holds

    def test_positive_pair_holds(self):
        assert resolvent_monotonicity_scan(G2).holds

    def test_tridiagonal_holds_under_many_scalings(self):
        # not infinitely divisible, yet the scanned moment stays monotone
        tri = kernel([[1.0, 0.6, 0.0], [0.6, 1.0, 0.6], [0.0, 0.6, 1.0]])
        scalings = random_scalings(3, 50, seed=56)
        v = resolvent_monotonicity_scan(tri, D_set=[np.ones(3)] + scalings)
        assert v.holds

    def test_mixed_sign_kernel_with_lopsided_scaling_fails(self):
        g = np.array([[1.0, -0.31, 0.58],
                      [-0.31, 1.0, 0.58],
                      [0.58, 0.58, 1.0]])
        assert np.linalg.eigvalsh(g).min() > 0
        v = resolvent_monotonicity_scan(
            kernel(g), alphas=np.linspace(0.0, 5.0, 26),
            D_set=[np.array([0.13, 0.09, 4.96])])
        assert v.fails
        assert v.witness["pair"] == [0, 1]
        assert v.witness["increase"] > 1e-6

    def test_derivative_closed_form(self):
        # d/da E|eta_a(i) eta_a(j)| has an explicit form through R^2
        rng = np.random.default_rng(57)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            a = rng.normal(size=(n, n))
            g = kernel(a @ a.T + 0.5 * n * np.eye(n))
            alpha = float(rng.uniform(0.0, 4.0))
            i, j = sorted(rng.choice(n, size=2, replace=False))

            def f(al):
                r = resolvent(g, al).entries
                sd = np.sqrt(np.diag(r))
                return abs_product_moment(sd[i], sd[j],
                                          r[i, j] / (sd[i] * sd[j]))

            h = 1e-6
            num = (f(alpha + h) - f(alpha - h)) / (2 * h)
            r = resolvent(g, alpha).entries
            r2 = r @ r
            det2 = r[i, i] * r[j, j] - r[i, j] ** 2
            rho = r[i, j] / np.sqrt(r[i, i] * r[j, j])
            ana = -(2 / np.pi) * np.arcsin(rho) * r2[i, j] \
                - (1 / np.pi) * np.sqrt(det2) * (r2[i, i] / r[i, i]
                                                 + r2[j, j] / r[j, j])
            assert num == pytest.approx(ana, rel=1e-4, abs=1e-8)

    def test_validation(self):
        with pytest.raises(InputFormatError):
            resolvent_monotonicity_scan(kernel([[1.0, 0.5], [0.2, 1.0]]))
        with pytest.raises(InputFormatError):
            resolvent_monotonicity_scan(G2, alphas=[1.0, 0.5])
        with pytest.raises(InputFormatError):
            resolvent_monotonicity_scan(G2, D_set=[np.array([1.0, -1.0])])


def _loop_scan(g, alphas, D_set):
    return naive_monotonicity_scan(
        g, alphas, D_set,
        lambda a, alpha: resolvent(KernelMatrix(a, symmetric=True), alpha).entries,
        abs_product_moment, MONOTONE_TOL)


def _mixed_sign_kernel(rng, n: int) -> np.ndarray:
    """Unit-diagonal PD kernel with negative entries; at n = 3 shaped like
    [[1,-.31,.58],[-.31,1,.58],[.58,.58,1]], whose scan finds rises."""
    while True:
        if n == 3:
            g = np.eye(3)
            g[0, 1] = g[1, 0] = -rng.uniform(0.1, 0.5)
            g[0, 2] = g[2, 0] = rng.uniform(0.4, 0.7)
            g[1, 2] = g[2, 1] = rng.uniform(0.4, 0.7)
        else:
            c = rng.uniform(0.3, 0.7, size=(n, n)) * rng.choice(
                [-1.0, 1.0], size=(n, n), p=[0.4, 0.6])
            g = np.triu(c, 1)
            g = g + g.T + np.eye(n)
        if np.linalg.eigvalsh(g)[0] > 0.02:
            return g


class TestMonotonicityScanOracle:
    ALPHAS = np.linspace(0.0, 1.5, 7)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(62)
        fails = 0
        for case in range(200):
            n = int(rng.integers(2, 5)) if case % 2 else 3
            g = _mixed_sign_kernel(rng, n)
            d_set = random_scalings(n, 20, seed=1000 + case)
            v = resolvent_monotonicity_scan(kernel(g), alphas=self.ALPHAS, D_set=d_set)
            witness = _loop_scan(g, self.ALPHAS, d_set)
            if witness is None:
                assert v.holds, case
                continue
            fails += 1
            assert v.fails, case
            got = dict(v.witness)
            assert got.pop("increase") == pytest.approx(witness.pop("increase"),
                                                         rel=1e-12, abs=0), case
            assert got == witness, case
        assert fails >= 20

    @pytest.mark.parametrize("g, d, error, message", [
        # the scaling makes I + alpha DGD ill-conditioned at the second alpha
        ([[1.0, 0.6, 0.0], [0.6, 1.0, 0.6], [0.0, 0.6, 1.0]], [1e7, 1.0, 1.0],
         SingularMatrixError, "I + 0.25*G is singular"),
        ([[0.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]], [1.0, 1.0, 1.0],
         InputFormatError, "standard deviations must be positive"),
        # both at once: the zero variance at alpha 0 comes first in grid order
        ([[0.0, 0.0], [0.0, 1.0]], [1.0, 1e7],
         InputFormatError, "standard deviations must be positive"),
    ])
    def test_errors_match_loop_oracle(self, g, d, error, message):
        d_set = [np.array(d)]
        with pytest.raises(error) as new:
            resolvent_monotonicity_scan(kernel(g), alphas=self.ALPHAS, D_set=d_set)
        with pytest.raises(error) as old:
            _loop_scan(np.array(g), self.ALPHAS, d_set)
        assert str(new.value) == str(old.value)
        assert str(new.value).startswith(message)

    @pytest.mark.parametrize("g", [[[-1.0, 0.0], [0.0, -1.0]],
                                   [[1.0, 2.0], [2.0, 1.0]]])
    def test_non_psd_kernel_rejected(self, g):
        with pytest.raises(NotPSDError):
            resolvent_monotonicity_scan(kernel(g))


class TestRandomScalings:
    def test_deterministic_and_in_range(self):
        a = random_scalings(3, 10, seed=58)
        b = random_scalings(3, 10, seed=58)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        flat = np.concatenate(a)
        assert flat.min() >= 0.05 and flat.max() <= 20.0

    def test_bad_arguments(self):
        with pytest.raises(InputFormatError):
            random_scalings(0, 1, seed=1)
        with pytest.raises(InputFormatError):
            random_scalings(2, 0, seed=1)


class TestStrongOrder:
    def test_green_pair_holds(self):
        rep = shifted_strong_order_test(GREEN2, [(1.0, 0.5), (2.0, 1.0)])
        assert rep.verdict.holds
        assert rep.green.holds
        assert len(rep.per_pair) == 2
        assert all(v.holds for _, _, v in rep.per_pair)

    def test_negative_correlation_fails(self):
        neg = kernel([[1.0, -0.5], [-0.5, 1.0]])
        rep = shifted_strong_order_test(neg, [(1.0, 0.5)])
        assert rep.verdict.fails
        assert rep.verdict.witness["r"] == 1.0
        assert not rep.green.holds

    def test_strong_order_implies_stochastic_domination(self):
        # upper-orthant probabilities must be ordered when the test holds
        r, rp = 1.0, 0.5
        rep = shifted_strong_order_test(GREEN2, [(r, rp)])
        assert rep.verdict.holds
        hi = sample_gaussian(GREEN2, 400_000, seed=59).draws
        lo = sample_gaussian(GREEN2, 400_000, seed=60).draws
        shi = (hi + r) ** 2
        slo = (lo + rp) ** 2
        for x, y in [(0.5, 0.5), (1.5, 1.0), (3.0, 3.0)]:
            phi = ((shi[:, 0] > x) & (shi[:, 1] > y)).astype(float)
            plo = ((slo[:, 0] > x) & (slo[:, 1] > y)).astype(float)
            m_hi, se_hi = mc_mean_se(phi)
            m_lo, se_lo = mc_mean_se(plo)
            assert m_hi >= m_lo - 3 * np.hypot(se_hi, se_lo)

    def test_bad_pairs_rejected(self):
        with pytest.raises(InputFormatError):
            shifted_strong_order_test(GREEN2, [])
        with pytest.raises(InputFormatError):
            shifted_strong_order_test(GREEN2, [(0.5, 1.0)])
        with pytest.raises(InputFormatError):
            shifted_strong_order_test(GREEN2, [(1.0, -0.5)])
        with pytest.raises(InputFormatError):
            shifted_strong_order_test(kernel(np.eye(3)), [(1.0, 0.5)])
