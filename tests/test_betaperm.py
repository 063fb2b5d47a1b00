import numpy as np
import pytest
from numpy.testing import assert_allclose

from permacheck import (
    DimensionCapError,
    beta_permanent,
    beta_positivity_scan,
    cycle_polynomial,
    id_necessary_battery,
    kernel,
    resolvent,
)
from oracles import (
    naive_beta_permanent,
    naive_permanent,
    naive_signature_convention,
    random_pd_kernel,
)

TRI3 = [[1.0, 0.6, 0.0], [0.6, 1.0, 0.6], [0.0, 0.6, 1.0]]


class TestBetaPermanent:
    def test_one_by_one_is_beta_times_entry(self):
        assert beta_permanent([[3.0]], 0.7) == pytest.approx(0.7 * 3.0)

    def test_identity_two(self):
        for beta in (0.5, 1.0, 2.0, 3.0):
            assert beta_permanent(np.eye(2), beta) == pytest.approx(beta ** 2)

    def test_two_by_two_example(self):
        a = [[1.0, 2.0], [3.0, 4.0]]
        assert beta_permanent(a, 1.0) == 10.0
        assert beta_permanent(a, -1.0) == -2.0
        assert beta_permanent(a, -1.0) == pytest.approx(np.linalg.det(a))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = int(rng.integers(1, 6))
            a = rng.normal(size=(m, m))
            for beta in (0.3, 1.0, 1.7, -1.0):
                lib = beta_permanent(a, beta)
                ref = naive_beta_permanent(a, beta)
                assert lib == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_integer_matrices_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = int(rng.integers(2, 7))
            a = rng.integers(-3, 4, size=(m, m)).astype(float)
            for beta in (1.0, -1.0, 2.0, 0.5):
                assert beta_permanent(a, beta) == naive_beta_permanent(a, beta)

    def test_det_and_permanent_identities(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = int(rng.integers(2, 7))
            a = rng.normal(size=(m, m))
            assert beta_permanent(a, -1.0) == pytest.approx(
                (-1.0) ** m * np.linalg.det(a), abs=1e-9)
            assert beta_permanent(a, 1.0) == pytest.approx(
                naive_permanent(a), rel=1e-12)

    def test_polynomial_interpolation(self):
        # degree-m polynomial in beta: fitting m+1 points predicts fresh ones
        rng = np.random.default_rng(10)
        a = rng.normal(size=(4, 4))
        grid = np.arange(1.0, 6.0)
        vals = [beta_permanent(a, b) for b in grid]
        coef = np.polynomial.polynomial.polyfit(grid, vals, 4)
        for b in (0.25, 2.5, 7.0):
            pred = np.polynomial.polynomial.polyval(b, coef)
            assert pred == pytest.approx(beta_permanent(a, b), rel=1e-8, abs=1e-8)

    def test_cycle_polynomial_coefficients(self):
        coef = cycle_polynomial([[1.0, 2.0], [3.0, 4.0]])
        # one 2-cycle term (2*3), identity has two 1-cycles (1*4)
        assert_allclose(coef, [0.0, 6.0, 4.0])

    def test_psd_small_submatrices_nonnegative(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            g = random_pd_kernel(rng, 4)
            for i in range(4):
                assert beta_permanent([[g[i, i]]], 2.0) >= 0.0
                for j in range(4):
                    if i != j:
                        sub = g[np.ix_([i, j], [i, j])]
                        assert beta_permanent(sub, 2.0) >= 0.0

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapError):
            beta_permanent(np.eye(9), 1.0)

    def test_signature_convention_flag(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            m = int(rng.integers(1, 5))
            a = rng.normal(size=(m, m))
            for beta in (0.5, 1.0, 2.0):
                lib = beta_permanent(a, beta, exponent="signature")
                ref = naive_signature_convention(a, beta)
                assert lib == pytest.approx(ref, rel=1e-12, abs=1e-12)


class TestPositivityScan:
    def test_diagonal_kernel_holds(self):
        rep = beta_positivity_scan(kernel(np.diag([1.0, 2.0, 3.0])),
                                   betas=[0.5, 1.0, 2.0], alphas=[0.0, 1.0],
                                   m_max=3)
        assert rep.verdict.holds
        assert rep.witness is None
        assert rep.scanned == 2 * 3 * (3 + 6 + 10)

    def test_pair_kernel_holds(self):
        rep = beta_positivity_scan(kernel([[1.0, 0.5], [0.5, 1.0]]),
                                   betas=[0.5, 1.0, 2.0], m_max=4)
        assert rep.verdict.holds

    def test_tridiagonal_witness(self):
        rep = beta_positivity_scan(kernel(TRI3))
        assert rep.verdict.fails
        w = rep.witness
        assert w["value"] < 0
        # the witness value is a genuine beta-permanent of that submatrix
        ga = resolvent(kernel(TRI3), w["alpha"]).entries
        sub = ga[np.ix_(w["indices"], w["indices"])]
        assert naive_beta_permanent(sub, w["beta"]) == pytest.approx(
            w["value"], rel=1e-10)

    def test_enlarging_range_keeps_witness(self):
        base = beta_positivity_scan(kernel(TRI3), betas=[0.1, 0.5],
                                    alphas=[0.0, 0.5, 1.0], m_max=4)
        assert base.verdict.fails
        wider = beta_positivity_scan(kernel(TRI3), betas=[0.1, 0.5, 1.0],
                                     alphas=[0.0, 0.5, 1.0, 2.0], m_max=5)
        assert wider.verdict.fails

    def test_bad_grids_rejected(self):
        from permacheck import InputFormatError
        with pytest.raises(InputFormatError):
            beta_positivity_scan(kernel(np.eye(2)), betas=[])
        with pytest.raises(InputFormatError):
            beta_positivity_scan(kernel(np.eye(2)), betas=[-1.0])
        with pytest.raises(DimensionCapError):
            beta_positivity_scan(kernel(np.eye(2)), m_max=9)


class TestNecessaryBattery:
    def test_nonnegative_kernel_holds(self):
        rng = np.random.default_rng(14)
        g = rng.uniform(0.1, 1.0, size=(4, 4))
        g = g @ g.T + 2 * np.eye(4)
        assert id_necessary_battery(kernel(g)).holds

    def test_pairwise_violation(self):
        g = np.full((3, 3), 0.5) + np.eye(3)
        g[0, 1], g[1, 0] = 1.0, -1.0
        v = id_necessary_battery(kernel(g))
        assert v.fails
        assert v.witness["kind"] == "pair"
        assert v.witness["indices"] == [0, 1]

    def test_triple_violation(self):
        g = np.array([[3.0, 1.0, -1.0], [1.0, 3.0, 1.0], [-1.0, 1.0, 3.0]])
        assert np.linalg.eigvalsh(g).min() > 0  # genuinely a covariance
        v = id_necessary_battery(kernel(g))
        assert v.fails
        assert v.witness["kind"] == "triple"
        assert v.witness["indices"] == [0, 1, 2]
        assert v.witness["value"] == pytest.approx(-1.0)
