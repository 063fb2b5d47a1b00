import numpy as np
import pytest
from numpy.testing import assert_allclose

from permacheck import (
    DimensionCapError,
    SingularMatrixError,
    defaults,
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
    naive_positivity_scan,
    naive_signature_convention,
    random_green,
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

    def test_threshold_scales_with_submatrix_size(self):
        # per_0.1 of [[1, 2], [c, 1]] is 0.01 + 0.2c = -0.2 * delta; the
        # threshold for this 2x2 submatrix is -1e-10 * max|entry|^2 = -4e-10
        def scan(delta, m_max):
            g = kernel([[1.0, 2.0], [-0.05 - delta, 1.0]])
            return beta_positivity_scan(g, betas=[0.1], alphas=[0.0], m_max=m_max)

        assert scan(1e-9, 2).verdict.holds
        rep = scan(3e-9, 3)
        assert rep.verdict.fails
        assert (rep.witness["indices"], rep.scanned) == ([0, 1], 4)
        assert rep.witness["value"] == pytest.approx(-6e-10, rel=1e-6)

    def test_bad_grids_rejected(self):
        from permacheck import InputFormatError
        with pytest.raises(InputFormatError):
            beta_positivity_scan(kernel(np.eye(2)), betas=[])
        with pytest.raises(InputFormatError):
            beta_positivity_scan(kernel(np.eye(2)), betas=[-1.0])
        with pytest.raises(DimensionCapError):
            beta_positivity_scan(kernel(np.eye(2)), m_max=9)


def _corpus_kernel(rng, case: int, n: int) -> np.ndarray:
    """Positive definite, PSD-singular, nonsymmetric Green, or nonsymmetric mixed."""
    kind = case % 4
    if kind == 0:  # a random correlation matrix
        b = rng.normal(size=(n, n))
        g = b @ b.T
        d = 1.0 / np.sqrt(np.diag(g))
        g = g * np.outer(d, d)
        return 0.5 * (g + g.T)
    if kind == 1:  # a rank n-1 Gram matrix
        b = rng.normal(size=(n, n - 1))
        g = b @ b.T / (n - 1)
        return 0.5 * (g + g.T)
    if kind == 2:
        return random_green(rng, n)
    return random_pd_kernel(rng, n) + 0.2 * rng.normal(size=(n, n))


class TestPositivityScanOracle:
    def test_matches_loop_oracle(self):
        # each grid holds beta 0.1 or 0.2, where negative cyclic products show
        rng = np.random.default_rng(61)
        outcomes = {"holds": 0, "fails": 0}
        for case in range(300):
            n = int(rng.integers(2, 7))
            m_max = int(rng.integers(3, 6 if n <= 4 else 5))
            g = kernel(_corpus_kernel(rng, case, n))
            betas = sorted([float(rng.choice(defaults.BETA_GRID[:2]))]
                           + rng.choice(defaults.BETA_GRID[2:], 2, replace=False).tolist())
            alphas = [0.0, float(rng.choice(defaults.ALPHA_GRID[1:]))]
            rep = beta_positivity_scan(g, betas, alphas, m_max)
            scanned, witness = naive_positivity_scan(
                lambda alpha: resolvent(g, alpha).entries, cycle_polynomial,
                n, betas, alphas, m_max, defaults.NEGATIVITY_REL)
            assert rep.scanned == scanned, case
            outcomes[rep.verdict.status] += 1
            if witness is None:
                assert rep.witness is None, case
                continue
            got = dict(rep.witness)
            assert got.pop("value") == pytest.approx(witness.pop("value"),
                                                      rel=1e-12, abs=0), case
            assert got == witness, case
        assert min(outcomes.values()) >= 50, outcomes

    def test_ill_conditioned_alpha_raises_like_the_loops(self):
        g = kernel([[1.0, 2.0], [2.0, 1.0]])  # holds at alpha 0; I + G is singular
        errors = []
        for scan in (lambda: beta_positivity_scan(g, [0.5], [0.0, 1.0], 3),
                     lambda: naive_positivity_scan(
                         lambda alpha: resolvent(g, alpha).entries, cycle_polynomial,
                         2, [0.5], [0.0, 1.0], 3, defaults.NEGATIVITY_REL)):
            with pytest.raises(SingularMatrixError) as err:
                scan()
            errors.append(str(err.value))
        assert errors[0] == errors[1]


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
