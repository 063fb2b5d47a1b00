import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from permacheck import (
    DimensionCapError,
    InputFormatError,
    SingularMatrixError,
    defaults,
    beta_permanent,
    beta_positivity_scan,
    cycle_polynomial,
    id_necessary_battery,
    kernel,
    resolvent,
)
from permacheck import betaperm
from permacheck.betaperm import _cycle_coefficients, _dp_floats_per_matrix
from oracles import (
    naive_beta_permanent,
    naive_permanent,
    naive_positivity_scan,
    random_green,
    random_pd_kernel,
    scalar_cycle_coefficients,
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
        # TRI3 is not ID: a NaN beta let through would make the scan report holds
        nan, inf = float("nan"), float("inf")
        for grids in ({"betas": []}, {"betas": [-1.0]}, {"betas": [nan]},
                      {"betas": [inf]}, {"alphas": [0.0, nan]}, {"alphas": [inf]},
                      # the scan reports alphas in ascending order; m_max 0 is no cap
                      {"alphas": [0.0, -1.0]}, {"alphas": [1.0, 0.0]}, {"alphas": [0.5, 0.5]},
                      {"m_max": 0}):
            with pytest.raises(InputFormatError):
                beta_positivity_scan(kernel(TRI3), **grids)
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


def _loop_scan(g, betas, alphas, m_max):
    return naive_positivity_scan(
        lambda alpha: resolvent(g, alpha).entries, scalar_cycle_coefficients,
        g.dim, betas, alphas, m_max, defaults.NEGATIVITY_REL)


class TestPositivityScanOracle:
    def test_matches_loop_oracle(self):
        # each grid holds beta 0.1 or 0.2, where negative cyclic products show
        rng = np.random.default_rng(61)
        outcomes = {"holds": 0, "fails": 0}
        for case in range(320):
            if case < 300:
                n = int(rng.integers(2, 7))
                m_max = int(rng.integers(3, 6 if n <= 4 else 5))
            else:  # desk scale
                n, m_max = (10 if case < 310 else 12), 3
            g = kernel(_corpus_kernel(rng, case, n))
            betas = sorted([float(rng.choice(defaults.BETA_GRID[:2]))]
                           + rng.choice(defaults.BETA_GRID[2:], 2, replace=False).tolist())
            alphas = [0.0, float(rng.choice(defaults.ALPHA_GRID[1:]))]
            rep = beta_positivity_scan(g, betas, alphas, m_max)
            scanned, witness = _loop_scan(g, betas, alphas, m_max)
            assert rep.scanned == scanned, case
            outcomes[rep.verdict.status] += 1
            # the batched and scalar programs agree bit for bit, value included
            assert rep.witness == witness, case
        assert min(outcomes.values()) >= 50, outcomes

    def test_ill_conditioned_alpha_raises_like_the_loops(self):
        g = kernel([[1.0, 2.0], [2.0, 1.0]])  # holds at alpha 0; I + G is singular
        errors = []
        for scan in (lambda: beta_positivity_scan(g, [0.5], [0.0, 1.0], 3),
                     lambda: _loop_scan(g, [0.5], [0.0, 1.0], 3)):
            with pytest.raises(SingularMatrixError) as err:
                scan()
            errors.append(str(err.value))
        assert errors[0] == errors[1]

    def test_witness_before_ill_conditioned_alpha_fails_like_the_loops(self):
        # a negative cyclic product gives a witness at alpha 0; the
        # eigenvalue -1 makes I + G singular at alpha 1
        g = kernel([[1.0, 1.0, -1.0], [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]])
        with pytest.raises(SingularMatrixError):
            resolvent(g, 1.0)
        rep = beta_positivity_scan(g, [0.1, 0.5], [0.0, 1.0], 3)
        assert rep.verdict.fails
        assert rep.witness["alpha"] == 0.0
        assert (rep.scanned, rep.witness) == _loop_scan(g, [0.1, 0.5], [0.0, 1.0], 3)

    def test_status_invariant_under_permutation_and_signature(self):
        # per_beta(P A P^T) and per_beta(s A s) equal per_beta(A) on every
        # multiset, and resolvents commute with both maps
        rng = np.random.default_rng(62)
        statuses = set()
        for case in range(8):
            n = 4 + case % 3
            g = _corpus_kernel(rng, case, n)
            perm = rng.permutation(n)
            sigma = rng.choice([-1.0, 1.0], size=n)
            reps = [beta_positivity_scan(kernel(x), m_max=4)
                    for x in (g, g[np.ix_(perm, perm)], g * np.outer(sigma, sigma))]
            assert len({r.verdict.status for r in reps}) == 1, case
            if reps[0].verdict.holds:
                assert len({r.scanned for r in reps}) == 1, case
            statuses.add(reps[0].verdict.status)
        assert statuses == {"holds", "fails"}


def _dp_corpus():
    """1500 seeded matrices: m = 1..8, scales 1e-5..1e5, 20% zeros, some -0.0."""
    rng = np.random.default_rng(63)
    mats = []
    for i in range(1500):
        m = 1 + i % 8
        a = rng.normal(size=(m, m)) * 10.0 ** rng.uniform(-5, 5)
        a[rng.uniform(size=(m, m)) < 0.2] = 0.0
        a[rng.uniform(size=(m, m)) < 0.05] = -0.0
        mats.append(a)
    return mats


class TestBatchedCyclePolynomial:
    def test_bit_identical_to_scalar_program(self):
        by_size = {}
        for a in _dp_corpus():
            by_size.setdefault(a.shape[0], []).append(a)
        for m, mats in by_size.items():
            ref = np.array([scalar_cycle_coefficients(a) for a in mats])
            for got in (_cycle_coefficients(np.stack(mats, axis=2)),
                        np.array([cycle_polynomial(a) for a in mats])):
                assert np.array_equal(got, ref), m
                assert np.array_equal(np.signbit(got), np.signbit(ref)), m

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 5).flatmap(lambda m: st.lists(
               st.floats(-10, 10), min_size=m * m, max_size=m * m)),
           st.floats(-3, 3))
    def test_beta_permanent_matches_permutation_sum(self, entries, beta):
        m = int(round(len(entries) ** 0.5))
        a = np.array(entries).reshape(m, m)
        # relative to the permutation sum of |entries|, which bounds every
        # term; 1e-300 covers products that underflow in one order only
        scale = naive_beta_permanent(np.abs(a), max(abs(beta), 1.0))
        error = abs(beta_permanent(a, beta) - naive_beta_permanent(a, beta))
        assert error <= 1e-9 * scale + 1e-300


class TestStackSlicing:
    """The scan may cut a size-m stack into column slices without moving a bit."""

    def test_column_slices_match_one_stack(self):
        a = np.random.default_rng(41).normal(size=(6, 6, 300))
        parts = [_cycle_coefficients(a[:, :, lo:lo + 37]) for lo in range(0, 300, 37)]
        assert np.concatenate(parts).tobytes() == _cycle_coefficients(a).tobytes()

    def test_sliced_scan_matches_one_stack(self, monkeypatch):
        rng = np.random.default_rng(42)
        cases = [(kernel(TRI3), {}),
                 (kernel(random_green(rng, 5, symmetric=True)), {"m_max": 5})]
        want = [beta_positivity_scan(g, **kw).to_dict() for g, kw in cases]
        assert {w["verdict"]["status"] for w in want} == {"holds", "fails"}
        stacks = []
        whole = betaperm._cycle_coefficients
        monkeypatch.setattr(betaperm, "_cycle_coefficients",
                            lambda a: stacks.append(a.shape[1:]) or whole(a))
        monkeypatch.setattr(betaperm, "_DP_FLOATS", 3000)
        assert [beta_positivity_scan(g, **kw).to_dict() for g, kw in cases] == want
        assert all(_dp_floats_per_matrix(m) * s <= 3000 for m, s in stacks)
        assert max(s for _, s in stacks) > 1 and len(stacks) > 5 * len(defaults.ALPHA_GRID)


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
