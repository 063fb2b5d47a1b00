import numpy as np
import pytest

from permacheck import (
    NegativeCrossProductError,
    NotPSDError,
    NotPositiveDefiniteError,
    SignConditionError,
    SignInconsistencyError,
    SingularMatrixError,
    TransientChain,
    bapat_test,
    construct_signature,
    defaults,
    green_from_chain,
    id_necessary_battery,
    id_verdict,
    idcheck,
    invert,
    kernel,
    real_eigen_nonneg,
    shifted_pair_id_test,
    symmetrize_pair_kernel,
)
from oracles import (
    exhaustive_bapat,
    loop_inverse_m_route,
    loop_signature,
    random_green,
    random_pd_kernel,
)

TRI3 = [[1.0, 0.6, 0.0], [0.6, 1.0, 0.6], [0.0, 0.6, 1.0]]
_B = np.array([[0.6, 0.9], [0.6, 0.3], [0.8, 0.5], [0.5, 0.8]])
# one kernel for each stage of id_verdict that can decide
PERMUTATION_KERNELS = {
    "bapat holds": [[2.0, 0.5, 0.3], [0.5, 2.0, 0.4], [0.3, 0.4, 2.0]],
    "bapat fails": TRI3,
    "eigenvalue fails": [[1.0, 4.0, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "pair fails": [[2.0, 1.0, 0.5], [-1.0, 2.0, 0.5], [0.5, 0.5, 2.0]],
    "triple fails": [[2.0, 1.0, -0.5], [1.0, 2.0, 0.5], [-0.25, 0.5, 2.0]],
    "inverse-M holds": np.linalg.inv(np.eye(3) - np.array(
        [[0.0, 0.3, 0.2], [0.1, 0.2, 0.3], [0.4, 0.0, 0.1]])).tolist(),
    "PSD-singular inconclusive": (_B @ _B.T).tolist(),
}


class TestConstructSignature:
    def test_positive_kernel_gets_identity(self):
        g = np.array([[2.0, 0.5], [0.25, 1.0]])
        sig = construct_signature(kernel(g))
        assert list(sig.signs) == [1, 1]

    def test_recovers_conjugation_up_to_component_flip(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            base = rng.uniform(0.1, 1.0, size=(n, n)) + n * np.eye(n)
            s0 = rng.choice([-1.0, 1.0], size=n)
            g = base * np.outer(s0, s0)
            sig = construct_signature(kernel(g))
            rel = np.asarray(sig.signs) * s0
            # connected positive support: recovery exact up to a global flip
            assert abs(rel.sum()) == n

    def test_conjugated_kernel_is_nonnegative(self):
        g = np.array([[1.0, -0.4, 0.2], [-0.4, 1.0, -0.3], [0.2, -0.3, 1.0]])
        sig = construct_signature(kernel(g))
        assert sig.conjugate(g).min() >= -1e-12

    def test_pair_violation_raises(self):
        g = np.array([[1.0, 0.5], [-0.5, 1.0]])
        with pytest.raises(SignConditionError) as err:
            construct_signature(kernel(g))
        assert tuple(err.value.indices) == (0, 1)

    def test_triple_violation_raises(self):
        g = np.array([[3.0, 1.0, -1.0], [1.0, 3.0, 1.0], [-1.0, 1.0, 3.0]])
        with pytest.raises(SignConditionError) as err:
            construct_signature(kernel(g))
        assert len(err.value.indices) == 3

    def test_inconsistent_cycle_raises(self):
        # negative 5-cycle: no triangles, so pair and triple checks pass,
        # but the parity demand around the odd cycle is unsatisfiable
        g = 3.0 * np.eye(5)
        for i in range(5):
            j = (i + 1) % 5
            g[i, j] = g[j, i] = -1.0
        with pytest.raises(SignInconsistencyError):
            construct_signature(kernel(g))

    def test_matches_closure_propagation(self):
        # sparse signed patterns, some pairs of opposite sign below the
        # pair-product tolerance, some entries below the zero tolerance
        rng = np.random.default_rng(22)
        raised = 0
        for case in range(600):
            n = int(rng.integers(2, 7))
            g = rng.uniform(0.1, 1.0, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.5)
            s0 = rng.choice([-1.0, 1.0], size=n)
            g = (g + g.T) * np.outer(s0, s0) + n * np.eye(n)
            i, j = rng.choice(n, size=2, replace=False)
            g[i, j] = 10.0 ** float(rng.uniform(-14, -5)) * rng.choice([-1.0, 1.0])
            if case % 2:
                g[j, i] = -g[i, j]
            G = kernel(g, symmetric=False)
            try:
                got = construct_signature(G).to_list()
            except SignInconsistencyError:
                got = None
            except SignConditionError:
                continue
            want = loop_signature(G.entries, defaults.ZERO_REL, defaults.NEGATIVITY_REL)
            assert got == (None if want is None else [int(v) for v in want]), case
            raised += got is None
        assert raised >= 50


class TestBapat:
    def test_two_by_two_always_holds(self):
        for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
            v = bapat_test(kernel([[1.0, rho], [rho, 1.0]]))
            assert v.holds
            assert v.method == "bapat-exact"
            assert v.signature is not None

    def test_tridiagonal_fails(self):
        v = bapat_test(kernel(TRI3))
        assert v.fails
        assert v.method == "bapat-exact"
        assert v.witness is not None

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            g = random_pd_kernel(rng, n)
            v = bapat_test(kernel(g))
            assert v.holds == exhaustive_bapat(g)

    def test_tridiagonal_exhaustive_agrees(self):
        assert not exhaustive_bapat(np.array(TRI3))

    def test_signature_certificate_is_valid(self):
        g = np.array([[1.0, -0.4, 0.2], [-0.4, 1.0, -0.3], [0.2, -0.3, 1.0]])
        v = bapat_test(kernel(g))
        assert v.holds
        s = np.asarray(v.signature.signs, dtype=float)
        h = np.linalg.inv(g) * np.outer(s, s)
        off = h - np.diag(np.diag(h))
        assert off.max() <= 1e-12

    def test_not_positive_definite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            bapat_test(kernel([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotPositiveDefiniteError):
            bapat_test(kernel(np.zeros((2, 2))))


class TestIdVerdict:
    def test_identity_holds(self):
        v = id_verdict(kernel(np.eye(3)))
        assert v.holds
        assert v.method == "bapat-exact"

    def test_tridiagonal_fails_exactly(self):
        v = id_verdict(kernel(TRI3))
        assert v.fails
        assert v.method == "bapat-exact"

    def test_nonsymmetric_green_holds_by_m_matrix(self):
        q = np.array([[0.0, 0.5], [0.25, 0.1]])
        g = green_from_chain(TransientChain(q))
        v = id_verdict(g)
        assert v.holds
        assert v.method == "inverse-M-sufficient"

    def test_eigenvalue_screen(self):
        # eigenvalues 1 +/- sqrt(2): one genuinely negative
        v = id_verdict(kernel([[1.0, 4.0], [0.5, 1.0]]))
        assert v.fails
        assert "eigenvalue" in v.witness

    def test_signature_conjugation_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = random_pd_kernel(rng, 3)
            s = rng.choice([-1.0, 1.0], size=3)
            v0 = id_verdict(kernel(g))
            v1 = id_verdict(kernel(g * np.outer(s, s)))
            assert v0.verdict.status == v1.verdict.status

    def test_diagonal_scaling_invariance(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            g = random_pd_kernel(rng, 3)
            d = rng.uniform(0.2, 5.0, size=3)
            v0 = id_verdict(kernel(g))
            v1 = id_verdict(kernel(g * np.outer(d, d)))
            assert v0.verdict.status == v1.verdict.status

    @pytest.mark.parametrize("name", sorted(PERMUTATION_KERNELS))
    def test_index_permutation_invariance(self, name):
        g = np.array(PERMUTATION_KERNELS[name])
        v0 = id_verdict(kernel(g))
        n = g.shape[0]
        for p in (np.arange(n)[::-1], np.roll(np.arange(n), 1)):
            v1 = id_verdict(kernel(g[np.ix_(p, p)]))
            assert (v1.verdict.status, v1.method) == (v0.verdict.status, v0.method)

    def test_pair_kernel_matches_symmetrized_route(self):
        g = np.array([[1.0, 0.8], [0.2, 1.0]])
        v = id_verdict(kernel(g))
        sym = symmetrize_pair_kernel(kernel(g))
        assert v.holds == bapat_test(sym).holds


class TestSymmetrizePair:
    def test_geometric_mean_offdiagonal(self):
        sym = symmetrize_pair_kernel(kernel([[1.0, 2.0], [0.5, 1.0]]))
        np.testing.assert_allclose(sym.entries, [[1.0, 1.0], [1.0, 1.0]])
        assert sym.symmetric

    def test_preserves_diagonal_determinant_polynomial(self):
        g = np.array([[1.0, 0.8], [0.2, 1.0]])
        sym = symmetrize_pair_kernel(kernel(g)).entries
        for x in ([1.0, 2.0], [0.3, 0.3], [5.0, 0.1]):
            lhs = np.linalg.det(np.eye(2) + np.diag(x) @ g)
            rhs = np.linalg.det(np.eye(2) + np.diag(x) @ sym)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_negative_cross_product_rejected(self):
        with pytest.raises(NegativeCrossProductError):
            symmetrize_pair_kernel(kernel([[1.0, 1.0], [-0.5, 1.0]]))

    def test_requires_two_by_two(self):
        from permacheck import InputFormatError
        with pytest.raises(InputFormatError):
            symmetrize_pair_kernel(kernel(np.eye(3)))


class TestShiftedPair:
    def test_zero_shift_holds(self):
        assert shifted_pair_id_test(1.0, 0.0, 1.0).holds

    def test_within_bound_holds(self):
        assert shifted_pair_id_test(2.0, 1.0, 1.0).holds
        assert shifted_pair_id_test(1.0, 1.0, 1.0).holds

    def test_negative_shift_fails(self):
        v = shifted_pair_id_test(1.0, -0.5, 1.0)
        assert v.fails
        assert v.witness["c"] == -0.5

    def test_above_variance_product_fails(self):
        # still a valid covariance (det = 0.09 > 0) yet not compatible
        v = shifted_pair_id_test(0.5, 0.4, 0.5)
        assert v.fails
        assert v.witness["bound"] == pytest.approx(0.25)

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(NotPSDError):
            shifted_pair_id_test(1.0, 1.5, 1.0)


class TestRandomChains:
    def test_green_kernels_never_misclassified(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            g = kernel(random_green(rng, n))
            v = id_verdict(g)
            assert not v.fails


def _nonsymmetric_kernels(rng, count):
    """Random Green kernels, every second one sigma-conjugated, two in three
    perturbed on a random 30% of entries (relative size 1e-4 to 0.3, so the
    inverse's zeros take either sign), every fourth diagonally shifted.
    Every fifth starts from a random sparse positive matrix instead, and
    every seventh from two Green blocks with their indices shuffled, so
    that the sign pattern has several components."""
    for case in range(count):
        n = int(rng.integers(2, 7))
        if case % 5 == 4:
            g = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.8)
        elif case % 7 == 6:
            m = int(rng.integers(1, n))
            g = np.zeros((n, n))
            g[:m, :m], g[m:, m:] = random_green(rng, m), random_green(rng, n - m)
            p = rng.permutation(n)
            g = g[np.ix_(p, p)]
        else:
            g = random_green(rng, n)
        if case % 2:
            sigma = rng.choice([-1.0, 1.0], size=n)
            g = g * np.outer(sigma, sigma)
        if case % 3:
            size = 10.0 ** float(rng.uniform(-4, -0.5)) * np.abs(g).max()
            g = g + (rng.uniform(size=(n, n)) < 0.3) * rng.normal(scale=size, size=(n, n))
        if case % 4 == 3:
            g = g + float(rng.uniform(0.0, 2.0)) * np.eye(n)
        yield g


def _holds_and_signature(route):
    try:
        return route()
    except SingularMatrixError:
        return "singular"


class TestInverseCertificate:
    def test_matches_kernel_signature_route(self):
        # id_verdict's nonsymmetric route took its signature from G's own
        # sign pattern; it now colours G^-1's.  On every kernel that reaches
        # the route, both must give the same (holds, signature).
        def certificate(G):
            c = idcheck._inverse_certificate(G, "inverse-M-sufficient")
            return c.holds, None if c.signature is None else c.signature.to_list()

        def inverse(a):
            return invert(kernel(a, symmetric=False)).entries

        outcomes = {True: 0, False: 0}
        for g in _nonsymmetric_kernels(np.random.default_rng(90), 3300):
            G = kernel(g)
            if G.symmetric or not (real_eigen_nonneg(G).holds
                                   and id_necessary_battery(G).holds):
                continue
            new = _holds_and_signature(lambda: certificate(G))
            old = _holds_and_signature(lambda: loop_inverse_m_route(
                G.entries, inverse, defaults.ZERO_REL, defaults.NEGATIVITY_REL,
                defaults.TOL_ALGEBRAIC))
            assert new == old, g.tolist()
            if new != "singular":
                outcomes[new[0]] += 1
        assert sum(outcomes.values()) >= 2000 and outcomes[False] >= 200, outcomes

    @pytest.mark.parametrize("name", sorted(PERMUTATION_KERNELS))
    def test_id_verdict_never_constructs_a_kernel_signature(self, name, monkeypatch):
        expected = id_verdict(kernel(PERMUTATION_KERNELS[name])).to_dict()

        def forbidden(G):
            raise AssertionError("id_verdict reached construct_signature")

        monkeypatch.setattr(idcheck, "construct_signature", forbidden)
        assert id_verdict(kernel(PERMUTATION_KERNELS[name])).to_dict() == expected
