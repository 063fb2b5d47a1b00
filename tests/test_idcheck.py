import math

import numpy as np
import pytest

from permacheck import (
    NotPSDError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    TransientChain,
    bapat_test,
    beta_positivity_scan,
    defaults,
    green_from_chain,
    id_necessary_battery,
    id_verdict,
    idcheck,
    invert,
    kernel,
    real_eigen_nonneg,
    shifted_pair_id_test,
)
from permacheck.matcore import psd_eigh
from oracles import (
    exhaustive_bapat,
    loop_inverse_m_route,
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
        # below -floor is NotPSDError; within the floor of 0, its base class
        with pytest.raises(NotPSDError):
            bapat_test(kernel([[1.0, 2.0], [2.0, 1.0]]))
        for singular in (np.zeros((2, 2)), np.ones((2, 2))):
            with pytest.raises(NotPositiveDefiniteError) as exc:
                bapat_test(kernel(singular))
            assert type(exc.value) is NotPositiveDefiniteError


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
        # a 2x2 kernel's law depends on its off-diagonals only through
        # their product, so it has the symmetric off-diagonal sqrt(g01*g10)
        g = np.array([[1.0, 0.8], [0.2, 1.0]])
        v = id_verdict(kernel(g))
        off = math.sqrt(g[0, 1] * g[1, 0])
        sym = kernel([[g[0, 0], off], [off, g[1, 1]]], symmetric=True)
        assert v.holds == bapat_test(sym).holds


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


class TestEigenvalueFloor:
    # one floor, psd_eigh's PSD_REL * max|G|, decides which kernels fail on
    # an eigenvalue and which reach a certificate

    def test_nonsymmetric_never_holds_where_the_scan_fails(self):
        # upper-triangular kernels whose eigenvalues are the diagonal: all
        # clear of 0 but one of size 10^-12.5 to 10^-9.5, of either sign
        rng = np.random.default_rng(3401)
        outcomes = {}
        for _ in range(300):
            n = int(rng.integers(2, 6))
            d = rng.uniform(0.5, 1.0, n)
            d[rng.integers(n)] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.5, -9.5)
            g = np.triu(rng.uniform(0.0, 1.0, (n, n)), 1) + np.diag(d)
            if rng.uniform() < 0.5:
                p = rng.permutation(n)
                g = g[np.ix_(p, p)]
            G = kernel(g)
            v = id_verdict(G)
            assert not (v.holds and beta_positivity_scan(G).verdict.fails), g.tolist()
            if d.min() < 0:
                assert v.fails, g.tolist()  # the scan's alpha = 0 witness
            outcomes[v.verdict.status] = outcomes.get(v.verdict.status, 0) + 1
        assert outcomes.get("fails", 0) >= 100 and outcomes.get("inconclusive", 0) >= 50, outcomes

    def test_symmetric_eigenvalue_fails_iff_psd_eigh_rejects(self):
        # smallest eigenvalue -10^U(-10.5, -7.5) relative to the entries,
        # straddling -PSD_REL * max|G|
        rng = np.random.default_rng(2034)
        rejected = accepted = 0
        for _ in range(300):
            n = int(rng.integers(2, 7))
            a = rng.normal(size=(n, n))
            a = 0.5 * (a + a.T)
            t = -10.0 ** rng.uniform(-10.5, -7.5) * np.abs(a).max()
            G = kernel(a + (t - np.linalg.eigvalsh(a)[0]) * np.eye(n))
            v = id_verdict(G)
            try:
                psd_eigh(G)
            except NotPSDError:
                rejected += 1
                floor = defaults.PSD_REL * np.abs(G.entries).max()
                assert v.fails and v.witness["eigenvalue"]["re"] < -floor, G.entries.tolist()
            else:
                accepted += 1
                assert not (v.fails and "eigenvalue" in v.witness), G.entries.tolist()
        assert rejected >= 100 and accepted >= 100, (rejected, accepted)


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


MIX3 = [[1.0, -0.31, 0.58], [-0.31, 1.0, 0.58], [0.58, 0.58, 1.0]]


def _scale_kernels():
    rng = np.random.default_rng(91)
    yield "TRI3", np.array(TRI3)
    yield "MIX3", np.array(MIX3)
    yield "indefinite", np.array([[1.0, 2.0], [2.0, 1.0]])
    for case in range(20):
        yield f"spd {case}", random_pd_kernel(rng, int(rng.integers(2, 6)))
    for case in range(20):
        yield f"green {case}", random_green(rng, int(rng.integers(2, 6)))


class TestScaleInvariance:
    def test_verdict_and_method_do_not_depend_on_scale(self):
        # G -> cG (c > 0) keeps infinite divisibility, so every tolerance
        # on the way to a verdict must be relative to the kernel's size.
        # PSD-singular kernels are left out: the scan decides them, and
        # resolvent(cG, a) = c * resolvent(G, c*a) moves its alpha grid.
        seen = set()
        for name, g in _scale_kernels():
            v0 = id_verdict(kernel(g))
            seen.add((v0.verdict.status, v0.method))
            for k in (-12, 13, *range(-100, 101, 5)):
                G = kernel(10.0 ** k * g)
                assert G.symmetric == kernel(g).symmetric, (name, k)
                v = id_verdict(G)
                assert (v.verdict.status, v.method) == (v0.verdict.status, v0.method), (name, k)
        assert seen == {("holds", "bapat-exact"), ("fails", "bapat-exact"),
                        ("fails", "battery-necessary"),
                        ("holds", "inverse-M-sufficient")}, seen


def _invariance_kernels() -> dict:
    rng = np.random.default_rng(92)
    q = np.array([[0.0, 0.3, 0.2], [0.1, 0.2, 0.3], [0.4, 0.0, 0.1]])
    kernels = {
        "TRI3": np.array(TRI3),
        "MIX3": np.array(MIX3),
        "nonsymmetric Green": np.linalg.inv(np.eye(3) - q),
        "PSD-singular": _B @ _B.T,
        # positive and nonsymmetric, with a positive inverse off-diagonal:
        # no certificate applies, so the scan decides
        "nonsymmetric positive": 0.005 * (2.0 * np.eye(4) + rng.uniform(0.0, 1.0, (4, 4))),
    }
    for case in range(4):
        kernels[f"SPD {case}"] = random_pd_kernel(rng, int(rng.integers(2, 6)))
    # ID with a mixed signature, on one component and on two
    s = np.array([1.0, -1.0, 1.0])
    m = np.array([[2.0, -0.5, -0.3], [-0.5, 2.0, -0.4], [-0.3, -0.4, 2.0]])
    kernels["SPD ID"] = np.linalg.inv(m) * np.outer(s, s)
    blocks = np.zeros((4, 4))
    blocks[:2, :2], blocks[2:, 2:] = [[1.0, -0.4], [-0.4, 1.0]], [[2.0, 0.5], [0.5, 1.0]]
    p = [2, 0, 3, 1]
    kernels["SPD two components"] = blocks[np.ix_(p, p)]
    return kernels


INVARIANCE_KERNELS = _invariance_kernels()


def _outcome(v) -> tuple:
    return v.verdict.status, v.method


def _signs(v):
    return None if v.signature is None else v.signature.to_list()


class TestConjugationInvariance:
    # sigma G sigma and G give eta^2 the same law, and every stage of
    # id_verdict sees sigma-conjugated inputs (resolvents, inverses,
    # products, beta-permanents), on which sign flips are exact in float64

    @pytest.mark.parametrize("name", sorted(INVARIANCE_KERNELS))
    def test_sign_conjugation(self, name):
        g = INVARIANCE_KERNELS[name]
        n = g.shape[0]
        v0 = id_verdict(kernel(g))
        if v0.signature is not None:
            h = np.linalg.inv(g)
            # edges of the colouring: the inverse's entries above the zero cut
            edges = np.argwhere(np.abs(h) > defaults.ZERO_REL * np.abs(h).max())
        rng = np.random.default_rng(27)
        for s in [-np.ones(n)] + [rng.choice([-1.0, 1.0], size=n) for _ in range(4)]:
            v = id_verdict(kernel(g * np.outer(s, s)))
            assert _outcome(v) == _outcome(v0), s
            assert (v.signature is None) == (v0.signature is None)
            if v0.signature is not None:
                # s times the old signature, up to one flip per component
                flip = v.signature.signs * s * v0.signature.signs
                assert all(flip[i] == flip[j] for i, j in edges), s

    @pytest.mark.parametrize("name", ["nonsymmetric Green", "SPD 0", "SPD 1", "SPD 2",
                                      "SPD 3", "SPD ID", "SPD two components"])
    def test_diagonal_scaling(self, name):
        # (DGD)^-1 = D^-1 G^-1 D^-1 has G^-1's sign pattern, which decides
        # both the exact criterion and the inverse-M route
        g = INVARIANCE_KERNELS[name]
        v0 = id_verdict(kernel(g))
        rng = np.random.default_rng(28)
        for _ in range(5):
            d = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=g.shape[0]))
            v = id_verdict(kernel(g * np.outer(d, d)))
            assert _outcome(v) == _outcome(v0), d
            assert _signs(v) == _signs(v0), d
