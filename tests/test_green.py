import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from permacheck import (
    InputFormatError,
    InvalidIndexError,
    KernelMatrix,
    NonFiniteError,
    SpectralRadiusError,
    TransientChain,
    Verdict,
    green_from_chain,
    hadamard_power,
    id_verdict,
    invert,
    is_green,
    kernel,
    plus_constant_check,
    restriction,
)
from permacheck.defaults import ZERO_REL
from oracles import random_chain_kernel, random_green

TRI3 = [[1.0, 0.6, 0.0], [0.6, 1.0, 0.6], [0.0, 0.6, 1.0]]


class TestTransientChain:
    def test_spectral_radius_exposed(self):
        assert TransientChain([[0.0, 0.5], [0.5, 0.0]]).dim == 2
        with pytest.raises(SpectralRadiusError) as err:
            TransientChain([[0.0, 2.0], [1.0, 0.0]])
        assert err.value.spectral_radius == pytest.approx(math.sqrt(2.0))

    def test_recurrent_chain_rejected(self):
        with pytest.raises(SpectralRadiusError):
            TransientChain([[0.0, 1.0], [1.0, 0.0]])

    def test_negative_entry_rejected(self):
        with pytest.raises(InputFormatError):
            TransientChain([[0.0, -0.1], [0.1, 0.0]])

    def test_nonsquare_rejected(self):
        with pytest.raises(InputFormatError):
            TransientChain([[0.0, 0.1]])


class TestGreenFromChain:
    def test_zero_chain_gives_identity(self):
        g = green_from_chain(TransientChain(np.zeros((3, 3))))
        assert_allclose(g.entries, np.eye(3))

    def test_symmetric_walk_closed_form(self):
        g = green_from_chain(TransientChain([[0.0, 0.5], [0.5, 0.0]]))
        assert_allclose(g.entries, [[4 / 3, 2 / 3], [2 / 3, 4 / 3]],
                        rtol=1e-14)
        assert g.symmetric

    def test_potential_equation(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            q = random_chain_kernel(rng, n)
            g = green_from_chain(TransientChain(q)).entries
            assert_allclose(g, np.eye(n) + q @ g, atol=1e-10)

    def test_entries_nonnegative(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            q = random_chain_kernel(rng, 4)
            assert green_from_chain(TransientChain(q)).entries.min() >= 0.0


class TestIsGreen:
    def test_identity_holds(self):
        assert is_green(kernel(np.eye(3))).holds

    def test_chain_potentials_hold(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            assert is_green(kernel(random_green(rng, n))).holds

    def test_tridiagonal_fails_on_inverse_sign(self):
        v = is_green(kernel(TRI3))
        assert v.fails
        assert v.witness["entry"] == [0, 2]
        assert v.witness["value"] > 0

    def test_negative_entry_fails(self):
        v = is_green(kernel([[1.0, -0.1], [-0.1, 1.0]]))
        assert v.fails
        assert v.witness["value"] == pytest.approx(-0.1)

    def test_singular_kernel_is_inconclusive(self):
        # a float condition estimate proves no singularity: near-recurrent
        # chains have Green kernels that invert refuses too
        v = is_green(kernel(np.ones((2, 2))))
        assert v.status == Verdict.INCONCLUSIVE
        assert "cond ~ " in v.detail

    def test_near_recurrent_chain_potentials_never_fail(self):
        # dense chains with 1 - rho in (1e-9.5, 1e-6): invert refuses most of
        # these Green kernels, which must leave them open, not refuted
        refused = 0
        for seed, symmetric in ((7, False), (8, True)):
            rng = np.random.default_rng(seed)
            for _ in range(150):
                n = int(rng.integers(2, 6))
                q = rng.uniform(0.0, 1.0, (n, n))
                if symmetric:
                    q = 0.5 * (q + q.T)
                rho = np.max(np.abs(np.linalg.eigvals(q)))
                q *= (1.0 - 10.0 ** -rng.uniform(6.0, 9.5)) / rho
                v = is_green(green_from_chain(TransientChain(q)))
                assert not v.fails, q.tolist()
                refused += v.status == Verdict.INCONCLUSIVE
        assert refused >= 50, refused

    def test_density_rescaling_keeps_weak_form(self):
        # diag scaling keeps the inverse a Z-matrix but breaks row dominance
        g = green_from_chain(TransientChain([[0.0, 0.5], [0.25, 0.0]])).entries
        d = np.diag([1.0, 10.0])
        v = is_green(kernel(d @ g @ d))
        assert v.status == Verdict.HOLDS_UP_TO_DENSITY

    def test_status_does_not_depend_on_scale(self):
        # (cG)^-1 = G^-1 / c keeps every sign of G^-1 and of its row sums,
        # so c*G has G's status for every c > 0
        rng = np.random.default_rng(34)
        g = green_from_chain(TransientChain([[0.0, 0.5], [0.25, 0.0]])).entries
        d = np.diag([1.0, 10.0])
        cases = [(TRI3, Verdict.FAILS),
                 (random_green(rng, 4, symmetric=True), Verdict.HOLDS),
                 (random_green(rng, 4), Verdict.HOLDS),
                 (d @ g @ d, Verdict.HOLDS_UP_TO_DENSITY)]
        for a, want in cases:
            for k in range(-100, 101, 5):
                assert is_green(kernel(10.0 ** k * np.asarray(a))).status == want, k

    def test_density_weak_form_counts_as_not_failing(self):
        g = green_from_chain(TransientChain([[0.0, 0.5], [0.25, 0.0]])).entries
        d = np.diag([1.0, 10.0])
        v = is_green(kernel(d @ g @ d))
        assert not v.fails
        assert not v.holds

    def test_green_never_meets_a_failing_id_verdict_at_the_zero_band(self):
        # M-matrix inverses, half of them nonsymmetric, with one inverse
        # off-diagonal set to +eps * max|h| (200 kernels) or -eps * max|h|
        # (200 controls), eps in (2e-12, 9e-11): just outside the ZERO_REL
        # band that both verdicts read.  A Green kernel is ID with signature
        # +1, so is_green may only hold where id_verdict does, and may only
        # fail on an inverse entry outside the band.
        rng = np.random.default_rng(35)
        contradictions, outcomes = [], {"fails": 0, "not fails": 0}
        for trial in range(400):
            n, symmetric = int(rng.integers(3, 7)), trial % 2 == 0
            h = -rng.uniform(0.05, 1.0, (n, n))
            if symmetric:
                h = 0.5 * (h + h.T)
            np.fill_diagonal(h, 0.0)
            np.fill_diagonal(h, -h.sum(axis=1) * rng.uniform(1.05, 1.5))
            i, j = rng.choice(n, 2, replace=False)
            h[i, j] = (1 if trial % 4 < 2 else -1) * rng.uniform(2e-12, 9e-11) * np.max(np.abs(h))
            if symmetric:
                h[j, i] = h[i, j]
            g = np.linalg.inv(h)
            G = kernel(0.5 * (g + g.T) if symmetric else g, symmetric=symmetric)
            v = is_green(G)
            outcomes["fails" if v.fails else "not fails"] += 1
            if not v.fails:
                iv = id_verdict(G)
                if not (iv.holds and iv.signature.to_list() == [1] * n):
                    contradictions.append((trial, "green holds, ID does not"))
            elif v.detail == "inverse has a positive off-diagonal entry":
                band = ZERO_REL * np.max(np.abs(invert(G).entries))
                if not v.witness["value"] > band:
                    contradictions.append((trial, "fails inside the zero band"))
        assert contradictions == []
        assert min(outcomes.values()) >= 150, outcomes


class TestHadamardPower:
    def test_unit_power_is_identity_map(self):
        g = kernel([[4 / 3, 2 / 3], [2 / 3, 4 / 3]])
        assert_allclose(hadamard_power(g, 1.0).entries, g.entries)

    def test_square_power_exact(self):
        g = kernel([[4 / 3, 2 / 3], [2 / 3, 4 / 3]])
        powered = hadamard_power(g, 2.0)
        assert isinstance(powered, KernelMatrix) and powered.symmetric
        assert_allclose(powered.entries,
                        [[16 / 9, 4 / 9], [4 / 9, 16 / 9]], rtol=1e-14)
        assert is_green(powered).holds

    def test_powers_of_potentials_stay_green(self):
        rng = np.random.default_rng(34)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            g = kernel(random_green(rng, n))
            for beta in (1.5, 2.0, 3.0):
                assert is_green(hadamard_power(g, beta)).holds

    def test_fractional_power_below_one_rejected(self):
        with pytest.raises(InputFormatError):
            hadamard_power(kernel(np.eye(2)), 0.5)

    def test_nan_power_rejected_as_malformed(self):
        # NaN passed the "beta < 1" check and raised NonFiniteError, a
        # numeric failure, for a malformed exponent
        with pytest.raises(InputFormatError, match="entrywise power nan"):
            hadamard_power(kernel([[2.0, 1.0], [1.0, 2.0]]), math.nan)

    def test_negative_entries_rejected(self):
        with pytest.raises(InputFormatError):
            hadamard_power(kernel([[1.0, -0.5], [-0.5, 1.0]]), 2.0)

    def test_power_that_overflows_raises_non_finite(self):
        # 3^1000 once became inf with a RuntimeWarning, and the kernel
        # check then called the valid input malformed
        with pytest.raises(NonFiniteError, match="entrywise power 1000"):
            hadamard_power(kernel([[3.0, 1.0], [1.0, 3.0]]), 1000.0)


class TestPlusConstant:
    def test_identity_kernel_holds_everywhere(self):
        rep = plus_constant_check(kernel(np.eye(2)))
        assert rep.verdict.holds
        assert [c for c, _ in rep.per_c] == [0.5, 1.0, 2.0]
        assert all(v.holds for _, v in rep.per_c)

    def test_symmetric_green_holds(self):
        g = green_from_chain(TransientChain([[0.0, 0.5], [0.5, 0.0]]))
        rep = plus_constant_check(g)
        assert rep.verdict.holds

    def test_tridiagonal_fails_at_first_grid_point(self):
        rep = plus_constant_check(kernel(TRI3))
        assert rep.verdict.fails
        assert rep.verdict.witness["c"] == 0.5
        assert all(v.fails for _, v in rep.per_c)

    def test_bad_grid_rejected(self):
        with pytest.raises(InputFormatError):
            plus_constant_check(kernel(np.eye(2)), c_grid=[0.0, 1.0])
        with pytest.raises(InputFormatError):
            plus_constant_check(kernel(np.eye(2)), c_grid=[])


class TestRestriction:
    def test_principal_submatrix(self):
        g = kernel([[1.0, 0.2, 0.3], [0.2, 2.0, 0.4], [0.3, 0.4, 3.0]])
        sub = restriction(g, [0, 2])
        assert_allclose(sub.entries, [[1.0, 0.3], [0.3, 3.0]])
        assert sub.symmetric

    def test_order_follows_subset(self):
        g = kernel(np.diag([1.0, 2.0, 3.0]))
        sub = restriction(g, [2, 0])
        assert_allclose(sub.entries, np.diag([3.0, 1.0]))

    def test_invalid_subsets_rejected(self):
        g = kernel(np.eye(3))
        with pytest.raises(InvalidIndexError):
            restriction(g, [])
        with pytest.raises(InvalidIndexError):
            restriction(g, [0, 0])
        with pytest.raises(InvalidIndexError):
            restriction(g, [0, 3])
        with pytest.raises(InvalidIndexError):
            restriction(g, [-1])

    def test_all_subsets_of_potentials_stay_green(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            g = kernel(random_green(rng, 4))
            for r in range(1, 5):
                for subset in itertools.combinations(range(4), r):
                    assert not is_green(restriction(g, subset)).fails
