import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import naive_m_matrix_witnesses, naive_sign_product_violation
from permacheck import (
    InputFormatError,
    KernelMatrix,
    Signature,
    SingularMatrixError,
    Verdict,
    dumps_matrix,
    invert,
    is_green,
    kernel,
    load_matrix,
    loads_matrix,
    real_eigen_nonneg,
    resolvent,
    save_matrix,
)
from permacheck.defaults import TOL_ALGEBRAIC
from permacheck.matcore import _resolvents, sign_product_violation


class TestKernelMatrix:
    def test_rejects_nonsquare(self):
        with pytest.raises(InputFormatError):
            KernelMatrix(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(InputFormatError):
            KernelMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_false_symmetry_claim(self):
        with pytest.raises(InputFormatError):
            KernelMatrix(np.array([[1.0, 2.0], [0.5, 1.0]]), symmetric=True)

    def test_symmetry_inference(self):
        assert kernel([[1, 0.5], [0.5, 1]]).symmetric
        assert not kernel([[1, 2], [0.5, 1]]).symmetric

    @pytest.mark.parametrize("a", [[[1e308, 0.0], [0.0, 1e308]],
                                   [[1e308, 1.5e308], [1.5e308, 1e308]]])
    def test_huge_finite_kernel_stays_finite(self, a):
        # symmetrising as 0.5 * (G + G^T) once overflowed to inf, with a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            G = kernel(a)
        assert G.symmetric
        assert np.array_equal(G.entries, a)

    def test_entries_are_immutable(self):
        G = kernel([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            G.entries[0, 0] = 5.0


class TestInvert:
    def test_identity(self):
        assert_allclose(invert(kernel(np.eye(3))).entries, np.eye(3))

    def test_diagonal_reciprocal(self):
        H = invert(kernel([[2.0, 0.0], [0.0, 4.0]]))
        assert_allclose(H.entries, [[0.5, 0.0], [0.0, 0.25]])

    def test_pair_kernel(self):
        G = kernel([[1.0, 0.5], [0.5, 1.0]])
        H = invert(G)
        assert_allclose(H.entries, (4.0 / 3.0) * np.array([[1, -0.5], [-0.5, 1]]))
        assert_allclose(G.entries @ H.entries, np.eye(2), atol=1e-12)
        assert H.symmetric

    def test_double_inversion_is_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = rng.integers(2, 9)
            a = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
            G = kernel(a)
            assert_allclose(invert(invert(G)).entries, G.entries, atol=1e-8)

    def test_singular_raises_with_estimate(self):
        with pytest.raises(SingularMatrixError) as err:
            invert(kernel([[1.0, 1.0], [1.0, 1.0]]))
        assert err.value.cond_estimate > 1e12


class TestResolvent:
    def test_alpha_zero_is_base(self):
        G = kernel([[1.0, 0.5], [0.5, 1.0]])
        assert_allclose(resolvent(G, 0.0).entries, G.entries)

    def test_scalar_formula(self):
        assert_allclose(resolvent(kernel([[2.0]]), 0.5).entries, [[1.0]])

    def test_shift_identity(self):
        rng = np.random.default_rng(2)
        G = kernel(rng.normal(size=(4, 4)) @ np.eye(4) * 0.3 + np.eye(4))
        for alpha in (0.0, 0.7, 2.0):
            for eps in (0.3, 1.1):
                lhs = resolvent(G, alpha + eps).entries
                rhs = resolvent(resolvent(G, alpha), eps).entries
                assert_allclose(lhs, rhs, atol=1e-10)

    def test_commutes_with_base(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5))
        G = kernel(a @ a.T + 5 * np.eye(5))
        r = resolvent(G, 1.3).entries
        assert_allclose(r @ G.entries, G.entries @ r, atol=1e-9)

    def test_psd_preserved(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4))
        G = kernel(a @ a.T)
        for alpha in (0.5, 2.0, 5.0):
            assert real_eigen_nonneg(resolvent(G, alpha)).holds

    def test_negative_alpha_rejected(self):
        with pytest.raises(InputFormatError):
            resolvent(kernel(np.eye(2)), -0.5)

    def test_singular_shift_raises(self):
        with pytest.raises(SingularMatrixError):
            resolvent(kernel([[-1.0]]), 1.0)

    def test_stacked_grid_matches_each_alpha_bitwise(self):
        rng = np.random.default_rng(64)
        alphas = [0.0, 0.1, 0.5, 1.0, 2.5, 5.0]
        for n in (1, 2, 3, 5, 8):
            a = rng.normal(size=(n, n))
            for G in (kernel(a @ a.T), kernel(a @ a.T + 0.3 * a, symmetric=False)):
                stack = _resolvents(G, alphas)
                for alpha, r in zip(alphas, stack):
                    assert np.array_equal(r, resolvent(G, alpha).entries)

    def test_alpha_zero_keeps_every_bit(self):
        G = kernel([[1.0, -0.0], [0.5, 2.0]])
        assert resolvent(G, 0.0).entries.tobytes() == G.entries.tobytes()

    def test_stacked_grid_stops_at_first_bad_alpha(self):
        # I + G is singular and -1 is negative: the grid raises the error
        # of whichever comes first, as a loop of resolvent calls would
        G = kernel([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(SingularMatrixError) as one:
            resolvent(G, 1.0)
        with pytest.raises(SingularMatrixError) as grid:
            _resolvents(G, [0.0, 0.5, 1.0, -1.0])
        assert str(grid.value) == str(one.value)
        assert grid.value.cond_estimate == one.value.cond_estimate
        with pytest.raises(InputFormatError, match=r"^resolvent requires alpha >= 0$"):
            _resolvents(G, [0.5, -1.0, 1.0])

    def test_truncated_series_converges(self):
        # resolvent(G, alpha+eps) = sum_k (-1)^k eps^k G_alpha^(k+1)
        G = kernel([[1.0, 0.4], [0.4, 0.8]])
        alpha, eps = 1.0, 0.3
        ga = resolvent(G, alpha).entries
        assert eps < 1.0 / np.linalg.norm(ga, np.inf)
        target = resolvent(G, alpha + eps).entries
        acc = np.zeros_like(ga)
        term = ga.copy()
        errs = []
        for k in range(30):
            acc += (-eps) ** k * term
            term = term @ ga
            errs.append(np.max(np.abs(acc - target)))
        assert errs[-1] < 1e-12
        assert errs[-1] < errs[4] < errs[0]


class TestRealEigenNonneg:
    def test_identity_holds(self):
        assert real_eigen_nonneg(kernel(np.eye(4))).holds

    def test_rotation_vacuous(self):
        # eigenvalues +-i: no real eigenvalue, condition holds vacuously
        assert real_eigen_nonneg(kernel([[0.0, 1.0], [-1.0, 0.0]])).holds

    def test_negative_scalar_fails(self):
        v = real_eigen_nonneg(kernel([[-1.0]]))
        assert v.fails
        assert v.witness["eigenvalue"]["re"] == pytest.approx(-1.0)


class TestIsMMatrix:
    """is_green's M-matrix sign tests, on kernels whose inverse is the
    matrix named."""

    def test_identity(self):
        assert is_green(kernel(np.eye(3))).holds

    def test_dominant_example(self):
        assert is_green(kernel(np.linalg.inv([[1.0, -0.4], [-0.4, 1.0]]))).holds

    def test_positive_off_diagonal_fails(self):
        v = is_green(kernel(np.linalg.inv([[-1.0, 2.0], [2.0, -1.0]])))
        assert v.fails
        assert v.witness["entry"] == [0, 1]
        assert v.detail == "inverse has a positive off-diagonal entry"

    def test_negative_row_sum(self):
        v = is_green(kernel(np.linalg.inv([[1.0, -2.0], [0.0, 1.0]])))
        assert v.status == Verdict.HOLDS_UP_TO_DENSITY


def _sign_test_kernels(seed: int, count: int):
    """Seeded n = 2..8 kernels: plain, symmetric (only triples can fail)
    and sign-symmetric sigma|B|sigma (nothing fails), at scales 1e-3..1e3,
    with zeroed entries and entries shrunk to straddle the tolerance."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3)
        style = int(rng.integers(3))
        if style == 1:
            a = a + a.T
        elif style == 2:
            s = rng.choice([-1.0, 1.0], size=n)
            a = np.abs(a) * np.outer(s, s)
        a[rng.random((n, n)) < 0.2] = 0.0
        shrink = rng.random((n, n)) < 0.2
        a[shrink] *= rng.choice([1e-12, 1e-10, 1e-9], size=int(shrink.sum()))
        yield a


class TestSignProducts:
    def test_matches_loop_oracle(self):
        kinds = {None: 0, "pair": 0, "triple": 0}
        for a in _sign_test_kernels(31, 2500):
            got = sign_product_violation(a)
            assert got == naive_sign_product_violation(a, TOL_ALGEBRAIC), a
            kinds[None if got is None else got[0]] += 1
        assert min(kinds.values()) >= 300, kinds

    def test_first_violation_in_canonical_order(self):
        g = np.array([[3.0, 1.0, -1.0], [1.0, 3.0, 1.0], [-1.0, 1.0, 3.0]])
        assert sign_product_violation(g) == ("triple", (0, 1, 2), -1.0)
        g[2, 1] = -1.0
        assert sign_product_violation(g) == ("pair", (1, 2), -1.0)

    def test_within_tolerance_passes(self):
        g = np.array([[1.0, 1e-6], [-1e-6, 1.0]])
        assert sign_product_violation(g) is None


class TestIsMMatrixOracle:
    def test_matches_loop_oracle(self):
        # is_green on kernels whose inverse is a seeded matrix, at scales
        # 1e-3..1e3; it tests invert's inverse, so the loop oracle runs on
        # that inverse too
        rng = np.random.default_rng(33)
        outcomes = {"off": 0, "row": 0, "both hold": 0}
        for a in _sign_test_kernels(32, 2500):
            n = a.shape[0]
            # an M-matrix by column dominance, so its inverse is a
            # nonnegative kernel and some row sums may be negative ...
            m = -np.abs(a) * (1.0 - np.eye(n))
            np.fill_diagonal(m, np.abs(m).sum(axis=0) * rng.uniform(1.01, 1.5)
                             + 0.01 * np.max(np.abs(a)))
            # ... with positive off-diagonals around the tolerance
            flip = (rng.random((n, n)) < 0.3) & (m < 0)
            m[flip] *= -rng.choice([1e-11, 1e-10, 1e-9])
            G = kernel(np.linalg.inv(m))
            v = is_green(G)
            if np.min(G.entries) < -TOL_ALGEBRAIC * np.max(np.abs(G.entries)):
                assert v.detail == "negative entry"  # the inverse is not tested
                continue
            off, row = naive_m_matrix_witnesses(invert(G).entries, TOL_ALGEBRAIC)
            assert v.witness == off
            assert v.status == (Verdict.FAILS if off else
                                Verdict.HOLDS_UP_TO_DENSITY if row else Verdict.HOLDS)
            outcomes["off" if off else "row" if row else "both hold"] += 1
        assert min(outcomes.values()) >= 300, outcomes


class TestSignature:
    def test_validation(self):
        with pytest.raises(InputFormatError):
            Signature(np.array([1.0, 0.5]))


class TestMatrixIO:
    def test_csv_round_trip(self, tmp_path):
        G = kernel([[1.25, -0.5], [-0.5, 2.0]])
        path = tmp_path / "g.csv"
        save_matrix(G, path)
        back = load_matrix(path)
        assert_allclose(back.entries, G.entries)
        assert back.symmetric

    def test_json_parse(self):
        text = json.dumps(
            {"dim": 2, "symmetric": True, "entries": [[1, 0.5], [0.5, 1]]})
        G = loads_matrix(text)
        assert G.dim == 2 and G.symmetric
        assert_allclose(G.entries, [[1, 0.5], [0.5, 1]])

    def test_json_dim_mismatch(self):
        with pytest.raises(InputFormatError):
            loads_matrix('{"dim": 3, "entries": [[1, 0], [0, 1]]}')

    def test_ragged_rows_rejected(self):
        with pytest.raises(InputFormatError):
            loads_matrix("1,2\n3\n")
        with pytest.raises(InputFormatError):
            loads_matrix('{"entries": [[1, 2], [3]]}')

    def test_nonfinite_rejected(self):
        with pytest.raises(InputFormatError):
            loads_matrix("1,inf\n0,1\n")

    def test_bad_cell_rejected(self):
        with pytest.raises(InputFormatError):
            loads_matrix("1,a\n0,1\n")

    def test_empty_rejected(self):
        with pytest.raises(InputFormatError):
            loads_matrix("  \n")

    def test_dumps_precision(self):
        G = kernel([[1.0 / 3.0]])
        assert loads_matrix(dumps_matrix(G)).entries[0, 0] == G.entries[0, 0]
