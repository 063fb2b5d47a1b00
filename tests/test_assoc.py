import math
import tracemalloc

import numpy as np
import pytest

from permacheck import (
    IncreasingFunctionFamily,
    InputFormatError,
    KernelMatrix,
    NonFiniteError,
    NotPSDError,
    PermanentalSpec,
    SingularMatrixError,
    abs_product_moment,
    association_mc_test,
    default_family,
    fkg_lattice_test,
    kernel,
    marginal_quantile_grid,
    random_scalings,
    resolvent,
    resolvent_monotonicity_scan,
    sample_gaussian,
    sample_permanental,
    shifted_strong_order_test,
    squared_pair_density,
)
from oracles import (
    loop_random_scalings,
    mc_mean_se,
    fsum_association_rows,
    naive_cross_lattice,
    naive_default_family,
    naive_monotonicity_scan,
    random_green,
)
import permacheck.sampler as sampler
from permacheck.assoc import _column_quantiles, _cross_lattice_check
from permacheck.defaults import (
    JACKKNIFE_BLOCKS,
    LATTICE_REL_TOL,
    MONOTONE_TOL,
    ORTHANT_QUANTILES,
    SOFT_INDICATOR_SLOPE,
    Z_THRESHOLD,
)

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

    def test_soft_orthant_allocates_under_three_columns(self):
        rng = np.random.default_rng(8)
        spec = PermanentalSpec(kernel(random_green(rng, 4, symmetric=True)), 2.0)
        x = sample_permanental(spec, 100_000, seed=8).draws
        soft = dict(default_family(x).members)["soft_orthant"]
        soft(x[:10])  # imports outside the trace
        tracemalloc.start()
        try:
            soft(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * x.shape[0] * x.itemsize

    def test_soft_orthant_follows_the_kernel_scale(self):
        x = np.random.default_rng(53).exponential(size=(200, 3))

        def soft(draws, variance=1.0):
            return dict(default_family(draws, variance).members)["soft_orthant"](draws)

        for k in (-300, -1, 1, 300):
            assert np.array_equal(soft(np.ldexp(x, 2 * k), math.ldexp(1.5, 2 * k)),
                                  soft(x, 1.5)), k
        # a largest variance in [0.5, 2) keeps SOFT_INDICATOR_SLOPE itself
        assert np.array_equal(soft(x, 0.5), soft(x))
        assert np.array_equal(soft(x, 1.99), soft(x))
        assert not np.array_equal(soft(x, 2.0), soft(x))

    def test_thresholds_allocate_under_two_columns(self, monkeypatch):
        # one np.quantile call over all columns would copy the whole matrix;
        # column by column, each worker copies one column at a time
        rng = np.random.default_rng(9)
        spec = PermanentalSpec(kernel(random_green(rng, 4, symmetric=True)), 2.0)
        x = sample_permanental(spec, 100_000, seed=9).draws
        default_family(x[:10])
        for workers in (1, 2):
            monkeypatch.setattr(sampler, "_WORKERS", workers)
            tracemalloc.start()
            try:
                default_family(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < (workers + 1) * x.shape[0] * x.itemsize, workers

    @pytest.mark.parametrize("variance", [math.nan, 0.0, -4.0, math.inf])
    def test_variance_not_positive_and_finite_rejected(self, variance):
        # NaN and 0 gave the slope SOFT_INDICATOR_SLOPE, and -4 that of 4
        x = np.abs(np.random.default_rng(52).normal(size=(100, 2)))
        with pytest.raises(InputFormatError):
            default_family(x, variance)

    def test_zero_kernel_holds(self):
        spec = PermanentalSpec(kernel(np.zeros((2, 2))), 2.0)
        assert association_mc_test(spec, n_draws=200, seed=1).verdict.holds

    def test_tiny_reference_rejected(self):
        with pytest.raises(InputFormatError):
            default_family(np.ones((5, 2)))


class TestAssociationMC:
    def test_memory_beyond_the_draws_is_a_column_per_worker_and_a_few_blocks(
            self, monkeypatch):
        # each running quantile task copies one column, and each running
        # statistics task fills one value array of four jackknife blocks
        rng = np.random.default_rng(10)
        spec = PermanentalSpec(kernel(random_green(rng, 4, symmetric=True)), 2.0)
        n = 200_000
        for workers in (1, 2):
            monkeypatch.setattr(sampler, "_WORKERS", workers)
            association_mc_test(spec, n_draws=1000, seed=10)  # imports outside the trace
            tracemalloc.start()
            try:
                association_mc_test(spec, n_draws=n, seed=10)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= n * 4 * 8 + (workers + 0.5) * n * 8, (workers, peak)

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


PROJ_0 = ("proj_0", lambda x: x[:, 0])
# a strided projection, a decreasing member (its pairs can fail with a
# witness) and a constant one (se = 0, so z = 0.0)
CUSTOM_MEMBERS = (
    ("proj_last", lambda x: x[:, -1]),
    ("total", lambda x: x.sum(axis=1)),
    ("neg_proj_0", lambda x: -x[:, 0]),
    ("zero", lambda x: np.zeros(len(x))),
)


# members that write to the draws they are given, three ways
def _shift_in_place(x):
    x -= 1.0
    return x[:, 0]


def _log_in_place(x):
    return np.log1p(x, out=x)[:, 1]


def _set_entry(x):
    x[0, 0] = 0.0
    return x[:, 0]


def _enable_writes(x):
    x.flags.writeable = True
    x[:, 0] = 0.0
    return x[:, 1]


class TestAssociationOracle:
    """Reports agree with correctly rounded sums within a derived bound."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_reports_match_per_pair_oracle(self, n, k):
        rng = np.random.default_rng(100 * n + k)
        spec = PermanentalSpec(kernel(random_green(rng, n, symmetric=True)), 2.0 / k)
        statuses, zero_se = set(), 0
        # the soft orthant's slope follows the kernel's scale, as in _pair_lattice
        variance = float(np.max(np.diagonal(spec.kernel.entries)))
        slope = math.ldexp(SOFT_INDICATOR_SLOPE, -2 * (math.frexp(variance)[1] // 2))
        # 10 and 150 draws make blocks of one; 200 divides neither 12_345 nor 150
        for n_draws in (10, 150, 12_345, 10 ** 5):
            seed = int(rng.integers(1 << 32))
            draws = sample_permanental(spec, n_draws, seed).draws
            naive = naive_default_family(draws, ORTHANT_QUANTILES, slope)
            for (name, f), (naive_name, g) in zip(default_family(draws, variance).members,
                                                  naive):
                assert name == naive_name
                assert np.array_equal(f(draws), g(draws)), name
            for family, members in ((None, naive),
                                    (IncreasingFunctionFamily(CUSTOM_MEMBERS),
                                     CUSTOM_MEMBERS)):
                got = association_mc_test(spec, family, n_draws, seed).to_dict()
                want = fsum_association_rows(draws, members, JACKKNIFE_BLOCKS)
                assert (got["n_draws"], got["seed"]) == (n_draws, seed)
                assert [(r["f"], r["h"]) for r in got["pairs"]] == \
                    [(r["f"], r["h"]) for r in want]
                for row, ref in zip(got["pairs"], want):
                    assert abs(row["cov"] - ref["cov"]) <= ref["cov_tol"], (row, ref)
                    assert abs(row["se"] - ref["se"]) <= ref["se_tol"], (row, ref)
                    assert (row["se"] == 0.0) == (ref["se"] == 0.0), (row, ref)
                    assert row["z"] == (row["cov"] / row["se"] if row["se"] > 0 else 0.0)
                verdict = got["verdict"]
                bad = [r for r in want if r["z"] <= Z_THRESHOLD]
                assert verdict["status"] == ("fails" if bad else "holds")
                if bad:
                    assert verdict["witness"]["pair"] == [bad[0]["f"], bad[0]["h"]]
                statuses.add(verdict["status"])
                zero_se += sum(row["se"] == 0.0 for row in got["pairs"])
        assert statuses == {"holds", "fails"}
        assert zero_se > 0

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_column_quantiles_match_one_call(self, n, k):
        rng = np.random.default_rng(100 * n + k)
        spec = PermanentalSpec(kernel(random_green(rng, n, symmetric=True)), 2.0 / k)
        levels = ORTHANT_QUANTILES + (0.5,)
        for n_draws in (10, 150, 12_345, 10 ** 5):
            x = sample_permanental(spec, n_draws, int(rng.integers(1 << 32))).draws
            want = np.quantile(x, levels, axis=0)
            assert _column_quantiles(x, levels).tobytes() == want.tobytes()

    def test_column_quantiles_match_numpy_with_ties(self, monkeypatch):
        # every count from 10 to 5000, on one and two workers in turn;
        # columns with many ties, some ties and no ties, and levels at both
        # ends, where numpy's virtual index reaches the last entry
        rng = np.random.default_rng(71)
        levels = (0.0, 0.25, 0.5, 0.75, 0.5, 1.0, 0.1, 0.9)
        for n_draws in range(10, 5001):
            monkeypatch.setattr(sampler, "_WORKERS", 1 + n_draws % 2)
            x = np.empty((n_draws, 3))
            x[:, 0] = rng.integers(0, 4, n_draws)
            x[:, 1] = rng.integers(-n_draws // 3, n_draws // 3 + 1, n_draws)
            x[:, 2] = rng.standard_normal(n_draws)
            want = np.quantile(x, levels, axis=0)
            assert _column_quantiles(x, levels).tobytes() == want.tobytes(), n_draws

    def test_column_quantiles_match_numpy_at_a_million(self):
        rng = np.random.default_rng(72)
        x = np.empty((10 ** 6, 3))
        x[:, 0] = rng.integers(0, 1000, 10 ** 6)
        x[:, 1] = rng.exponential(size=10 ** 6)
        x[:, 2] = -x[:, 1]
        levels = ORTHANT_QUANTILES + (0.5,)
        want = np.quantile(x, levels, axis=0)
        assert _column_quantiles(x, levels).tobytes() == want.tobytes()

    def test_column_quantiles_of_a_column_with_nan_are_numpys(self):
        x = np.random.default_rng(73).standard_normal((100, 3))
        x[5, 1] = np.nan
        levels = ORTHANT_QUANTILES + (0.5,)
        want = np.quantile(x, levels, axis=0)
        assert _column_quantiles(x, levels).tobytes() == want.tobytes()
        assert np.isnan(want[:, 1]).all()

    @pytest.mark.parametrize("n", [2, 4])
    def test_reports_do_not_depend_on_the_worker_count(self, n, monkeypatch):
        rng = np.random.default_rng(400 + n)
        spec = PermanentalSpec(kernel(random_green(rng, n, symmetric=True)), 1.0)
        # one to four tasks of jackknife blocks, one with a short last task,
        # and blocks of one draw
        for n_draws in (10, 150, 12_345, 10 ** 5):
            for family in (None, IncreasingFunctionFamily(CUSTOM_MEMBERS)):
                reports = []
                for workers in (1, 2):
                    monkeypatch.setattr(sampler, "_WORKERS", workers)
                    reports.append(repr(association_mc_test(spec, family, n_draws, 61)))
                assert reports[0] == reports[1], (n_draws, family)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_bad_block_then_member_is_named(self, workers, monkeypatch):
        # a task evaluates four blocks at once; the error still names the
        # member that a block-by-block pass meets first: "late" is infinite
        # on block 0's draws, "early" is NaN on the draws from block 2 on
        monkeypatch.setattr(sampler, "_WORKERS", workers)
        spec, n_draws = PermanentalSpec(G2, 2.0), 10 * JACKKNIFE_BLOCKS
        x0 = sample_permanental(spec, n_draws, 57).draws[:, 0]
        members = (PROJ_0,
                   ("early", lambda x: np.where(np.isin(x[:, 0], x0[20:]), np.nan, x[:, 0])),
                   ("late", lambda x: np.where(np.isin(x[:, 0], x0[:10]), np.inf, x[:, 0])))
        with pytest.raises(InputFormatError, match="'late'"):
            association_mc_test(spec, IncreasingFunctionFamily(members), n_draws, 57)

    @pytest.mark.parametrize("members, n_draws", [
        ((PROJ_0, ("nan", lambda x: np.full(len(x), np.nan))), 1000),
        ((PROJ_0, ("inf_tail", lambda x: np.where(x[:, 0] > 1.0, np.inf, x[:, 0]))), 1000),
        ((PROJ_0, ("short", lambda x: x[1:, 0])), 1000),
        ((PROJ_0,), 1000),
        ((PROJ_0, CUSTOM_MEMBERS[0]), 1),
    ], ids=["nan member", "infinite on some draws", "length N-1", "one member",
            "one draw"])
    def test_bad_inputs_rejected_before_pairs(self, members, n_draws):
        with pytest.raises(InputFormatError):
            association_mc_test(PermanentalSpec(G2, 2.0),
                                IncreasingFunctionFamily(members), n_draws, 57)

    @pytest.mark.parametrize("member", [_shift_in_place, _log_in_place, _set_entry,
                                        _enable_writes])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_member_that_writes_to_its_draws_rejected(self, member, workers, monkeypatch):
        # members get read-only views of the draws, so the draws other members
        # see stay as sampled; a write is named as the member's fault
        monkeypatch.setattr(sampler, "_WORKERS", workers)
        members = (PROJ_0, ("writer", member))
        with pytest.raises(InputFormatError, match="'writer' must not write"):
            association_mc_test(PermanentalSpec(G2, 2.0),
                                IncreasingFunctionFamily(members), 20_000, 57)

    def test_member_error_that_is_not_a_write_passes_through(self):
        def bad(x):
            raise ValueError("a member's own error")

        with pytest.raises(ValueError, match="own error"):
            association_mc_test(PermanentalSpec(G2, 2.0),
                                IncreasingFunctionFamily((PROJ_0, ("bad", bad))), 1000, 57)


class TestFkgLattice:
    def test_product_density_holds_with_equality(self):
        assert fkg_lattice_test(kernel(np.diag([1.0, 2.0]))).holds

    def test_squared_pair_holds_both_correlation_signs(self):
        for rho in (0.5, -0.5):
            assert fkg_lattice_test(kernel([[1.0, rho], [rho, 1.0]])).holds

    def test_two_bump_mixture_fails(self):
        # mass on (1,3) and (3,1) only: anti-diagonal dependence
        def h(s, t):
            s, t = np.asarray(s, float), np.asarray(t, float)
            b1 = np.exp(-0.5 * ((s - 1) ** 2 + (t - 3) ** 2) / 0.09)
            b2 = np.exp(-0.5 * ((s - 3) ** 2 + (t - 1) ** 2) / 0.09)
            return b1 + b2

        g = np.array([1.0, 3.0])
        F = h(g[:, None], g[None, :])
        witness = _cross_lattice_check(F, F, g, g, LATTICE_REL_TOL)
        assert witness is not None
        assert witness["lhs"] > witness["rhs"]

    def test_bad_grid_rejected(self):
        # past |r| / sqrt(variance) = 2^33 float64 cannot place the grid
        with pytest.raises(NonFiniteError):
            fkg_lattice_test(kernel([[1.0, -0.5], [-0.5, 1.0]]), 1e10)


class TestCrossLatticeOracle:
    def test_witness_matches_loop_oracle(self):
        # seeded 2x2 kernels of either correlation sign, each giving an
        # (F, F) lattice of the FKG test and an (F_r, F_r') lattice of the
        # strong-order test on every third point of the quantile grids;
        # the first violation must be the loop's
        rng = np.random.default_rng(71)
        outcomes = []
        for _ in range(30):
            v = rng.uniform(0.5, 2.0, 2)
            c = rng.uniform(-0.9, 0.9) * np.sqrt(v[0] * v[1])
            g = np.array([[v[0], c], [c, v[1]]])
            r = float(rng.uniform(0.0, 2.0))
            rp = float(rng.uniform(0.0, r))
            gx, gy = (marginal_quantile_grid(vi, r)[::3] for vi in v)
            f_r = squared_pair_density(g, r)(gx[:, None], gy[None, :])
            f_rp = squared_pair_density(g, rp)(gx[:, None], gy[None, :])
            for f_hi, f_lo in ((f_r, f_r), (f_r, f_rp)):
                got = _cross_lattice_check(f_hi, f_lo, gx, gy, LATTICE_REL_TOL)
                assert got == naive_cross_lattice(f_hi, f_lo, gx, gy, LATTICE_REL_TOL)
                outcomes.append(got is None)
        assert 10 <= sum(outcomes) <= len(outcomes) - 10, sum(outcomes)


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

    def test_bad_alpha_grids_rejected(self):
        nan, inf = float("nan"), float("inf")
        for alphas in ([], [nan], [0.0, nan], [0.0, inf]):
            with pytest.raises(InputFormatError):
                resolvent_monotonicity_scan(G2, alphas=alphas)


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
    ])
    def test_errors_match_loop_oracle(self, g, d, error, message):
        d_set = [np.array(d)]
        with pytest.raises(error) as new:
            resolvent_monotonicity_scan(kernel(g), alphas=self.ALPHAS, D_set=d_set)
        with pytest.raises(error) as old:
            _loop_scan(np.array(g), self.ALPHAS, d_set)
        assert str(new.value) == str(old.value)
        assert str(new.value).startswith(message)

    # A PSD kernel with G_ii = 0 has row i = 0, since G_ij^2 <= G_ii G_jj;
    # then row i of (I + alpha*G)^-1 G is 0 at every alpha too.  So eta_i is
    # identically 0, the moments of its pairs are 0 along the grid, and the
    # scan is the scan of the other coordinates' block.
    @pytest.mark.parametrize("g, d", [
        ([[0.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]], [1.0, 1.0, 1.0]),
        # one live coordinate: no pair is left, and the scaling that made
        # I + alpha*DGD ill-conditioned only scales that coordinate
        ([[0.0, 0.0], [0.0, 1.0]], [1.0, 1e7]),
    ])
    def test_zero_variance_kernels_hold(self, g, d):
        v = resolvent_monotonicity_scan(kernel(g), alphas=self.ALPHAS,
                                        D_set=[np.array(d)])
        assert v.holds

    def test_zero_variance_coordinate_matches_live_block(self):
        rng = np.random.default_rng(65)
        fails = 0
        for case in range(60):
            n = int(rng.integers(2, 5)) if case % 2 else 3
            g = _mixed_sign_kernel(rng, n)
            zero = int(rng.integers(0, n + 1))
            full = np.insert(np.insert(g, zero, 0.0, axis=0), zero, 0.0, axis=1)
            d_set = random_scalings(n + 1, 20, seed=2000 + case)
            v = resolvent_monotonicity_scan(kernel(full), alphas=self.ALPHAS, D_set=d_set)
            witness = _loop_scan(g, self.ALPHAS, [np.delete(d, zero) for d in d_set])
            if witness is None:
                assert v.holds, case
                continue
            fails += 1
            got = dict(v.witness)
            assert got.pop("increase") == pytest.approx(witness.pop("increase"),
                                                         rel=1e-12, abs=0), case
            # the report keeps the full scaling and the kernel's own indices
            witness["scaling"] = [float(x) for x in d_set[witness["scaling_index"]]]
            witness["pair"] = [i + (i >= zero) for i in witness["pair"]]
            assert got == witness, case
        assert fails >= 5

    def test_correlation_rounded_past_one_is_clipped(self):
        # eigenvalues 2 + 1e-10 and -1e-10 pass the PSD screen (floor 1e-9
        # max|G|), and rho = 1 + 1e-10 is 1 within it.  The kernel is the
        # all-ones J up to that size, whose resolvent J / (1 + 2 alpha) falls.
        g = [[1.0, 1 + 1e-10], [1 + 1e-10, 1.0]]
        assert resolvent_monotonicity_scan(kernel(g)).holds

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

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_one_draw_matches_per_row_loop(self, n):
        for count, seed in ((1, 0), (2, 58), (7, 2 ** 64 - 1), (1000, 20260814)):
            got = random_scalings(n, count, seed)
            want = loop_random_scalings(n, count, seed)
            assert len(got) == count
            assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))

    def test_bad_arguments(self):
        with pytest.raises(InputFormatError):
            random_scalings(0, 1, seed=1)
        with pytest.raises(InputFormatError):
            random_scalings(2, 0, seed=1)
        # -1 and 2**64 raised a bare OverflowError, and 1.5 was truncated to 1
        for seed in (-1, 2 ** 64, 1.5):
            with pytest.raises(InputFormatError):
                random_scalings(2, 3, seed=seed)


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
