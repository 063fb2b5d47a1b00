import json
import math
import os
import stat
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from permacheck import (
    InputFormatError,
    InvalidIndexError,
    NonFiniteError,
    PermacheckError,
    PermanentalSpec,
    abs_product_moment,
    association_mc_test,
    empirical_laplace,
    kernel,
    laplace_transform,
    load_batch,
    resolvent,
    sample_gaussian,
    sample_permanental,
    save_batch,
    tilt_resolvent,
)
import permacheck.sampler as sampler
from permacheck.sampler import (_BLOCK_ROWS, _in_pool, _row_blocks, _sqrt_factor,
                                _stream_permanental)
from oracles import (
    mc_abs_product_moment,
    mc_mean_se,
    naive_abs_product_moment,
    oneshot_gaussian_draws,
    oneshot_permanental_draws,
    random_pd_kernel,
)

G2 = kernel([[1.0, 0.5], [0.5, 1.0]])
# around one and two blocks of rows, and many blocks with a short tail
BLOCK_COUNTS = (1, 2, 3, 8191, 8192, 8193, 16_385, 200_003)


def _kernels(n: int) -> list:
    """A positive definite kernel and, for n >= 2, a PSD-singular one."""
    rng = np.random.default_rng(300 + n)
    mats = [random_pd_kernel(rng, n)]
    if n >= 2:
        b = rng.normal(size=(n, n - 1))
        g = b @ b.T
        mats.append(0.5 * (g + g.T))
    return [kernel(g) for g in mats]


class TestReproducibility:
    def test_same_seed_same_bits(self):
        a = sample_gaussian(G2, 1000, seed=42)
        b = sample_gaussian(G2, 1000, seed=42)
        assert np.array_equal(a.draws, b.draws)

    def test_different_seed_differs(self):
        a = sample_gaussian(G2, 1000, seed=42)
        b = sample_gaussian(G2, 1000, seed=43)
        assert not np.array_equal(a.draws, b.draws)

    def test_permanental_reproducible(self):
        spec = PermanentalSpec(G2, 1.0)
        a = sample_permanental(spec, 500, seed=7)
        b = sample_permanental(spec, 500, seed=7)
        assert np.array_equal(a.draws, b.draws)

    def test_seeds_up_to_two_to_the_64_key_philox_exactly(self):
        # a tuple key once sent 2**63 + 1 to 2**63, and 2**64 - 2 and
        # 2**64 - 1 to 0 with a RuntimeWarning
        spec = PermanentalSpec(G2, 1.0)
        seeds = (0, 2 ** 63, 2 ** 63 + 1, 2 ** 64 - 2, 2 ** 64 - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batches = {sample_permanental(spec, 20_000, seed).draws.tobytes() for seed in seeds}
        assert len(batches) == len(seeds)


    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, "7", True])
    def test_seed_outside_uint64_rejected(self, seed):
        # -1 raised a bare OverflowError, 1.5 was truncated to 1 and True read as 1
        spec = PermanentalSpec(G2, 2.0)
        for call in (lambda: sample_permanental(spec, 10, seed),
                     lambda: sample_gaussian(G2, 10, seed),
                     lambda: association_mc_test(spec, n_draws=100, seed=seed)):
            with pytest.raises(InputFormatError):
                call()


class TestRowBlocks:
    """The row-block sampler draws the bits of the one-shot sampler."""

    def test_blocks_tile_rows_near_equally(self):
        for n_rows in [*range(1, 40), *BLOCK_COUNTS, 16_384, 16_386, 24_577]:
            blocks = _row_blocks(n_rows)
            sizes = [b.stop - b.start for b in blocks]
            assert blocks[0].start == 0 and blocks[-1].stop == n_rows
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            assert max(sizes) <= _BLOCK_ROWS and max(sizes) - min(sizes) <= 1
            # a one-row block would go to gemv, whose bits can differ from gemm's
            assert min(sizes) >= min(2, n_rows), n_rows

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_permanental_bits_match_one_shot_sampler(self, n, k):
        for G in _kernels(n):
            spec = PermanentalSpec(G, 2.0 / k)
            for n_draws in BLOCK_COUNTS:
                want = oneshot_permanental_draws(_sqrt_factor(G), k, n_draws, n_draws + k)
                got = sample_permanental(spec, n_draws, seed=n_draws + k).draws
                assert got.tobytes() == want.tobytes(), (G.entries.tolist(), n_draws)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gaussian_bits_match_one_shot_sampler(self, n):
        for G in _kernels(n):
            for n_draws in BLOCK_COUNTS:
                want = oneshot_gaussian_draws(_sqrt_factor(G), n_draws, n_draws)
                got = sample_gaussian(G, n_draws, seed=n_draws).draws
                assert got.tobytes() == want.tobytes(), (G.entries.tolist(), n_draws)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_bits_match_one_shot_sampler_at_any_worker_count(self, n, workers, monkeypatch):
        monkeypatch.setattr(sampler, "_WORKERS", workers)
        for G in _kernels(n):
            spec = PermanentalSpec(G, 2.0 / 3)
            for n_draws in BLOCK_COUNTS:
                want = oneshot_permanental_draws(_sqrt_factor(G), 3, n_draws, n_draws)
                want_eta = oneshot_gaussian_draws(_sqrt_factor(G), n_draws, n_draws)
                got = sample_permanental(spec, n_draws, seed=n_draws).draws
                assert got.tobytes() == want.tobytes(), (G.entries.tolist(), n_draws)
                got = sample_gaussian(G, n_draws, seed=n_draws).draws
                assert got.tobytes() == want_eta.tobytes(), (G.entries.tolist(), n_draws)

    def test_permanental_memory_is_output_plus_one_block(self, monkeypatch):
        # plus one block per worker: the 25 blocks run on the pool
        monkeypatch.setattr(sampler, "_WORKERS", 2)
        spec = PermanentalSpec(_kernels(6)[0], 1.0)
        sample_permanental(spec, 10, seed=1)  # imports outside the trace
        tracemalloc.start()
        try:
            batch = sample_permanental(spec, 200_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (k, N, n) normal stack alone would be 1.7 times psi and weights
        assert peak < 1.5 * (batch.draws.nbytes + batch.weights.nbytes)


class TestWorkerPool:
    def test_bits_hold_with_more_workers_than_cpus(self, monkeypatch, tmp_path):
        # eight workers switching every microsecond: a block written to
        # another block's rows or file bytes, or a lost update, would
        # change the bits
        spec = PermanentalSpec(_kernels(5)[0], 2.0 / 3)

        def outputs():
            _stream_permanental(spec, 100_003, 3, tmp_path / "x.bin")
            return (sample_permanental(spec, 100_003, seed=3).draws.tobytes(),
                    sample_gaussian(spec.kernel, 100_003, seed=3).draws.tobytes(),
                    repr(association_mc_test(spec, n_draws=100_003, seed=3)),
                    (tmp_path / "x.bin").read_bytes())

        monkeypatch.setattr(sampler, "_WORKERS", 1)
        want = outputs()
        monkeypatch.setattr(sampler, "_WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = outputs()
        finally:
            sys.setswitchinterval(interval)
        assert got == want


class TestPool:
    """_in_pool keeps the serial loop's results, exception and error state."""

    @pytest.mark.parametrize("workers", [2, 8])
    def test_results_keep_item_order(self, workers, monkeypatch):
        monkeypatch.setattr(sampler, "_WORKERS", workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _in_pool(lambda i: (time.sleep(0.001 * (i % 3)), i * i)[1], range(40))
        finally:
            sys.setswitchinterval(interval)
        assert got == [i * i for i in range(40)]

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_lowest_index_exception_is_raised(self, workers, monkeypatch):
        # item 7 raises first in time; item 3 raises later, and a serial
        # loop would meet it first
        monkeypatch.setattr(sampler, "_WORKERS", workers)
        ran = []

        def fn(i):
            if i == 3:
                time.sleep(0.05)
            ran.append(i)
            if i in (3, 7):
                raise ValueError(i)
            return i

        with pytest.raises(ValueError) as info:
            _in_pool(fn, range(12))
        assert info.value.args == (3,)
        # every item before the one that raised ran to its end
        assert set(range(4)) <= set(ran)

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_calls_run_under_the_callers_errstate(self, workers, monkeypatch):
        monkeypatch.setattr(sampler, "_WORKERS", workers)
        with np.errstate(over="raise", invalid="ignore", divide="warn", under="ignore"):
            want = np.geterr()
            assert _in_pool(lambda _: np.geterr(), range(6)) == [want] * 6
            with pytest.raises(FloatingPointError):
                _in_pool(lambda x: np.float64(1e308) * x, [1.0, 10.0, 1.0])
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isinf(_in_pool(lambda x: np.float64(1e308) * x, [10.0, 10.0])).all()

    def test_empty_and_single_item(self, monkeypatch):
        monkeypatch.setattr(sampler, "_WORKERS", 2)
        assert _in_pool(lambda x: x + 1, []) == []
        assert _in_pool(lambda x: x + 1, [1]) == [2]


class TestStreamedBatch:
    """_stream_permanental writes save_batch(sample_permanental(...))'s bytes."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_file_is_the_saved_batch(self, n, k, tmp_path, monkeypatch):
        spec = PermanentalSpec(_kernels(n)[0], 2.0 / k)
        want_path, got_path = tmp_path / "want.bin", tmp_path / "got.bin"
        for n_draws in (1, 2, 8191, 8193, 12_345, 10 ** 5):
            for seed in (0, 2 ** 64 - 1):
                batch = sample_permanental(spec, n_draws, seed)
                save_batch(batch, want_path)
                want = want_path.read_bytes()
                for workers in (1, 2):
                    monkeypatch.setattr(sampler, "_WORKERS", workers)
                    assert (_stream_permanental(spec, n_draws, seed, got_path)
                            == (n_draws, batch.ess))
                    assert got_path.read_bytes() == want, (n_draws, seed, workers)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["got.bin", "want.bin"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_overflow_leaves_the_path_as_it_was(self, workers, tmp_path, monkeypatch):
        monkeypatch.setattr(sampler, "_WORKERS", workers)
        spec = PermanentalSpec(kernel(1e308 * np.eye(2)), 2.0)
        path = tmp_path / "x.bin"
        for before in (None, b"an earlier batch"):
            if before is not None:
                path.write_bytes(before)
            # one row block, and three on the pool
            for n_draws in (10, 20_000):
                with pytest.raises(NonFiniteError):
                    _stream_permanental(spec, n_draws, 1, path)
                assert (path.read_bytes() if path.exists() else None) == before
                assert [p.name for p in tmp_path.iterdir()] == ([] if before is None
                                                                 else ["x.bin"])

    def test_bad_arguments_write_nothing(self, tmp_path):
        path = tmp_path / "x.bin"
        spec = PermanentalSpec(G2, 2.0)
        for call in (lambda: _stream_permanental(spec, 0, 1, path),
                     lambda: _stream_permanental(spec, 10, -1, path),
                     lambda: _stream_permanental(PermanentalSpec(G2, 0.3), 10, 1, path)):
            with pytest.raises(InputFormatError):
                call()
        assert list(tmp_path.iterdir()) == []

    def test_out_keeps_its_mode_and_symlink(self, tmp_path):
        spec = PermanentalSpec(G2, 1.0)
        save_batch(sample_permanental(spec, 5000, 2), tmp_path / "want.bin")
        target, link = tmp_path / "target.bin", tmp_path / "link.bin"
        target.write_bytes(b"an earlier batch")
        target.chmod(0o640)
        link.symlink_to(target)
        _stream_permanental(spec, 5000, 2, link)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == (tmp_path / "want.bin").read_bytes()
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.bin", "target.bin",
                                                              "want.bin"]

    def test_out_with_another_link_is_written_in_place(self, tmp_path):
        # a new file renamed onto one name would leave the other name on
        # the old bytes; save_batch writes the shared inode, as before
        spec = PermanentalSpec(G2, 1.0)
        save_batch(sample_permanental(spec, 5000, 2), tmp_path / "want.bin")
        path, other = tmp_path / "x.bin", tmp_path / "y.bin"
        path.write_bytes(b"an earlier batch")
        os.link(path, other)
        inode = path.stat().st_ino
        assert _stream_permanental(spec, 5000, 2, path)[0] == 5000
        assert path.stat().st_ino == inode
        assert other.read_bytes() == (tmp_path / "want.bin").read_bytes()

    def test_out_in_a_missing_directory_samples_first(self, tmp_path):
        # the new file cannot be made there, so the batch is sampled in
        # memory first, as save_batch's route always did: an overflow is
        # reported before the missing directory
        path = tmp_path / "missing" / "x.bin"
        with pytest.raises(NonFiniteError):
            _stream_permanental(PermanentalSpec(kernel(1e308 * np.eye(2)), 2.0), 10, 1, path)
        with pytest.raises(FileNotFoundError):
            _stream_permanental(PermanentalSpec(G2, 2.0), 10, 1, path)
        assert list(tmp_path.iterdir()) == []

    def test_memory_is_a_few_blocks(self, tmp_path, monkeypatch):
        # no N x n array and no weights array: 200_000 draws of dimension 6
        # would be 9.6 MB, and a worker holds its reused normal and product
        # blocks and one fresh block of squared sums, 384 kB each
        monkeypatch.setattr(sampler, "_WORKERS", 2)
        spec = PermanentalSpec(_kernels(6)[0], 1.0)
        _stream_permanental(spec, 10, 1, tmp_path / "x.bin")  # imports outside the trace
        tracemalloc.start()
        try:
            _stream_permanental(spec, 200_000, 1, tmp_path / "x.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * _BLOCK_ROWS * 6 * 8


class TestDrawCount:
    @pytest.mark.parametrize("count", [2.5, 1e3 + 0.5, float("nan"), float("inf"),
                                       "10", None, 0, -3, 0.0, True])
    def test_count_not_a_positive_integer_rejected(self, count):
        # True read as 1
        spec = PermanentalSpec(G2, 2.0)
        for call in (lambda: sample_permanental(spec, count, 1),
                     lambda: sample_gaussian(G2, count, 1),
                     lambda: association_mc_test(spec, n_draws=count, seed=1)):
            with pytest.raises(InputFormatError):
                call()

    def test_whole_float_count_is_that_integer(self):
        spec = PermanentalSpec(G2, 1.0)
        batch = sample_permanental(spec, 1e3, 5)
        assert batch.n_draws == 1000
        assert batch.draws.tobytes() == sample_permanental(spec, 1000, 5).draws.tobytes()
        assert sample_gaussian(G2, np.float64(20.0), 5).n_draws == 20
        assert association_mc_test(spec, n_draws=1e3, seed=5).n_draws == 1000


class TestGaussianMoments:
    def test_variances_match_diagonal(self):
        g = kernel(np.diag([1.0, 4.0]))
        batch = sample_gaussian(g, 200_000, seed=1)
        for i, target in enumerate([1.0, 4.0]):
            mean, se = mc_mean_se(batch.draws[:, i] ** 2)
            assert abs(mean - target) <= 3 * se

    def test_cross_covariance(self):
        batch = sample_gaussian(G2, 200_000, seed=2)
        mean, se = mc_mean_se(batch.draws[:, 0] * batch.draws[:, 1])
        assert abs(mean - 0.5) <= 3 * se

    def test_zero_kernel_gives_zero_draws(self):
        batch = sample_gaussian(kernel(np.zeros((2, 2))), 100, seed=3)
        assert np.all(batch.draws == 0.0)


class TestPermanentalMoments:
    def test_k_property(self):
        assert PermanentalSpec(G2, 2.0).k == 1
        assert PermanentalSpec(G2, 1.0).k == 2
        assert PermanentalSpec(G2, 2.0 / 3.0).k == 3
        with pytest.raises(InvalidIndexError):
            PermanentalSpec(G2, 0.7).k

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_bad_index_beta_rejected(self, beta):
        with pytest.raises(InputFormatError):
            PermanentalSpec(G2, beta)

    def test_chi_square_marginal(self):
        # k = 1: psi_i = eta_i^2, mean G_ii, second moment 3 G_ii^2
        spec = PermanentalSpec(kernel([[2.0]]), 2.0)
        batch = sample_permanental(spec, 200_000, seed=4)
        mean, se = mc_mean_se(batch.draws[:, 0])
        assert abs(mean - 2.0) <= 3 * se
        m2, se2 = mc_mean_se(batch.draws[:, 0] ** 2)
        assert abs(m2 - 12.0) <= 3 * se2

    def test_exponential_marginal(self):
        # k = 2 on a 1-dim kernel: psi ~ Exp with mean 2 sigma^2
        spec = PermanentalSpec(kernel([[1.5]]), 1.0)
        batch = sample_permanental(spec, 200_000, seed=5)
        mean, se = mc_mean_se(batch.draws[:, 0])
        assert abs(mean - 3.0) <= 3 * se
        m2, se2 = mc_mean_se(batch.draws[:, 0] ** 2)
        assert abs(m2 - 18.0) <= 3 * se2

    def test_mean_scales_with_k(self):
        for k, beta in ((1, 2.0), (3, 2.0 / 3.0)):
            spec = PermanentalSpec(G2, beta)
            batch = sample_permanental(spec, 100_000, seed=6)
            mean, se = mc_mean_se(batch.draws[:, 0])
            assert abs(mean - k * 1.0) <= 3 * se


class TestLaplace:
    def test_exact_value_one_dim(self):
        assert laplace_transform(kernel([[1.0]]), 2.0, [1.0]) == \
            pytest.approx(2.0 ** -0.5)

    def test_matches_empirical(self):
        for beta in (2.0, 1.0, 2.0 / 3.0):
            spec = PermanentalSpec(G2, beta)
            batch = sample_permanental(spec, 200_000, seed=8)
            for a in ([0.5, 0.5], [1.0, 0.0], [0.2, 1.5]):
                exact = laplace_transform(G2, beta, a)
                vals = np.exp(-0.5 * batch.draws @ np.asarray(a))
                mean, se = mc_mean_se(vals)
                assert abs(exact - mean) <= 3 * se
                assert empirical_laplace(batch, a) == pytest.approx(mean)

    @pytest.mark.parametrize("beta, alpha", [
        (2.0, [math.nan, 0.5]), (2.0, [-1.0, 0.5]), (2.0, [0.5, 0.5, 0.5]),
        (0.0, [0.5, 0.5]), (-1.0, [0.5, 0.5]), (math.nan, [0.5, 0.5])])
    def test_bad_alpha_or_beta_rejected(self, beta, alpha):
        # a NaN alpha gave NaN, beta 0 a ZeroDivisionError, beta -1 a value
        with pytest.raises(InputFormatError):
            laplace_transform(G2, beta, alpha)

    @pytest.mark.parametrize("alpha", [[math.nan, 0.5], [-1.0, 0.5], [0.5, 0.5, 0.5],
                                       math.nan])
    def test_empirical_bad_alpha_rejected(self, alpha):
        batch = sample_permanental(PermanentalSpec(G2, 2.0), 100, seed=3)
        with pytest.raises(InputFormatError):
            empirical_laplace(batch, alpha)

    def test_scalar_alpha_broadcasts(self):
        assert laplace_transform(G2, 2.0, 0.7) == \
            pytest.approx(laplace_transform(G2, 2.0, [0.7, 0.7]))


class TestTilting:
    def test_zero_tilt_keeps_unit_weights(self):
        batch = sample_gaussian(G2, 1000, seed=9)
        tilted = tilt_resolvent(batch, 0.0)
        assert_allclose(tilted.weights, np.ones(1000))

    def test_weights_sum_to_n(self):
        batch = sample_gaussian(G2, 10_000, seed=10)
        tilted = tilt_resolvent(batch, 1.5)
        assert tilted.weights.sum() == pytest.approx(10_000)
        assert tilted.tilted
        assert tilted.alpha == 1.5

    def test_tilted_mean_matches_resolvent_diagonal(self):
        alpha = 1.0
        batch = sample_gaussian(G2, 400_000, seed=11)
        tilted = tilt_resolvent(batch, alpha)
        ga = resolvent(G2, alpha).entries
        for i in range(2):
            vals = tilted.draws[:, i] ** 2
            mean = float(np.average(vals, weights=tilted.weights))
            _, se = mc_mean_se(vals)  # unweighted se, adequate scale guide
            assert abs(mean - ga[i, i]) <= 4 * se

    def test_weighted_laplace_determinant_identity(self):
        # tilting by alpha then damping by x probes the shifted resolvent
        alpha, x = 0.8, 0.6
        g = G2.entries
        lhs = np.linalg.det(np.eye(2) + x * resolvent(G2, alpha).entries)
        rhs = np.linalg.det(np.eye(2) + (alpha + x) * g) / \
            np.linalg.det(np.eye(2) + alpha * g)
        assert lhs == pytest.approx(rhs, rel=1e-12)

        batch = sample_gaussian(G2, 400_000, seed=12)
        tilted = tilt_resolvent(batch, alpha)
        est = empirical_laplace(tilted, [x, x])
        exact = rhs ** -0.5
        vals = np.exp(-0.5 * x * (batch.draws ** 2).sum(axis=1))
        _, se = mc_mean_se(vals)
        assert abs(est - exact) <= 4 * se

    def test_ess_reasonable_on_default_grid(self):
        batch = sample_gaussian(G2, 50_000, seed=13)
        for alpha in (0.5, 1.0, 2.0, 5.0):
            tilted = tilt_resolvent(batch, alpha)
            assert tilted.ess >= 0.1 * 50_000

    def test_double_tilt_rejected(self):
        batch = sample_gaussian(G2, 100, seed=14)
        tilted = tilt_resolvent(batch, 1.0)
        with pytest.raises(InputFormatError):
            tilt_resolvent(tilted, 1.0)

    def test_negative_alpha_rejected(self):
        batch = sample_gaussian(G2, 100, seed=15)
        with pytest.raises(InputFormatError):
            tilt_resolvent(batch, -0.5)


class TestClosedFormMoments:
    def test_abs_product_special_values(self):
        assert abs_product_moment(1.0, 1.0, 0.0) == pytest.approx(2 / np.pi)
        assert abs_product_moment(1.0, 1.0, 1.0) == pytest.approx(1.0)
        assert abs_product_moment(2.0, 3.0, 0.0) == \
            pytest.approx(6 * 2 / np.pi)

    def test_abs_product_arrays_match_scalar_closed_form(self):
        rng = np.random.default_rng(63)
        si, sj = rng.uniform(0.1, 3.0, size=(2, 4, 50))
        rho = np.concatenate([rng.uniform(-1.0, 1.0, size=(4, 45)),
                              [[1.0, -1.0, 0.0, 1.0 + 1e-13, -1.0 - 1e-13]] * 4], axis=1)
        got = abs_product_moment(si, sj, rho)
        assert got.shape == (4, 50)
        want = np.vectorize(naive_abs_product_moment)(si, sj, rho)
        assert_allclose(got, want, rtol=1e-15, atol=0)
        # broadcasting, and a scalar call gives the array's entry as a float
        assert np.array_equal(abs_product_moment(si, 1.0, rho[0]),
                              abs_product_moment(si, np.ones(50), rho[0]))
        value = abs_product_moment(si[2, 7], sj[2, 7], rho[2, 7])
        assert type(value) is float and value == got[2, 7]

    @pytest.mark.parametrize("args", [
        (0.0, 1.0, 0.5), (1.0, -1.0, 0.5), (1.0, 1.0, 1.5), (1.0, 1.0, -2.0),
        (1.0, 1.0, 1.0 + 2e-12), (-1.0, 1.0, 3.0), (1, 1, 2)])
    def test_abs_product_validation_matches_scalar_form(self, args):
        with pytest.raises(InputFormatError) as new:
            abs_product_moment(*args)
        with pytest.raises(InputFormatError) as old:
            naive_abs_product_moment(*args, error=InputFormatError)
        assert str(new.value) == str(old.value)

    def test_abs_product_array_reports_first_bad_entry(self):
        # pair order: entry 1 has a bad correlation before entry 2's zero sd
        with pytest.raises(InputFormatError, match="correlation -1.5 outside"):
            abs_product_moment(np.array([1.0, 1.0, 0.0]), 1.0,
                               np.array([0.5, -1.5, 0.5]))
        with pytest.raises(InputFormatError, match="standard deviations"):
            abs_product_moment(np.array([1.0, 0.0, 1.0]), 1.0,
                               np.array([0.5, 0.5, 3.0]))

    def test_abs_product_against_mc(self):
        for rho in (-0.8, -0.3, 0.0, 0.5, 0.9):
            mc, se = mc_abs_product_moment(1.0, 1.0, rho, 2_000_000, seed=16)
            assert abs(abs_product_moment(1.0, 1.0, rho) - mc) <= 3 * se

    def test_out_of_range_rejected(self):
        with pytest.raises(InputFormatError):
            abs_product_moment(1.0, 1.0, -2.0)


# every field of a save_batch header, nested ones as key paths
HEADER_FIELDS = [("schema",), ("n_draws",), ("dim",), ("seed",), ("kind",), ("alpha",),
                 ("spec",), ("spec", "index_beta"), ("spec", "kernel"),
                 ("spec", "kernel", "entries"), ("spec", "kernel", "symmetric")]
JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
# scalars half of the time: a recursive strategy alone draws mostly containers
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4), max_leaves=10)


class TestBatchIO:
    def test_round_trip(self, tmp_path):
        batch = sample_gaussian(G2, 500, seed=18)
        tilted = tilt_resolvent(batch, 0.9)
        path = tmp_path / "batch.bin"
        save_batch(tilted, path)
        back = load_batch(path)
        assert np.array_equal(back.draws, tilted.draws)
        assert np.array_equal(back.weights, tilted.weights)
        assert back.kind == tilted.kind
        assert back.alpha == tilted.alpha

    def test_load_memory_is_the_body(self, tmp_path):
        path = tmp_path / "batch.bin"
        save_batch(sample_permanental(PermanentalSpec(_kernels(4)[0], 2.0), 200_000,
                                      seed=21), path)
        body = path.stat().st_size - len(path.read_bytes().split(b"\n", 1)[0]) - 1
        load_batch(path)  # imports outside the trace
        tracemalloc.start()
        try:
            batch = load_batch(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.draws.nbytes + batch.weights.nbytes == body
        # reading the body, then copying the arrays out of it, peaks at 2x
        assert peak <= 1.1 * body

    def test_huge_declared_count_raises_before_allocating(self, tmp_path):
        path = tmp_path / "batch.bin"
        save_batch(sample_gaussian(G2, 50, seed=19), path)
        line, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        header["n_draws"] = 10 ** 15
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
        with pytest.raises(InputFormatError, match="batch body has"):
            load_batch(path)

    def test_schema_guard(self, tmp_path):
        path = tmp_path / "bad.bin"
        with open(path, "wb") as fh:
            fh.write(b'{"schema": 999}\n')
        with pytest.raises(InputFormatError):
            load_batch(path)

    @pytest.mark.parametrize("case", [
        "truncated 17 bytes", "truncated 16 bytes", "one extra byte",
        "header not JSON", "header not UTF-8", "header a list",
        "no n_draws", "no spec", "no kernel entries", "dim a string",
        "negative n_draws", "alpha NaN", "alpha negative", "NaN weights",
        "inf weight", "inf draw", "symmetric a string", "seed 1.5", "seed negative",
        "kernel of another dimension",
        # each of these once loaded: int() and float() read them as numbers
        "n_draws 50.7", "n_draws a digit string", "dim 2.5", "dim a digit string",
        "alpha a digit string", "alpha true", "seed true",
        # each of these once loaded too: True == 1.0 == the schema, and True > 0
        "schema true", "schema 1.0", "index_beta true"])
    def test_malformed_file_raises_input_format_error(self, case, tmp_path):
        path = tmp_path / "batch.bin"
        save_batch(sample_gaussian(G2, 50, seed=19), path)
        line, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        if case == "truncated 17 bytes":
            body = body[:-17]
        elif case == "truncated 16 bytes":
            body = body[:-16]
        elif case == "one extra byte":
            body += b"\0"
        elif case == "header not JSON":
            line = b"{schema: 1"
        elif case == "header not UTF-8":
            line = b'{"schema": 1, "kind": "\xff"}'
        elif case == "header a list":
            line = b"[1]"
        elif case == "no n_draws":
            del header["n_draws"]
        elif case == "no spec":
            del header["spec"]
        elif case == "no kernel entries":
            del header["spec"]["kernel"]["entries"]
        elif case == "dim a string":
            header["dim"] = "two"
        elif case == "negative n_draws":
            header["n_draws"] = -50
        elif case == "alpha NaN":
            header["alpha"] = math.nan
        elif case == "alpha negative":
            header["alpha"] = -1.0
        elif case == "symmetric a string":
            header["spec"]["kernel"]["symmetric"] = "no"
        elif case == "seed true":
            header["seed"] = True
        elif case.startswith("schema "):
            header["schema"] = True if case == "schema true" else 1.0
        elif case == "index_beta true":
            header["spec"]["index_beta"] = True
        elif case.startswith("seed "):
            header["seed"] = 1.5 if case == "seed 1.5" else -1
        elif case.startswith(("n_draws ", "dim ", "alpha ")):
            field = case.split()[0]
            header[field] = {"n_draws 50.7": 50.7, "n_draws a digit string": "50",
                             "dim 2.5": 2.5, "dim a digit string": "2",
                             "alpha a digit string": "0", "alpha true": True}[case]
        elif case == "kernel of another dimension":
            # loaded with dim 2 and spec.kernel.dim 3
            header["spec"]["kernel"] = kernel(np.eye(3)).to_dict()
        elif case in ("NaN weights", "inf weight", "inf draw"):
            values = np.frombuffer(body, dtype="<f8").copy()
            n_values = header["n_draws"] * header["dim"]
            if case == "NaN weights":
                values[n_values:] = np.nan
            else:
                values[n_values if case == "inf weight" else 3] = np.inf
            body = values.tobytes()
        if case.startswith(("no ", "n_draws ", "dim ", "negative ", "alpha ", "symmetric ",
                            "seed ", "kernel ", "schema ", "index_beta ")):
            line = json.dumps(header).encode("utf-8")
        path.write_bytes(line + b"\n" + body)
        with pytest.raises(InputFormatError):
            load_batch(path)

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(HEADER_FIELDS), JSON_VALUES)
    def test_garbled_header_field_loads_or_raises_permacheck_error(
            self, tmp_path, field, value):
        path = tmp_path / "batch.bin"
        save_batch(tilt_resolvent(sample_gaussian(G2, 20, seed=20), 0.5), path)
        line, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        *outer, last = field
        parent = header
        for key in outer:
            parent = parent[key]
        parent[last] = value
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
        try:
            batch = load_batch(path)
        except PermacheckError:
            return
        assert math.isfinite(batch.alpha) and batch.alpha >= 0

