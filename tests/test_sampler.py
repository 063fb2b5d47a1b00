import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from permacheck import (
    InputFormatError,
    InvalidIndexError,
    PermanentalSpec,
    abs_product_moment,
    empirical_laplace,
    kernel,
    laplace_transform,
    load_batch,
    resolvent,
    sample_gaussian,
    sample_permanental,
    save_batch,
    sign_moment,
    tilt_resolvent,
)
from oracles import (
    mc_abs_product_moment,
    mc_mean_se,
    mc_sign_moment,
    naive_abs_product_moment,
)

G2 = kernel([[1.0, 0.5], [0.5, 1.0]])


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

    def test_sign_moment_values(self):
        assert sign_moment(0.0) == 0.0
        assert sign_moment(1.0) == pytest.approx(1.0)
        assert sign_moment(0.5) == pytest.approx(1.0 / 3.0)
        assert sign_moment(-0.5) == pytest.approx(-1.0 / 3.0)

    def test_sign_moment_against_mc(self):
        for rho in (-0.6, 0.3, 0.8):
            mc, se = mc_sign_moment(rho, 2_000_000, seed=17)
            assert abs(sign_moment(rho) - mc) <= 3 * se

    def test_out_of_range_rejected(self):
        with pytest.raises(InputFormatError):
            sign_moment(1.5)
        with pytest.raises(InputFormatError):
            abs_product_moment(1.0, 1.0, -2.0)


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
        "negative n_draws", "NaN weights", "inf weight", "inf draw"])
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
        elif case in ("NaN weights", "inf weight", "inf draw"):
            values = np.frombuffer(body, dtype="<f8").copy()
            n_values = header["n_draws"] * header["dim"]
            if case == "NaN weights":
                values[n_values:] = np.nan
            else:
                values[n_values if case == "inf weight" else 3] = np.inf
            body = values.tobytes()
        if case.startswith(("no ", "dim ", "negative ")):
            line = json.dumps(header).encode("utf-8")
        path.write_bytes(line + b"\n" + body)
        with pytest.raises(InputFormatError):
            load_batch(path)
