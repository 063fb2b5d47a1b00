"""Independent reference implementations used to validate the library.

Everything here is deliberately naive: permutation sums by brute force,
moments by plain Monte Carlo, signature searches by exhaustive
enumeration.  Nothing imports the code under test.
"""

import itertools
import math

import numpy as np


def cycle_count(perm) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
    return cycles


def naive_beta_permanent(A, beta: float) -> float:
    """Direct m!-loop sum of beta^(cycles) * prod A[i, perm[i]]."""
    a = np.asarray(A, dtype=float)
    m = a.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(m)):
        prod = 1.0
        for i in range(m):
            prod *= a[i, perm[i]]
        total += beta ** cycle_count(perm) * prod
    return total


def naive_permanent(A) -> float:
    return naive_beta_permanent(A, 1.0)


def naive_beta_permanent_multi(A, betas) -> dict:
    """Same m!-loop as naive_beta_permanent, all betas in a single pass.

    Products and running sums stay exact in float64 for small-integer
    matrices and dyadic betas, so callers may compare with ==.
    """
    a = np.asarray(A, dtype=float)
    m = a.shape[0]
    powers = {b: [b ** c for c in range(m + 1)] for b in betas}
    acc = dict.fromkeys(betas, 0.0)
    for perm in itertools.permutations(range(m)):
        prod = 1.0
        for i in range(m):
            prod *= a[i, perm[i]]
        c = cycle_count(perm)
        for b in betas:
            acc[b] += powers[b][c] * prod
    return acc


def naive_signature_convention(A, beta: float) -> float:
    """Permutation sum with beta^(sign of tau) instead of beta^(cycles)."""
    a = np.asarray(A, dtype=float)
    m = a.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(m)):
        prod = 1.0
        for i in range(m):
            prod *= a[i, perm[i]]
        sign = 1 if (m - cycle_count(perm)) % 2 == 0 else -1
        total += beta ** sign * prod
    return total


def mc_mean_se(values) -> tuple:
    v = np.asarray(values, dtype=float)
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size))


def gaussian_pairs(rho: float, n: int, seed: int) -> tuple:
    """n draws of a standard bivariate normal pair with correlation rho."""
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    return z1, rho * z1 + math.sqrt(1.0 - rho * rho) * z2


def mc_abs_product_moment(sigma_i, sigma_j, rho, n, seed) -> tuple:
    x, y = gaussian_pairs(rho, n, seed)
    return mc_mean_se(np.abs(sigma_i * x * sigma_j * y))


def mc_sign_moment(rho, n, seed) -> tuple:
    x, y = gaussian_pairs(rho, n, seed)
    return mc_mean_se(np.sign(x * y))


def exhaustive_bapat(G) -> bool:
    """Try all 2^n sign vectors on G^(-1); True iff one gives an M-matrix."""
    g = np.asarray(G, dtype=float)
    n = g.shape[0]
    h = np.linalg.inv(g)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(h))))
    for bits in range(1 << n):
        sigma = np.array([1.0 if bits >> i & 1 else -1.0 for i in range(n)])
        conj = h * np.outer(sigma, sigma)
        off_ok = all(conj[i, j] <= tol
                     for i in range(n) for j in range(n) if i != j)
        if off_ok:
            return True
    return False


def naive_sign_product_violation(a, tol_rel: float):
    """Loop form of the pair and cyclic-triple sign test.

    Pairs a[i,j]*a[j,i] over i != j in row-major order, then triples
    a[j,i]*a[j,k]*a[k,i] in itertools.permutations order; returns the
    first (kind, indices, value) below -tol_rel*scale^2 (pairs) or
    -tol_rel*scale^3 (triples), scale = max(1, max|a|), or None.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))))
    pair_tol = tol_rel * scale ** 2
    triple_tol = tol_rel * scale ** 3
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            v = a[i, j] * a[j, i]
            if v < -pair_tol:
                return "pair", (i, j), float(v)
    for i, j, k in itertools.permutations(range(n), 3):
        v = a[j, i] * a[j, k] * a[k, i]
        if v < -triple_tol:
            return "triple", (i, j, k), float(v)
    return None


def naive_m_matrix_witnesses(a, tol_rel: float) -> tuple:
    """Loop form of the M-matrix sign tests: (off-diagonal witness,
    row-sum witness), each None when its test passes.  A failing
    off-diagonal test also fails the row-sum test with the same witness."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    tol = tol_rel * max(1.0, float(np.max(np.abs(a))))
    for i in range(n):
        for j in range(n):
            if i != j and a[i, j] > tol:
                off = {"entry": [i, j], "value": float(a[i, j])}
                return off, off
    sums = a.sum(axis=1)
    for i in range(n):
        if sums[i] < -tol:
            return None, {"row": i, "row_sum": float(sums[i])}
    return None, None


def random_pd_kernel(rng, n: int):
    """Well-conditioned random symmetric positive definite matrix."""
    a = rng.normal(size=(n, n))
    g = a @ a.T + 0.5 * n * np.eye(n)
    d = 1.0 / np.sqrt(np.diag(g))
    g = g * np.outer(d, d)  # unit diagonal keeps scales comparable
    return 0.5 * (g + g.T)


def random_chain_kernel(rng, n: int, symmetric: bool = False):
    """Random sub-stochastic one-step kernel, row sums <= 0.95."""
    q = rng.uniform(0.0, 1.0, size=(n, n))
    q *= rng.uniform(0.0, 1.0, size=(n, n)) < 0.85  # sprinkle zeros
    if symmetric:
        q = 0.5 * (q + q.T)
    scale = q.sum(axis=1).max()
    if scale <= 0:
        q[0, min(1, n - 1)] = 0.5
        scale = q.sum(axis=1).max()
    q *= rng.uniform(0.3, 0.95) / scale
    return q


def random_green(rng, n: int, symmetric: bool = False):
    """Random (scaled) potential matrix of a transient chain."""
    q = random_chain_kernel(rng, n, symmetric)
    g = np.linalg.inv(np.eye(n) - q)
    return float(rng.uniform(0.5, 3.0)) * g
