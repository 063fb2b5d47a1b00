"""Independent reference implementations used to validate the library.

Everything here is deliberately naive: permutation sums by brute force,
moments by plain Monte Carlo, signature searches by exhaustive
enumeration.  Nothing imports the code under test; the scan oracles keep
the library's earlier loops and take its building blocks as arguments.
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


def scalar_cycle_coefficients(a) -> np.ndarray:
    """Cycle-polynomial coefficients of one matrix by the subset DP on
    Python floats, as the library computed them matrix by matrix."""
    a = np.asarray(a, dtype=float)
    m = a.shape[0]
    a = a.tolist()
    full = 1 << m
    # W[mask]: sum over single cycles supported exactly on mask, rooted at min(mask)
    W = [0.0] * full
    for s in range(m):
        r = m - s
        size = 1 << r
        # P[mask][j]: paths from s through exactly {s + i : bit i of mask}, ending at s+j
        P = [[0.0] * r for _ in range(size)]
        P[1][0] = 1.0
        for mask in range(1, size):
            if not mask & 1:
                continue
            row = P[mask]
            close = 0.0
            for j in range(r):
                w = row[j]
                if w == 0.0:
                    continue
                close += w * a[s + j][s]
                for k in range(1, r):
                    if not mask & (1 << k):
                        P[mask | (1 << k)][k] += w * a[s + j][s + k]
            W[mask << s] = close
    # partition DP: coef[mask] = cycle polynomial of the submatrix on mask
    coef = [None] * full
    coef[0] = [1.0] + [0.0] * m
    for mask in range(1, full):
        low = mask & (-mask)
        c = [0.0] * (m + 1)
        sub = mask
        while True:
            if sub & low:
                w = W[sub]
                if w != 0.0:
                    rest = coef[mask ^ sub]
                    for k in range(m):
                        if rest[k] != 0.0:
                            c[k + 1] += w * rest[k]
            if sub == 0:
                break
            sub = (sub - 1) & mask
        coef[mask] = c
    return np.array(coef[full - 1])


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


def loop_signature(a, zero_rel: float, negativity_rel: float):
    """A sign vector sigma making sigma*a*sigma entrywise nonnegative,
    propagated over a's own sign pattern with an edge-sign closure, as
    the nonsymmetric route first found it after the sign-product check.

    Entries at most zero_rel * max(1, max|a|) in size are zeros; edge
    (i,j) has the sign of a[i,j], or of a[j,i] where a[i,j] is zero.
    Returns the +-1 vector, or None on a propagation conflict or a
    conjugated entry below -negativity_rel * max(1, max|a|).
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))))
    s = np.sign(a)
    s[np.abs(a) <= zero_rel * scale] = 0.0

    def edge(i, j):
        return s[i, j] if s[i, j] != 0 else s[j, i]

    sigma = np.zeros(n)
    for root in range(n):
        if sigma[root] != 0:
            continue
        sigma[root] = 1.0
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                e = edge(i, j)
                if j == i or e == 0:
                    continue
                want = sigma[i] * e
                if sigma[j] == 0:
                    sigma[j] = want
                    stack.append(j)
                elif sigma[j] != want:
                    return None
    if float(np.min(a * np.outer(sigma, sigma))) < -negativity_rel * scale:
        return None
    return sigma


def loop_inverse_m_route(a, inverse, zero_rel: float, negativity_rel: float,
                         tol_rel: float) -> tuple:
    """(holds, signature list or None) of the nonsymmetric inverse-M route
    as id_verdict first took it: a signature from the sign pattern of the
    kernel a itself (loop_signature), then the off-diagonal M-matrix sign
    test on sigma * inverse(a) * sigma.  inverse(a) is the library's
    inverse as an array; any exception it raises propagates."""
    if naive_sign_product_violation(a, tol_rel) is not None:
        return False, None
    sigma = loop_signature(a, zero_rel, negativity_rel)
    if sigma is None:
        return False, None
    off, _ = naive_m_matrix_witnesses(inverse(a) * np.outer(sigma, sigma), tol_rel)
    if off is not None:
        return False, None
    return True, [int(v) for v in sigma]


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


def naive_abs_product_moment(sigma_i: float, sigma_j: float, rho: float,
                             error=ValueError) -> float:
    """Scalar closed form of E|eta_i eta_j| with math.asin, and its
    validation, as the library computed it pair by pair; invalid input
    raises `error` with the library's message."""
    if sigma_i <= 0 or sigma_j <= 0:
        raise error("standard deviations must be positive")
    if abs(rho) > 1 + 1e-12:
        raise error(f"correlation {rho} outside [-1, 1]")
    r = min(1.0, max(-1.0, float(rho)))
    return (2.0 / math.pi) * sigma_i * sigma_j * (
        r * math.asin(r) + math.sqrt(max(0.0, 1.0 - r * r)))


def naive_positivity_scan(resolvent_at, poly, n, betas, alphas, m_max,
                          neg_rel: float) -> tuple:
    """Loop form of the beta-positivity scan.

    resolvent_at(alpha) is the resolvent as an array and poly(A) the
    cycle-polynomial coefficients of A.  Triples run over alpha, then
    beta, then multisets by size and lex; the first value below
    -neg_rel * max(max|entry|, 1e-300)^m stops the scan.  Returns
    (triples scanned, witness dict or None).
    """
    sets = [idx for m in range(1, m_max + 1)
            for idx in itertools.combinations_with_replacement(range(n), m)]
    scanned = 0
    for alpha in alphas:
        ga = resolvent_at(float(alpha))
        polys = []
        for idx in sets:
            sub = ga[np.ix_(idx, idx)]
            polys.append((poly(sub), float(np.max(np.abs(sub)))))
        for beta in betas:
            powers = np.power(float(beta), np.arange(m_max + 1))
            for idx, (coef, scale) in zip(sets, polys):
                m = len(idx)
                value = float(coef[: m + 1] @ powers[: m + 1])
                scanned += 1
                if value < -neg_rel * max(scale, 1e-300) ** m:
                    return scanned, {"alpha": float(alpha), "beta": float(beta),
                                     "indices": list(idx), "value": value}
    return scanned, None


def naive_monotonicity_scan(g, alphas, D_set, resolvent_of, moment,
                            tol: float):
    """Loop form of the resolvent monotonicity scan of a symmetric array g.

    resolvent_of(a, alpha) is the resolvent of the symmetric array a as
    an array, and moment(sd_i, sd_j, rho) the scalar E|eta_i eta_j|.
    Each scaling evaluates every alpha and pair first; then rises are
    searched pair by pair (i < j, row-major), then along the grid.
    Returns the first witness dict with a rise above tol, or None.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    for d_index, d in enumerate(D_set):
        d = np.asarray(d, dtype=float)
        scaled = g * np.outer(d, d)
        moments = []
        for alpha in alphas:
            r = resolvent_of(scaled, float(alpha))
            sd = np.sqrt(np.diag(r))
            m = np.empty((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    with np.errstate(divide="ignore", invalid="ignore"):
                        rho = r[i, j] / (sd[i] * sd[j])
                    m[i, j] = moment(sd[i], sd[j], rho)
            moments.append(m)
        for i in range(n):
            for j in range(i + 1, n):
                for t in range(len(alphas) - 1):
                    rise = moments[t + 1][i, j] - moments[t][i, j]
                    if rise > tol:
                        return {"scaling_index": d_index,
                                "scaling": [float(v) for v in d],
                                "pair": [i, j],
                                "alphas": [float(alphas[t]), float(alphas[t + 1])],
                                "increase": float(rise)}
    return None


def naive_default_family(x, quantiles, slope: float) -> list:
    """(name, function) members of the default increasing family as the
    library first built them: one np.quantile call per level, and every
    member reduced along the row axis of the draw matrix."""
    from scipy.special import expit

    x = np.asarray(x, dtype=float)
    members = []
    for q in quantiles:
        t = np.quantile(x, q, axis=0)
        members.append((f"orthant_q{int(round(100 * q))}",
                        lambda v, t=t: np.all(v >= t, axis=1).astype(float)))
    for i in range(x.shape[1]):
        members.append((f"proj_{i}", lambda v, i=i: v[:, i]))
    members.append(("max", lambda v: v.max(axis=1)))
    members.append(("min", lambda v: v.min(axis=1)))
    median = np.quantile(x, 0.5, axis=0)
    members.append(("soft_orthant",
                    lambda v: expit(slope * (v - median)).prod(axis=1)))
    return members


def naive_jackknife_cov(x, y, blocks: int) -> tuple:
    """Covariance estimate and delete-block jackknife standard error of
    one pair, every sum taken afresh."""
    n = x.size
    blocks = min(blocks, n)
    cov = float(x @ y / n - x.mean() * y.mean())
    edges = np.linspace(0, n, blocks + 1).astype(int)
    sx = np.add.reduceat(x, edges[:-1])
    sy = np.add.reduceat(y, edges[:-1])
    sxy = np.add.reduceat(x * y, edges[:-1])
    sizes = np.diff(edges)
    tx, ty, txy = x.sum(), y.sum(), float(x @ y)
    rest = n - sizes
    mx = (tx - sx) / rest
    my = (ty - sy) / rest
    loo = (txy - sxy) / rest - mx * my
    se = float(np.sqrt((blocks - 1) / blocks * np.sum((loo - loo.mean()) ** 2)))
    return cov, se


def naive_association_rows(draws, members, blocks: int) -> list:
    """Rows {"f", "h", "cov", "se", "z"} of the association test, one
    naive_jackknife_cov call per pair of members, pairs in member order."""
    values = [(name, np.asarray(f(draws), dtype=float)) for name, f in members]
    rows = []
    for a in range(len(values)):
        for b in range(a + 1, len(values)):
            (fn, fx), (hn, hy) = values[a], values[b]
            cov, se = naive_jackknife_cov(fx, hy, blocks)
            z = cov / se if se > 0 else 0.0
            rows.append({"f": fn, "h": hn, "cov": cov, "se": se, "z": z})
    return rows


def naive_association_report(draws, members, blocks: int, z_threshold: float,
                             seed: int) -> dict:
    """The association report as a dict: naive_association_rows, then
    `fails` with the first pair at or below z_threshold, else `holds`
    naming the first pair of lowest z."""
    rows = naive_association_rows(draws, members, blocks)
    bad = [r for r in rows if r["z"] <= z_threshold]
    if bad:
        verdict = {"status": "fails",
                   "witness": {"pair": [bad[0]["f"], bad[0]["h"]], "z": bad[0]["z"],
                               "cov": bad[0]["cov"], "se": bad[0]["se"]},
                   "detail": f"{len(bad)} pair(s) below the z threshold {z_threshold}"}
    else:
        worst = min(rows, key=lambda r: r["z"])
        verdict = {"status": "holds",
                   "detail": "no covariance below the z threshold; worst pair "
                             f"({worst['f']},{worst['h']}) at z = {worst['z']:.2f}"}
    return {"verdict": verdict, "pairs": rows, "n_draws": len(draws), "seed": seed}


def loop_random_scalings(n: int, count: int, seed: int) -> list:
    """Log-uniform scalings on [0.05, 20] as the library first drew them:
    one length-n Philox draw per scaling."""
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    lo, hi = np.log(0.05), np.log(20.0)
    return [np.exp(gen.uniform(lo, hi, size=n)) for _ in range(count)]


def oneshot_uniforms(seed: int, shape) -> np.ndarray:
    """Open-interval (0,1) uniforms from a Philox counter stream, all at once."""
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    raw = gen.integers(0, 1 << 53, size=shape, dtype=np.uint64)
    return (raw.astype(float) + 0.5) * 2.0 ** -53


def oneshot_normals(seed: int, shape) -> np.ndarray:
    from scipy.special import ndtri

    return ndtri(oneshot_uniforms(seed, shape))


def oneshot_gaussian_draws(factor, n_draws: int, seed: int) -> np.ndarray:
    """Gaussian draws z @ factor.T, as sample_gaussian makes them."""
    return oneshot_normals(seed, (n_draws, factor.shape[0])) @ factor.T


def oneshot_permanental_draws(factor, k: int, n_draws: int, seed: int) -> np.ndarray:
    """Permanental draws as the library first made them: the whole
    (k, N, n) normal stack at once, then a sum of k squared Gaussians."""
    n = factor.shape[0]
    z = oneshot_normals(seed, (k, n_draws, n))
    psi = np.zeros((n_draws, n))
    for j in range(k):
        eta = z[j] @ factor.T
        psi += eta * eta
    return psi


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
