"""Association, FKG lattice, monotonicity and strong-ordering checks.

"Positively correlated" means every pair of coordinatewise-increasing
functionals has nonnegative covariance.  The Monte Carlo test estimates
those covariances over a fixed function family with jackknife standard
errors; lattice tests check the FKG product inequality and its two-
density strengthening on quantile grids; the monotonicity scan tracks
the closed form E|eta_alpha(i) eta_alpha(j)| along resolvent grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import defaults
from .densities import marginal_quantile_grid, squared_pair_density
from .errors import InputFormatError
from .green import is_green
from .idcheck import _psd_screen
from .matcore import KernelMatrix, _resolvents
from .sampler import PermanentalSpec, abs_product_moment, sample_permanental
from .verdict import Verdict

__all__ = [
    "IncreasingFunctionFamily",
    "default_family",
    "AssociationReport",
    "association_mc_test",
    "resolvent_monotonicity_scan",
    "random_scalings",
    "fkg_lattice_test",
    "StrongOrderReport",
    "shifted_strong_order_test",
]


@dataclass(frozen=True, eq=False)
class IncreasingFunctionFamily:
    """Named coordinatewise-nondecreasing functions of a draw matrix.

    members: tuple of (name, callable); each callable maps an N x n
    draw matrix to N per-draw values and is nondecreasing in every
    coordinate.
    """

    members: tuple

    def __post_init__(self):
        if not self.members:
            raise InputFormatError("function family must be nonempty")

    def names(self) -> list:
        return [name for name, _ in self.members]


def _orthant(thresholds):
    t = np.asarray(thresholds, dtype=float)

    def f(x):
        return np.all(x >= t, axis=1).astype(float)

    return f


def _soft_orthant(thresholds, slope):
    # imported here, not at module scope, so the CLI starts without scipy
    from scipy.special import expit

    t = np.asarray(thresholds, dtype=float)

    def f(x):
        return expit(slope * (x - t)).prod(axis=1)

    return f


def _projection(i):
    def f(x):
        return x[:, i]

    return f


def default_family(reference_draws) -> IncreasingFunctionFamily:
    """Orthant indicators at marginal quantiles, projections, max, min,
    and one soft orthant; thresholds come from the reference draws."""
    x = np.asarray(reference_draws, dtype=float)
    if x.ndim != 2 or x.shape[0] < 10:
        raise InputFormatError("need an N x n draw matrix with N >= 10")
    n = x.shape[1]
    members = []
    for q in defaults.ORTHANT_QUANTILES:
        t = np.quantile(x, q, axis=0)
        members.append((f"orthant_q{int(round(100 * q))}", _orthant(t)))
    for i in range(n):
        members.append((f"proj_{i}", _projection(i)))
    members.append(("max", lambda v: v.max(axis=1)))
    members.append(("min", lambda v: v.min(axis=1)))
    median = np.quantile(x, 0.5, axis=0)
    members.append(
        ("soft_orthant", _soft_orthant(median, defaults.SOFT_INDICATOR_SLOPE)))
    return IncreasingFunctionFamily(tuple(members))


def _jackknife_cov(x: np.ndarray, y: np.ndarray, blocks: int) -> tuple:
    """Covariance estimate and delete-block jackknife standard error."""
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


@dataclass(frozen=True)
class AssociationReport:
    """Per-pair covariance estimates with jackknife z-scores."""

    verdict: Verdict
    pairs: tuple  # of dicts {"f","h","cov","se","z"}
    n_draws: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.to_dict(),
            "pairs": list(self.pairs),
            "n_draws": self.n_draws,
            "seed": self.seed,
        }


def association_mc_test(spec: PermanentalSpec, family=None,
                        n_draws: int = 10 ** 5, seed: int = None) -> AssociationReport:
    """Estimate Cov(F, H) over all family pairs for the sampled law.

    A pair is a violation witness only when its z-score is at or below
    the configured threshold (default -3); positive covariances and
    noise around zero both count as holds-within-CI.
    """
    seed = defaults.DEFAULT_SEED if seed is None else int(seed)
    batch = sample_permanental(spec, n_draws, seed)
    if family is None:
        family = default_family(batch.draws)
    values = [(name, np.asarray(f(batch.draws), dtype=float))
              for name, f in family.members]
    rows = []
    worst = None
    for a in range(len(values)):
        for b in range(a + 1, len(values)):
            (fn, fx), (hn, hy) = values[a], values[b]
            cov, se = _jackknife_cov(fx, hy, defaults.JACKKNIFE_BLOCKS)
            z = cov / se if se > 0 else 0.0
            rows.append({"f": fn, "h": hn, "cov": cov, "se": se, "z": z})
            if worst is None or z < worst["z"]:
                worst = rows[-1]
    bad = [r for r in rows if r["z"] <= defaults.Z_THRESHOLD]
    if bad:
        verdict = Verdict.fail(
            {"pair": [bad[0]["f"], bad[0]["h"]], "z": bad[0]["z"],
             "cov": bad[0]["cov"], "se": bad[0]["se"]},
            f"{len(bad)} pair(s) below the z threshold {defaults.Z_THRESHOLD}")
    else:
        verdict = Verdict.ok(
            "no covariance below the z threshold; worst pair "
            f"({worst['f']},{worst['h']}) at z = {worst['z']:.2f}")
    return AssociationReport(verdict, tuple(rows), int(n_draws), seed)


def random_scalings(n: int, count: int, seed: int, low: float = 0.05,
                    high: float = 20.0) -> list:
    """Deterministic positive diagonal scalings, log-uniform entries."""
    if count < 1 or n < 1:
        raise InputFormatError("need positive count and dimension")
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    lo, hi = np.log(low), np.log(high)
    return [np.exp(gen.uniform(lo, hi, size=n)) for _ in range(count)]


def resolvent_monotonicity_scan(G: KernelMatrix, alphas=None,
                                D_set=None) -> Verdict:
    """Check E|eta_alpha(i) eta_alpha(j)| is nonincreasing in alpha.

    G must be positive semidefinite: a kernel with a negative eigenvalue
    raises NotPSDError (the CLI exits 3).  For every positive diagonal
    scaling D and every pair (i,j), the closed form evaluated on
    resolvent(DGD, alpha) entries must not increase between consecutive
    grid points; the witness is the first (D, i, j, alpha pair) where it
    does, from one stacked resolvent solve and one moment array per D.

    Association forces this for every ID kernel, so a `fails` rules ID
    out; a `holds` is necessary for ID but not sufficient.  With
    R = resolvent(DGD, alpha), a = R_ii, b = R_jj, rho = R_ij/sqrt(ab),

        (pi/2) d/dalpha E|..| = -sum_k [sqrt(1-rho^2)/2
            (sqrt(b/a) R_ik^2 + sqrt(a/b) R_jk^2) + asin(rho) R_ik R_jk],

    and by AM-GM a term can be negative only if the cyclic product
    R_ik R_kj R_ji < 0 and |rho| > sin(t) ~ 0.6736, where t = cos(t).
    Non-ID kernels such as the tridiagonal [[1,.6,0],[.6,1,.6],[0,.6,1]]
    never meet both with enough weight, so the scan holds for them.
    """
    if not G.symmetric:
        raise InputFormatError("monotonicity scan needs a symmetric kernel")
    if alphas is None:
        alphas = np.linspace(0.0, defaults.MONOTONE_ALPHA_MAX,
                             defaults.MONOTONE_ALPHA_POINTS)
    alphas = [float(a) for a in alphas]
    if any(b <= a for a, b in zip(alphas, alphas[1:])) or alphas[0] < 0:
        raise InputFormatError("alpha grid must be nonnegative and increasing")
    _psd_screen(G, strict=False)
    if D_set is None:
        D_set = [np.ones(G.dim)]
    n = G.dim
    iu, ju = np.triu_indices(n, 1)  # pairs i < j, row-major
    for d_index, d in enumerate(D_set):
        d = np.asarray(d, dtype=float)
        if d.shape != (n,) or np.min(d) <= 0:
            raise InputFormatError("scalings must be positive length-n vectors")
        scaled = KernelMatrix(G.entries * np.outer(d, d), symmetric=True)
        r, error = _resolvents(scaled, alphas)
        sd = np.sqrt(np.diagonal(r, axis1=1, axis2=2))
        with np.errstate(divide="ignore", invalid="ignore"):  # sd 0 is rejected next
            rho = r[:, iu, ju] / (sd[:, iu] * sd[:, ju])
        # moments[t, p] at alphas[t] for pair p, checked before a bad alpha's error
        moments = abs_product_moment(sd[:, iu], sd[:, ju], rho)
        if error is not None:
            raise error
        rise = np.diff(moments, axis=0).T  # pair-major, then alpha step
        bad = rise > defaults.MONOTONE_TOL
        if bad.any():
            p, t = np.unravel_index(np.argmax(bad), bad.shape)
            return Verdict.fail(
                {"scaling_index": d_index,
                 "scaling": [float(v) for v in d],
                 "pair": [int(iu[p]), int(ju[p])],
                 "alphas": [alphas[t], alphas[t + 1]],
                 "increase": float(rise[p, t])},
                "E|eta_a(i) eta_a(j)| increased along the grid")
    return Verdict.ok(
        f"nonincreasing for {len(D_set)} scaling(s) over {len(alphas)} grid points")


def _cross_lattice_check(F_hi: np.ndarray, F_lo: np.ndarray, gx, gy,
                         tol: float):
    """First violation of F_hi(x) F_lo(y) <= F_hi(x v y) F_lo(x ^ y).

    F_hi and F_lo are densities tabulated on the gx x gy lattice.
    Returns None or a witness dict.  Enumeration order: x-row index
    pairs ascending, then row-major over the column pair.
    """
    nx = len(gx)
    j = np.arange(len(gy))
    jmax = np.maximum.outer(j, j)
    jmin = np.minimum.outer(j, j)
    for i1 in range(nx):
        for i2 in range(nx):
            hi, lo = max(i1, i2), min(i1, i2)
            lhs = np.outer(F_hi[i1], F_lo[i2])
            rhs = F_hi[hi][jmax] * F_lo[lo][jmin]
            viol = lhs > rhs * (1.0 + tol)
            if viol.any():
                j1, j2 = map(int, np.argwhere(viol)[0])
                return {
                    "x": [float(gx[i1]), float(gy[j1])],
                    "y": [float(gx[i2]), float(gy[j2])],
                    "lhs": float(lhs[j1, j2]),
                    "rhs": float(rhs[j1, j2]),
                }
    return None


def fkg_lattice_test(density, grid) -> Verdict:
    """Check h(x)h(y) <= h(x^y)h(x v y) over all pairs of lattice points.

    density is a bivariate oracle on the open positive quadrant; grid is
    a (gx, gy) pair of strictly positive increasing arrays.
    """
    gx, gy = (np.asarray(g, dtype=float) for g in grid)
    if np.min(gx) <= 0 or np.min(gy) <= 0:
        raise InputFormatError("lattice grid must be strictly positive")
    if np.any(np.diff(gx) <= 0) or np.any(np.diff(gy) <= 0):
        raise InputFormatError("lattice grid must be strictly increasing")
    F = np.asarray(density(gx[:, None], gy[None, :]), dtype=float)
    witness = _cross_lattice_check(F, F, gx, gy, defaults.LATTICE_REL_TOL)
    if witness is None:
        return Verdict.ok("lattice product inequality holds on the grid")
    return Verdict.fail(witness, "lattice product inequality violated")


@dataclass(frozen=True)
class StrongOrderReport:
    """Strong-ordering verdict for shifted pairs, next to the Green verdict.

    The cross inequality is checked per r-pair; green is is_green on the
    same kernel.  The two verdicts are reported side by side without
    asserting their equivalence at dimension 2.
    """

    verdict: Verdict
    green: Verdict
    per_pair: tuple  # of (r, r_prime, Verdict)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.to_dict(),
            "green": self.green.to_dict(),
            "per_pair": [
                {"r": r, "r_prime": rp, "verdict": v.to_dict()}
                for r, rp, v in self.per_pair
            ],
        }


def shifted_strong_order_test(G: KernelMatrix, r_pairs,
                              grid_size: int = None) -> StrongOrderReport:
    """Check f_r(x) f_r'(y) <= f_r(x v y) f_r'(x ^ y) for shifts r > r'.

    f_r is the density of ((eta_1+r)^2, (eta_2+r)^2) under the 2x2
    kernel G.  Grids are geometric between pooled marginal quantiles of
    the two shifted laws.
    """
    if G.dim != 2:
        raise InputFormatError("strong-order densities are implemented for 2x2 only")
    pairs = [(float(r), float(rp)) for r, rp in r_pairs]
    if not pairs:
        raise InputFormatError("need at least one (r, r') pair")
    for r, rp in pairs:
        if not r > rp >= 0:
            raise InputFormatError(f"need r > r' >= 0, got ({r}, {rp})")
    per_pair = []
    overall = None
    for r, rp in pairs:
        grids = []
        for coord in range(2):
            v = float(G.entries[coord, coord])
            g_hi = marginal_quantile_grid(v, r, grid_size)
            g_lo = marginal_quantile_grid(v, rp, grid_size)
            size = len(g_hi)
            grids.append(np.geomspace(min(g_hi[0], g_lo[0]),
                                      max(g_hi[-1], g_lo[-1]), size))
        gx, gy = grids
        f_hi = squared_pair_density(G, r)
        f_lo = squared_pair_density(G, rp)
        F_hi = np.asarray(f_hi(gx[:, None], gy[None, :]), dtype=float)
        F_lo = np.asarray(f_lo(gx[:, None], gy[None, :]), dtype=float)
        witness = _cross_lattice_check(F_hi, F_lo, gx, gy,
                                       defaults.LATTICE_REL_TOL)
        if witness is None:
            v = Verdict.ok(f"cross inequality holds for r = {r}, r' = {rp}")
        else:
            witness = dict(witness, r=r, r_prime=rp)
            v = Verdict.fail(witness, "cross inequality violated")
            if overall is None:
                overall = v
        per_pair.append((r, rp, v))
    green = is_green(G)
    if overall is None:
        overall = Verdict.ok(
            f"cross inequality holds for all {len(pairs)} r-pair(s); "
            f"is_green: {green.status}")
    else:
        overall = Verdict.fail(
            overall.witness,
            f"{overall.detail}; is_green: {green.status}")
    return StrongOrderReport(overall, green, tuple(per_pair))
