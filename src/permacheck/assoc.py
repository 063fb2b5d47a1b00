"""Association, FKG lattice, monotonicity and strong-ordering checks.

"Positively correlated" means every pair of coordinatewise-increasing
functionals has nonnegative covariance.  The Monte Carlo test estimates
those covariances over a fixed function family with jackknife standard
errors; lattice tests check the FKG product inequality and its two-
density strengthening on quantile grids; the monotonicity scan tracks
the closed form E|eta_alpha(i) eta_alpha(j)| along resolvent grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import defaults
from .densities import _dyadic_scale, _pd_pair, marginal_quantile_grid, squared_pair_density
from .errors import InputFormatError, NonFiniteError
from .green import is_green
from .matcore import KernelMatrix, _resolvents, alpha_grid, psd_eigh
from .sampler import (PermanentalSpec, _draw_count, _in_pool, _read_seed, _sqrt_factor,
                      _square_sums, abs_product_moment)
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

    members: tuple of at least two (name, callable); each callable maps
    an N x n draw matrix to N per-draw values, each depending only on its
    draw, and is nondecreasing in every coordinate.  The association test
    calls members on read-only views of row blocks of one Fortran-order
    draw array, not copies, concurrently on disjoint blocks, so a member
    must be safe to call from several threads at once.  The read-only
    flag catches mistakes only: writing to its input, or setting its
    writeable flag, raises InputFormatError, but a member can still write
    the draws after x.base.flags.writeable = True.  A member's reduction
    along a row may round differently on this layout than on a C-order array.
    """

    members: tuple

    def __post_init__(self):
        if len(self.members) < 2:
            raise InputFormatError("function family needs at least two members")


def _orthant(thresholds):
    t = np.asarray(thresholds, dtype=float)

    def f(x):
        return reduce(np.logical_and, (c >= ti for c, ti in zip(x.T, t))).astype(float)

    return f


def _soft_orthant(thresholds, slope):
    """prod_i s(slope * (x_i - t_i)) with the increasing sigmoid
    s(u) = 0.5 / (1 - u) for u < 0 and 1 - 0.5 / (1 + u) otherwise.

    s takes only correctly rounded operations, so its bits depend on
    neither libm nor numpy's SIMD dispatch.  It is computed as
    |[u >= 0] - 0.5 / (1 + |u|)|: 0 - d is -d and 1 - d > 0, exactly,
    and u >= 0 exactly where x_i >= t_i (slope > 0, x_i - t_i is 0 only
    where x_i == t_i, and s(-0) = s(0)).  Column by column in place, in
    the operation order of the row-axis product: two columns of memory
    and a bool one, not N x n.
    """
    t = np.asarray(thresholds, dtype=float)

    def f(x):
        acc = np.ones(x.shape[0])  # 1.0 * e == e exactly
        e = np.empty(x.shape[0])
        upper = np.empty(x.shape[0], dtype=bool)
        for c, ti in zip(x.T, t):
            np.greater_equal(c, ti, out=upper)
            np.subtract(c, ti, out=e)
            e *= slope
            np.abs(e, out=e)
            e += 1.0
            np.divide(0.5, e, out=e)
            np.subtract(upper, e, out=e)
            np.abs(e, out=e)
            acc *= e
        return acc

    return f


def _projection(i):
    def f(x):
        return x[:, i]

    return f


def _column_quantiles(x: np.ndarray, levels) -> np.ndarray:
    """np.quantile(x, levels, axis=0), bit for bit, one column per pool task.

    Each task copies its column into a fresh array and finds the order
    statistics that numpy's linear method interpolates by single-kth
    partitions of a shrinking prefix, highest rank first:
    after a partition at r, the first r entries are the r smallest, and
    the largest of them is rank r - 1.  The interpolation is numpy's
    _lerp on numpy's virtual index and weight.  A column with a NaN takes
    np.quantile itself, whose answer is NaN.  Where -0.0 and 0.0 tie,
    either partition may leave either zero at a rank, so the sign of a
    zero quantile may differ; squared draws hold no -0.0.
    """
    q = np.asarray(levels, dtype=float)
    n = x.shape[0]
    virtual = (n - 1) * q  # numpy's virtual index for the linear method
    below = np.floor(virtual)
    # numpy's weight: an index past the last entry counts from -1
    gamma = virtual - np.where(virtual >= n - 1, -1.0, below)
    lo = np.minimum(below, n - 1).astype(int).tolist()
    hi = np.minimum(np.add(lo, 1), n - 1).tolist()
    ranks = sorted(set(lo) | set(hi), reverse=True)

    def column(c):
        work = np.array(c)
        if math.isnan(work.max()):
            return np.quantile(c, levels)
        order, top = {}, n
        for r in ranks:
            if r == top - 1:
                order[r] = work[:top].max()
            else:
                work[:top].partition(r)
                order[r], top = work[r], r
        a = np.array([order[r] for r in lo])
        b = np.array([order[r] for r in hi])
        diff = b - a
        out = a + diff * gamma
        np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
        return out

    return np.array(_in_pool(column, x.T)).T


def default_family(reference_draws, variance: float = 1.0) -> IncreasingFunctionFamily:
    """Orthant indicators at marginal quantiles, projections, max, min,
    and one soft orthant; thresholds come from the reference draws.

    variance is the kernel's largest variance, positive and finite.  The
    soft orthant's slope is SOFT_INDICATOR_SLOPE / 4^j, with j =
    _dyadic_scale(variance), so at 4^k x under 4^k G it takes the value
    it takes at x under G.
    """
    if not (math.isfinite(variance) and variance > 0):
        raise InputFormatError(f"variance must be positive and finite, got {variance}")
    x = np.asarray(reference_draws, dtype=float)
    if x.ndim != 2 or x.shape[0] < 10:
        raise InputFormatError("need an N x n draw matrix with N >= 10")
    n = x.shape[1]
    levels = defaults.ORTHANT_QUANTILES + (0.5,)
    *thresholds, median = _column_quantiles(x, levels)
    members = [(f"orthant_q{int(round(100 * q))}", _orthant(t))
               for q, t in zip(defaults.ORTHANT_QUANTILES, thresholds)]
    for i in range(n):
        members.append((f"proj_{i}", _projection(i)))
    # column by column, as in _orthant: a reduction along the short row axis
    # is slow, and these operations are exact, so the values match axis=1
    members.append(("max", lambda v: reduce(np.maximum, v.T)))
    members.append(("min", lambda v: reduce(np.minimum, v.T)))
    slope = math.ldexp(defaults.SOFT_INDICATOR_SLOPE, -2 * _dyadic_scale(variance))
    members.append(("soft_orthant", _soft_orthant(median, slope)))
    return IncreasingFunctionFamily(tuple(members))


# jackknife blocks per pool task in association_mc_test: the statistics
# of one block are small operations that hold the GIL, and a task per
# block ran slower on two threads than on one
_BLOCKS_PER_TASK = 4


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
    noise around zero both count as holds-within-CI.  Each family member
    must give one finite value per draw, and n_draws must be a whole
    number of at least 2; otherwise InputFormatError is raised before any
    pair is formed.  Only the column sums and Gram matrix V.T @ V of each
    jackknife block's member values V are kept; a statistic that is not
    finite raises NonFiniteError.
    """
    seed = _read_seed(defaults.DEFAULT_SEED if seed is None else seed)
    n, k = _draw_count(n_draws), spec.k
    # sample_permanental's draws, column-major for the members' column passes
    draws = np.empty((n, spec.kernel.dim), order="F")

    def put(rows, psi):
        draws[rows] = psi

    _square_sums(_sqrt_factor(spec.kernel), n, k, seed, put)
    draws.flags.writeable = False
    if family is None:
        # a zero kernel's draws are all 0, where every slope gives the same family
        family = default_family(draws, np.max(np.diagonal(spec.kernel.entries)) or 1.0)
    if n < 2:
        raise InputFormatError("the jackknife needs at least two draws")
    blocks = min(defaults.JACKKNIFE_BLOCKS, n)
    edges = np.linspace(0, n, blocks + 1).astype(int)
    names = [name for name, _ in family.members]
    sums = np.empty((blocks, len(names)))
    grams = np.empty((blocks, len(names), len(names)))
    rest = n - np.diff(edges)
    firsts = range(0, blocks, _BLOCKS_PER_TASK)

    def run(first):
        """Members on jackknife blocks first .. first + _BLOCKS_PER_TASK - 1
        at once, then each block's column sums and Gram matrix from its
        rows.  A value that is not finite, or not one per draw, raises for
        the first such block, then member, as a block-by-block pass would.

        The members see draws[lo:hi], a view of the one column-major draw
        array, not a copy: its columns are contiguous runs, and numpy
        refuses to make it writable, since draws is read-only.  The values
        fill the C-order rows of the task's own value array."""
        group = range(first, min(first + _BLOCKS_PER_TASK, blocks))
        lo, hi = edges[first], edges[group[-1] + 1]
        x, v = draws[lo:hi], np.empty((hi - lo, len(names)))
        for j, (name, f) in enumerate(family.members):
            try:
                values = np.asarray(f(x), dtype=float)
            except ValueError as exc:
                # numpy's words for a write to, or a WRITEABLE flag set on, a read-only view
                if "read-only" not in str(exc) and "WRITEABLE" not in str(exc):
                    raise
                raise InputFormatError(f"family member {name!r} must not write to "
                                       "the draws it is given") from exc
            v[:, j] = values if values.shape == (hi - lo,) else np.nan
        for b in group:
            s = v[edges[b] - lo:edges[b + 1] - lo]
            sums[b] = s.sum(axis=0)
        # a sum is finite only if every value is; the search only on error
        if not np.isfinite(sums[group.start:group.stop]).all():
            for b in group:
                finite = np.isfinite(v[edges[b] - lo:edges[b + 1] - lo]).all(axis=0)
                if not finite.all():
                    raise InputFormatError(f"family member {names[np.argmin(finite)]!r} "
                                           "must give one finite value per draw")
        for b in group:
            s = v[edges[b] - lo:edges[b + 1] - lo]
            grams[b] = s.T @ s

    # overflow leaves inf or NaN, which the check below turns into an error
    with np.errstate(over="ignore", invalid="ignore"):
        _in_pool(run, firsts)
        total, gram = sums.sum(axis=0), grams.sum(axis=0)
        cov = gram / n - np.multiply.outer(total / n, total / n)
        loo_mean = (total - sums) / rest[:, None]
        loo = ((gram - grams) / rest[:, None, None]
               - loo_mean[:, :, None] * loo_mean[:, None, :])
        dev = loo - loo.mean(axis=0)
        # squares of deviations divided by a power of two per pair stay
        # finite at any kernel scale; the division is exact
        scale = np.frexp(np.abs(dev).max(axis=0))[1]
        ss = (np.ldexp(dev, -scale) ** 2).sum(axis=0)
        se = np.ldexp(np.sqrt((blocks - 1) / blocks * ss), scale)
        z = np.divide(cov, se, out=np.zeros_like(cov), where=se > 0)
    iu, ju = np.triu_indices(len(names), 1)  # pairs a < b, row-major
    cov, se, z = cov[iu, ju], se[iu, ju], z[iu, ju]
    if not np.isfinite([cov, se, z]).all():
        raise NonFiniteError("the association statistics are not finite")
    rows = [{"f": names[a], "h": names[b], "cov": c, "se": s, "z": t}
            for a, b, c, s, t in zip(iu, ju, cov.tolist(), se.tolist(), z.tolist())]
    worst = rows[int(np.argmin(z))]
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
    return AssociationReport(verdict, tuple(rows), n, seed)


def random_scalings(n: int, count: int, seed: int) -> list:
    """count deterministic positive diagonal scalings, log-uniform on [0.05, 20]."""
    if count < 1 or n < 1:
        raise InputFormatError("need positive count and dimension")
    gen = np.random.Generator(np.random.Philox(key=np.uint64(_read_seed(seed))))
    return list(np.exp(gen.uniform(np.log(0.05), np.log(20.0), size=(count, n))))


def resolvent_monotonicity_scan(G: KernelMatrix, alphas=None,
                                D_set=None) -> Verdict:
    """Check E|eta_alpha(i) eta_alpha(j)| is nonincreasing in alpha.

    G must be positive semidefinite: a kernel with a negative eigenvalue
    raises NotPSDError (the CLI exits 3).  For every positive diagonal
    scaling D and every pair (i,j), the closed form evaluated on
    resolvent(DGD, alpha) entries must not increase between consecutive
    grid points; the witness is the first (D, i, j, alpha pair) where it
    does, from one stacked resolvent solve and one moment array per D.
    A coordinate with G_ii <= 0 is identically 0, so its pairs' moments
    are 0 at every alpha: the scan skips it, and witness pairs keep G's
    own indices.

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
    alphas = alpha_grid(np.linspace(0.0, defaults.MONOTONE_ALPHA_MAX,
                                    defaults.MONOTONE_ALPHA_POINTS)
                        if alphas is None else alphas)
    psd_eigh(G)
    if D_set is None:
        D_set = [np.ones(G.dim)]
    n = G.dim
    live = np.flatnonzero(np.diagonal(G.entries) > 0)
    g = G.entries[np.ix_(live, live)]
    iu, ju = np.triu_indices(live.size, 1)  # pairs i < j, row-major
    for d_index, d in enumerate(D_set):
        d = np.asarray(d, dtype=float)
        if d.shape != (n,) or np.min(d) <= 0:
            raise InputFormatError("scalings must be positive length-n vectors")
        if iu.size == 0:
            continue
        dl = d[live]
        r = _resolvents(KernelMatrix(g * np.outer(dl, dl), symmetric=True), alphas)
        sd = np.sqrt(np.diagonal(r, axis1=1, axis2=2))
        # |rho| <= 1 holds within the PSD screen's tolerance
        rho = np.clip(r[:, iu, ju] / (sd[:, iu] * sd[:, ju]), -1.0, 1.0)
        moments = abs_product_moment(sd[:, iu], sd[:, ju], rho)
        rise = np.diff(moments, axis=0).T  # pair-major, then alpha step
        bad = rise > defaults.MONOTONE_TOL
        if bad.any():
            p, t = np.unravel_index(np.argmax(bad), bad.shape)
            return Verdict.fail(
                {"scaling_index": d_index,
                 "scaling": [float(v) for v in d],
                 "pair": [int(live[iu[p]]), int(live[ju[p]])],
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
    pairs ascending, then row-major over the column pair.  Each x-row i1
    is one array pass over (i2, j1, j2), so memory stays at a few
    nx * ny^2 slabs, not the whole nx^2 * ny^2 lattice.
    """
    i = np.arange(len(gx))
    j = np.arange(len(gy))
    jmax = np.maximum.outer(j, j)
    jmin = np.minimum.outer(j, j)
    for i1 in range(len(gx)):
        lhs = F_hi[i1][None, :, None] * F_lo[:, None, :]
        rhs = F_hi[np.maximum(i1, i)][:, jmax] * F_lo[np.minimum(i1, i)][:, jmin]
        viol = lhs > rhs * (1.0 + tol)
        if viol.any():
            i2, j1, j2 = map(int, np.argwhere(viol)[0])
            return {
                "x": [float(gx[i1]), float(gy[j1])],
                "y": [float(gx[i2]), float(gy[j2])],
                "lhs": float(lhs[i2, j1, j2]),
                "rhs": float(rhs[i2, j1, j2]),
            }
    return None


def _pair_lattice(G, r: float, r_lo: float):
    """First violation of f_r(x) f_r_lo(y) <= f_r(x v y) f_r_lo(x ^ y), or None.

    f_s is the density of ((eta_1+s)^2, (eta_2+s)^2) under the 2x2
    kernel G, which must be symmetric (else InputFormatError) and pass
    psd_eigh's strict screen (else NotPositiveDefiniteError).  Each axis
    is geometric between the pooled marginal quantiles of the two
    shifted laws; when r = r_lo that is marginal_quantile_grid's grid.
    The test runs on the pair divided by 4^j and the shifts by 2^j, with
    j = _dyadic_scale(max variance), so 4^k G with shifts 2^k r gets G's
    verdict and witness for every integer k: lhs and rhs are the divided
    pair's, and x and y are multiplied back with ldexp.
    """
    v1, v2, c = _pd_pair(G)
    j = _dyadic_scale(max(v1, v2))
    pair = np.ldexp([[v1, c], [c, v2]], -2 * j)
    # one key when r = r_lo, so FKG builds each grid and density once
    shifts = dict.fromkeys((math.ldexp(r, -j), math.ldexp(r_lo, -j)))
    axes = []
    for v in (pair[0, 0], pair[1, 1]):
        grids = [marginal_quantile_grid(v, s) for s in shifts]
        axes.append(np.geomspace(min(g[0] for g in grids), max(g[-1] for g in grids),
                                 defaults.LATTICE_GRID_SIZE))
    gx, gy = axes
    F = [squared_pair_density(pair, s)(gx[:, None], gy[None, :]) for s in shifts]
    if not all(np.all(np.isfinite(f)) for f in F):
        raise NonFiniteError("the pair density is not finite on the lattice")
    witness = _cross_lattice_check(F[0], F[-1], gx, gy, defaults.LATTICE_REL_TOL)
    if witness is not None:
        for key in ("x", "y"):
            witness[key] = [math.ldexp(t, 2 * j) for t in witness[key]]
    return witness


def fkg_lattice_test(G: KernelMatrix, shift: float = 0.0) -> Verdict:
    """Check h(x)h(y) <= h(x^y)h(x v y) over all pairs of lattice points,
    for the density h of ((eta_1+shift)^2, (eta_2+shift)^2) under the
    2x2 kernel G on _pair_lattice's grid."""
    witness = _pair_lattice(G, shift, shift)
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


def shifted_strong_order_test(G: KernelMatrix, r_pairs) -> StrongOrderReport:
    """Check f_r(x) f_r'(y) <= f_r(x v y) f_r'(x ^ y) for shifts r > r'.

    f_r is the density of ((eta_1+r)^2, (eta_2+r)^2) under the 2x2
    kernel G, tested on _pair_lattice's grid.
    """
    pairs = [(float(r), float(rp)) for r, rp in r_pairs]
    if not pairs:
        raise InputFormatError("need at least one (r, r') pair")
    for r, rp in pairs:
        if not r > rp >= 0:
            raise InputFormatError(f"need r > r' >= 0, got ({r}, {rp})")
    per_pair = []
    overall = None
    for r, rp in pairs:
        witness = _pair_lattice(G, r, rp)
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
