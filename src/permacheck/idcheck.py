"""Infinite-divisibility verdicts for squared Gaussian and permanental kernels.

For symmetric positive definite kernels the signature M-matrix criterion
is exact: the squared vector is infinitely divisible (equivalently,
associated) iff some sign vector sigma makes sigma*G^(-1)*sigma an
M-matrix.  Nonsymmetric kernels get a three-stage verdict combining a
sufficient Green-kernel route with necessary positivity scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .betaperm import beta_positivity_scan, id_necessary_battery
from .errors import (
    InputFormatError,
    NegativeCrossProductError,
    NotPositiveDefiniteError,
    NotPSDError,
    SignConditionError,
    SignInconsistencyError,
    SingularMatrixError,
)
from .matcore import (
    KernelMatrix,
    Signature,
    invert,
    real_eigen_nonneg,
    sign_product_violation,
)
from .verdict import Verdict

__all__ = [
    "IdVerdict",
    "construct_signature",
    "bapat_test",
    "id_verdict",
    "symmetrize_pair_kernel",
    "shifted_pair_id_test",
]


@dataclass(frozen=True)
class IdVerdict:
    """Verdict plus the method that decided it.

    method is one of bapat-exact (symmetric kernels only),
    inverse-M-sufficient, battery-necessary.  signature is present iff
    the verdict holds via a signature-based method.
    """

    verdict: Verdict
    method: str
    signature: Signature | None = None

    @property
    def holds(self) -> bool:
        return self.verdict.holds

    @property
    def fails(self) -> bool:
        return self.verdict.fails

    @property
    def witness(self):
        return self.verdict.witness

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.to_dict(),
            "method": self.method,
            "signature": None if self.signature is None else self.signature.to_list(),
        }


def _edge_signs(a: np.ndarray):
    """Edge signs of a's off-diagonal pattern for _two_color, and the zero tol.

    Entries at most ZERO_REL * max(1, max|a|) in size count as zeros.
    Edge (i,j) takes the sign of a(i,j), or of a(j,i) where a(i,j) is
    zero, so the matrix is symmetric unless a(i,j) and a(j,i) have
    opposite signs, which _two_color reports as a conflict.
    """
    ztol = defaults.ZERO_REL * max(float(np.max(np.abs(a))), 1.0)
    s = np.sign(a)
    s[np.abs(a) <= ztol] = 0.0
    edges = np.where(s != 0, s, s.T)
    np.fill_diagonal(edges, 0.0)
    return edges, ztol


def _two_color(edges: np.ndarray) -> tuple:
    """Color nodes with +-1 so that sigma_i*sigma_j = edges[i,j] on every edge.

    edges holds +1, -1 (constraint) or 0 (no edge), with a zero diagonal.
    Each colored node checks all its edges, so an asymmetric pair
    edges[i,j] = -edges[j,i] always ends in a conflict.  Returns
    (sigma array, None) or (None, conflicting edge (i,j)).
    """
    n = edges.shape[0]
    sigma = np.zeros(n)
    for root in range(n):
        if sigma[root] != 0:
            continue
        sigma[root] = 1.0
        stack = [root]
        while stack:
            i = stack.pop()
            for j in np.flatnonzero(edges[i]).tolist():
                want = sigma[i] * edges[i, j]
                if sigma[j] == 0:
                    sigma[j] = want
                    stack.append(j)
                elif sigma[j] != want:
                    return None, (i, j)
    return sigma, None


def construct_signature(G: KernelMatrix) -> Signature:
    """Sign vector sigma with sigma(i)G(i,j)sigma(j) >= 0 entrywise.

    Requires the pairwise products G(i,j)G(j,i) and the cyclic triple
    products G(j,i)G(j,k)G(k,i) to be nonnegative (checked first).
    Signs are fixed at +1 on one root per connected component of the
    nonzero pattern and propagated; zero entries impose no constraint.
    """
    a = G.entries
    n = G.dim
    scale = max(1.0, float(np.max(np.abs(a))))
    found = sign_product_violation(a)
    if found is not None:
        kind, indices, v = found
        if kind == "pair":
            i, j = indices
            message = f"pairwise product G({i},{j})G({j},{i}) = {v:g} < 0"
        else:
            i, j, k = indices
            message = f"cyclic triple product at (i,j,k)=({i},{j},{k}) is {v:g} < 0"
        raise SignConditionError(message, indices, v)
    edges, ztol = _edge_signs(a)
    sigma, conflict = _two_color(edges)
    near = [[int(p), int(q)] for p in range(n) for q in range(n)
            if 0.0 < abs(a[p, q]) <= ztol]
    if conflict is not None:
        raise SignInconsistencyError(
            f"sign propagation conflicts on entry {conflict}; no consistent "
            "sign vector exists for this zero pattern", near)
    sig = Signature(sigma)
    worst = float(np.min(sig.conjugate(a)))
    if worst < -defaults.NEGATIVITY_REL * scale:
        raise SignInconsistencyError(
            f"propagated signs leave a negative entry ({worst:g}); the "
            "nonzero pattern admits no consistent sign vector", near)
    return sig


def _psd_screen(G: KernelMatrix, strict: bool) -> np.ndarray:
    if not G.symmetric:
        raise InputFormatError("positive-definiteness screen needs a symmetric kernel")
    w = np.linalg.eigvalsh(G.entries)
    scale = max(1.0, float(np.max(np.abs(G.entries))))
    floor = defaults.PSD_REL * scale
    if strict and w[0] <= floor:
        raise NotPositiveDefiniteError(
            f"smallest eigenvalue {w[0]:g} is not positive", float(w[0]))
    if not strict and w[0] < -floor:
        raise NotPSDError(
            f"smallest eigenvalue {w[0]:g} is negative", float(w[0]))
    return w


def _inverse_certificate(G: KernelMatrix, method: str) -> IdVerdict:
    """Searches for sigma making sigma*G^(-1)*sigma off-diagonally nonpositive.

    The sign constraints form a 2-coloring problem on the nonzero
    off-diagonal graph of G^(-1); the coloring is forced up to
    per-component flips, so a conflict is a proof of nonexistence.  A
    coloring that succeeds makes every off-diagonal entry above the zero
    tolerance negative, and the rest lie inside the TOL_ALGEBRAIC of an
    M-matrix sign test, so it needs none.  Raises SingularMatrixError from invert.
    """
    h = invert(G).entries
    edges, _ = _edge_signs(h)
    sigma, conflict = _two_color(-edges)
    if sigma is None:
        i, j = conflict
        return IdVerdict(
            Verdict.fail(
                {"conflict_entry": [int(i), int(j)], "value": float(h[i, j])},
                "inverse-sign constraints admit no consistent sign vector"),
            method)
    return IdVerdict(Verdict.ok("sigma G^-1 sigma has nonpositive off-diagonals"),
                     method, Signature(sigma))


def bapat_test(G: KernelMatrix) -> IdVerdict:
    """Exact ID verdict for symmetric positive definite kernels: the
    inverse certificate, after a strict positive-definiteness screen."""
    _psd_screen(G, strict=True)
    return _inverse_certificate(G, "bapat-exact")


def id_verdict(G: KernelMatrix, betas=None, alphas=None, m_max=None) -> IdVerdict:
    """Is the permanental vector with this kernel infinitely divisible?

    Prerequisites checked first: real eigenvalues nonnegative and the
    necessary sign battery.  Symmetric positive definite kernels get the
    exact signature criterion.  Otherwise: a sufficient inverse-M-matrix
    route, then a range-bounded positivity scan (grids configurable),
    then an honest inconclusive.  The verdict does not depend on the
    index beta: infinite divisibility is a property of the kernel.
    """
    eig = real_eigen_nonneg(G)
    if not eig.holds:
        return IdVerdict(eig, "battery-necessary")
    if G.symmetric:
        # exact criterion; the necessary battery can never disagree with it
        try:
            return bapat_test(G)
        except NotPositiveDefiniteError:
            pass  # PSD-singular: fall through to the scan stages
    battery = id_necessary_battery(G)
    if not battery.holds:
        return IdVerdict(battery, "battery-necessary")
    if not G.symmetric:
        # sufficient: sigma G^-1 sigma is a Z-matrix whose real eigenvalues,
        # the reciprocals of G's, are positive, hence an M-matrix
        try:
            certificate = _inverse_certificate(G, "inverse-M-sufficient")
            if certificate.holds:
                return certificate
        except SingularMatrixError:
            pass
    scan = beta_positivity_scan(G, betas=betas, alphas=alphas, m_max=m_max)
    if scan.verdict.fails:
        return IdVerdict(scan.verdict, "battery-necessary")
    return IdVerdict(
        Verdict.unknown("no exact criterion applies; positivity scan over "
                        f"{scan.scanned} triples found no witness"),
        "battery-necessary")


def symmetrize_pair_kernel(C: KernelMatrix) -> KernelMatrix:
    """2x2 reduction: same diagonal, off-diagonal sqrt(C(0,1)C(1,0)).

    Preserves |I + xC| for every nonnegative diagonal x, hence the
    permanental law, since only the product of the off-diagonals enters
    the determinant.
    """
    if C.dim != 2:
        raise InputFormatError("pair symmetrization is for 2x2 kernels only")
    a = C.entries
    if a[0, 0] <= 0 or a[1, 1] <= 0:
        raise InputFormatError("pair kernel needs positive diagonal entries")
    cross = a[0, 1] * a[1, 0]
    if cross < -defaults.TOL_ALGEBRAIC * max(1.0, float(np.max(np.abs(a)))) ** 2:
        raise NegativeCrossProductError(
            f"C(0,1)*C(1,0) = {cross:g} < 0; no symmetric equivalent exists")
    off = math.sqrt(max(cross, 0.0))
    return KernelMatrix(
        np.array([[a[0, 0], off], [off, a[1, 1]]]), symmetric=True)


def shifted_pair_id_test(v_x: float, c: float, v_y: float) -> Verdict:
    """Shift-stable ID test for a Gaussian pair with covariance [[v_x,c],[c,v_y]].

    Holds iff c >= 0 and c <= v_x*v_y.  The upper bound is applied as a
    product of the variances, exactly as stated; the verdict detail
    flags this reading since it is not scale-invariant.
    """
    if v_x <= 0 or v_y <= 0:
        raise InputFormatError("variances must be positive")
    det = v_x * v_y - c * c
    if det < -defaults.TOL_ALGEBRAIC * max(1.0, v_x * v_y):
        raise NotPSDError(
            f"[[v_x,c],[c,v_y]] is not positive semidefinite (det {det:g})",
            det)
    note = "upper bound applied as printed: c <= v_x*v_y (product of variances)"
    if c < 0:
        return Verdict.fail({"c": float(c), "reason": "negative covariance"}, note)
    bound = v_x * v_y
    if c > bound:
        return Verdict.fail(
            {"c": float(c), "bound": float(bound),
             "reason": "covariance exceeds the variance product"}, note)
    return Verdict.ok(note)
