"""Infinite-divisibility verdicts for squared Gaussian and permanental kernels.

For symmetric positive definite kernels the signature M-matrix criterion
is exact: the squared vector is infinitely divisible (equivalently,
associated) iff some sign vector sigma makes sigma*G^(-1)*sigma an
M-matrix.  Nonsymmetric kernels get a three-stage verdict combining a
sufficient Green-kernel route with necessary positivity scans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import defaults
from .betaperm import beta_positivity_scan, id_necessary_battery
from .errors import (
    InputFormatError,
    NotPositiveDefiniteError,
    SingularMatrixError,
)
from .matcore import KernelMatrix, Signature, invert, psd_eigh, real_eigen_nonneg
from .verdict import Verdict

__all__ = [
    "IdVerdict",
    "bapat_test",
    "id_verdict",
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


def _edge_signs(a: np.ndarray) -> np.ndarray:
    """Edge signs of a's off-diagonal pattern for _two_color.

    Entries at most ZERO_REL * max|a| in size count as zeros; the
    tolerance has no absolute floor, so the pattern of c*a is a's.
    Edge (i,j) takes the sign of a(i,j), or of a(j,i) where a(i,j) is
    zero, so the matrix is symmetric unless a(i,j) and a(j,i) have
    opposite signs, which _two_color reports as a conflict.
    """
    s = np.sign(a)
    s[np.abs(a) <= defaults.ZERO_REL * float(np.max(np.abs(a)))] = 0.0
    edges = np.where(s != 0, s, s.T)
    np.fill_diagonal(edges, 0.0)
    return edges


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
    sigma, conflict = _two_color(-_edge_signs(h))
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
    psd_eigh(G, strict=True)
    return _inverse_certificate(G, "bapat-exact")


def id_verdict(G: KernelMatrix) -> IdVerdict:
    """Is the permanental vector with this kernel infinitely divisible?

    Prerequisites checked first: real eigenvalues nonnegative and the
    necessary sign battery.  Symmetric positive definite kernels get the
    exact signature criterion.  Otherwise: a sufficient inverse-M-matrix
    route, then a positivity scan on the defaults table's grids, then an
    honest inconclusive.  The verdict does not depend on the
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
    scan = beta_positivity_scan(G)
    if scan.verdict.fails:
        return IdVerdict(scan.verdict, "battery-necessary")
    return IdVerdict(
        Verdict.unknown("no exact criterion applies; positivity scan over "
                        f"{scan.scanned} triples found no witness"),
        "battery-necessary")


def shifted_pair_id_test(v_x: float, c: float, v_y: float) -> Verdict:
    """Shift-stable ID test for a Gaussian pair with covariance [[v_x,c],[c,v_y]].

    The covariance must pass psd_eigh's screen (NotPSDError otherwise).
    Holds iff c >= 0 and c <= v_x*v_y.  The upper bound is applied as a
    product of the variances, exactly as stated; the verdict detail
    flags this reading since it is not scale-invariant.
    """
    if v_x <= 0 or v_y <= 0:
        raise InputFormatError("variances must be positive")
    psd_eigh(KernelMatrix(np.array([[v_x, c], [c, v_y]]), symmetric=True))
    note = "upper bound applied as printed: c <= v_x*v_y (product of variances)"
    if c < 0:
        return Verdict.fail({"c": float(c), "reason": "negative covariance"}, note)
    bound = v_x * v_y
    if c > bound:
        return Verdict.fail(
            {"c": float(c), "bound": float(bound),
             "reason": "covariance exceeds the variance product"}, note)
    return Verdict.ok(note)
