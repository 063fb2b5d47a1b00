"""Green matrices of finite transient chains and their stability laws.

A Green matrix here is the potential (I - Q)^(-1) of a sub-Markov
one-step kernel Q, up to a positive scalar.  The recognizer works from
the inverse: nonnegative entries, nonpositive inverse off-diagonals,
nonnegative inverse row sums.  Entrywise powers (exponent >= 1),
principal submatrices and all-ones shifts preserve the class; the
shift check doubles as a falsifier for non-Green kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import (
    InputFormatError,
    InvalidIndexError,
    NonFiniteError,
    SingularMatrixError,
    SpectralRadiusError,
)
from .idcheck import id_verdict
from .matcore import KernelMatrix, invert, kernel
from .verdict import Verdict

__all__ = [
    "TransientChain",
    "green_from_chain",
    "is_green",
    "hadamard_power",
    "PlusConstantReport",
    "plus_constant_check",
    "restriction",
]


@dataclass(frozen=True, eq=False)
class TransientChain:
    """Nonnegative one-step kernel Q with spectral radius < 1."""

    Q: np.ndarray

    def __post_init__(self):
        q = np.array(self.Q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] == 0:
            raise InputFormatError(f"chain kernel must be square, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise InputFormatError("chain kernel entries must be finite")
        if np.min(q) < 0:
            raise InputFormatError("chain kernel entries must be nonnegative")
        rho = float(np.max(np.abs(np.linalg.eigvals(q))))
        if rho >= 1.0 - defaults.TOL_ALGEBRAIC:
            raise SpectralRadiusError(
                f"spectral radius {rho:g} is not below 1; the chain is not transient",
                rho)
        q.flags.writeable = False
        object.__setattr__(self, "Q", q)

    @property
    def dim(self) -> int:
        return self.Q.shape[0]


def green_from_chain(chain: TransientChain) -> KernelMatrix:
    """Potential matrix G = sum_k Q^k = (I - Q)^(-1) of a transient chain."""
    q = chain.Q
    n = chain.dim
    g = np.linalg.inv(np.eye(n) - q)
    # potential equation G = I + QG; also guards the inversion
    resid = float(np.max(np.abs(g - np.eye(n) - q @ g)))
    if resid > 1e-9 * max(1.0, float(np.max(np.abs(g)))):
        raise SingularMatrixError(
            f"potential equation residual {resid:g} too large")
    return kernel(np.maximum(g, 0.0))  # exact nonnegativity can lose to roundoff


def is_green(G: KernelMatrix) -> Verdict:
    """Recognize (a positive multiple of) a transient-chain potential.

    holds: entries >= 0, nonsingular, inverse has nonpositive
    off-diagonals and nonnegative row sums.  When everything but the
    row-sum condition passes, the verdict is holds-up-to-density-factor:
    some positive diagonal D makes G = D g D with g a proper potential,
    but G itself is not one.  Every tolerance is relative, with no
    absolute floor, so the verdict on c*G (c > 0) is the verdict on G.
    """
    a = G.entries
    tol = defaults.TOL_ALGEBRAIC * float(np.max(np.abs(a)))
    i, j = np.unravel_index(np.argmin(a), a.shape)
    if a[i, j] < -tol:
        return Verdict.fail(
            {"entry": [int(i), int(j)], "value": float(a[i, j])},
            "negative entry")
    try:
        h = invert(G).entries
    except SingularMatrixError as exc:
        return Verdict.fail(
            {"cond_estimate": exc.cond_estimate}, "kernel is numerically singular")
    tol = defaults.TOL_ALGEBRAIC * float(np.max(np.abs(h)))
    bad = (h > tol) & ~np.eye(G.dim, dtype=bool)
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        return Verdict.fail({"entry": [int(i), int(j)], "value": float(h[i, j])},
                            "inverse has a positive off-diagonal entry")
    if np.any(h.sum(axis=1) < -tol):
        return Verdict(Verdict.HOLDS_UP_TO_DENSITY,
                       detail="inverse is an M-matrix but a row sum is negative: "
                              "Green only up to a positive density factor")
    return Verdict.ok("inverse is a row-diagonally-dominant M-matrix")


def hadamard_power(G: KernelMatrix, beta: float) -> KernelMatrix:
    """Entrywise power G(i,j)^beta for beta >= 1; overflow raises NonFiniteError."""
    if beta < 1.0:
        raise InputFormatError(
            "entrywise powers below 1 are rejected: stability is only "
            "asserted for exponents >= 1")
    a = G.entries
    tol = defaults.TOL_ALGEBRAIC * float(np.max(np.abs(a)))
    if np.min(a) < -tol:
        i, j = np.unravel_index(np.argmin(a), a.shape)
        raise InputFormatError(
            f"entrywise power needs nonnegative entries; G({i},{j}) = {a[i, j]:g}")
    with np.errstate(over="ignore"):
        powered = np.maximum(a, 0.0) ** float(beta)
    if not np.all(np.isfinite(powered)):
        raise NonFiniteError(f"entrywise power {beta:g} of a kernel with max|G| = "
                             f"{np.max(a):g} is not finite")
    return KernelMatrix(powered, symmetric=G.symmetric)


@dataclass(frozen=True)
class PlusConstantReport:
    """Per-c ID verdicts for the shifted kernels G + c * ones."""

    verdict: Verdict
    per_c: tuple  # of (c, IdVerdict)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.to_dict(),
            "per_c": [{"c": c, "id": v.to_dict()} for c, v in self.per_c],
        }


def plus_constant_check(G: KernelMatrix, c_grid=None) -> PlusConstantReport:
    """Run id_verdict on G + c*ones for each c in the grid.

    A Green kernel shifted by any positive constant stays infinitely
    divisible, so any per-c fails verdict falsifies Greenness; the
    aggregate is fails on the first failing c, holds when every c
    holds, inconclusive otherwise.
    """
    c_grid = tuple(defaults.C_GRID if c_grid is None else c_grid)
    if not c_grid or any(c <= 0 for c in c_grid):
        raise InputFormatError("c grid must be nonempty and positive")
    ones = np.ones((G.dim, G.dim))
    per_c = []
    for c in c_grid:
        shifted = KernelMatrix(G.entries + float(c) * ones, symmetric=G.symmetric)
        per_c.append((float(c), id_verdict(shifted)))
    for c, iv in per_c:
        if iv.verdict.fails:
            agg = Verdict.fail({"c": c, "inner": iv.verdict.witness},
                               f"shifted kernel G + {c}*ones is not infinitely divisible")
            return PlusConstantReport(agg, tuple(per_c))
    if all(iv.verdict.holds for _, iv in per_c):
        agg = Verdict.ok("every shifted kernel on the grid is infinitely divisible")
    else:
        open_cs = [c for c, iv in per_c if not iv.verdict.holds]
        agg = Verdict.unknown(
            f"no shifted kernel fails; verdict open at c in {open_cs}")
    return PlusConstantReport(agg, tuple(per_c))


def restriction(G: KernelMatrix, subset) -> KernelMatrix:
    """Principal submatrix on the given index subset (0-based, no repeats)."""
    idx = [int(i) for i in subset]
    if not idx:
        raise InvalidIndexError("restriction subset must be nonempty")
    if len(set(idx)) != len(idx):
        raise InvalidIndexError(f"repeated indices in restriction subset {idx}")
    for i in idx:
        if i < 0 or i >= G.dim:
            raise InvalidIndexError(
                f"index {i} out of range for dimension {G.dim}")
    sub = G.entries[np.ix_(idx, idx)]
    return KernelMatrix(sub, symmetric=G.symmetric)
