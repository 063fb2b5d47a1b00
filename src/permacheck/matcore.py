"""Dense square-matrix primitives.

Kernel matrices, resolvents, eigenvalue screens (psd_eigh is the one
positive-semidefiniteness screen), and the sign-product test of the
necessary battery.
All dimensions are desk scale (<= ~12), stored dense row-major.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import InputFormatError, NotPositiveDefiniteError, NotPSDError, SingularMatrixError
from .verdict import Verdict

__all__ = [
    "KernelMatrix",
    "Signature",
    "kernel",
    "invert",
    "resolvent",
    "psd_eigh",
    "real_eigen_nonneg",
    "sign_product_violation",
    "load_matrix",
    "loads_matrix",
    "save_matrix",
    "dumps_matrix",
]


def _as_square_array(entries) -> np.ndarray:
    try:
        a = np.array(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"matrix entries must be real numbers: {exc}") from exc
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise InputFormatError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputFormatError("matrix entries must be finite")
    return a


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Square real matrix with a symmetry flag.

    Plays the role of a covariance or permanental kernel.  symmetric=None
    infers the flag: set iff max |G - G^T| <= TOL_ALGEBRAIC * max|G|, the
    same test a declared flag must pass.  A symmetric kernel is stored as
    0.5 * G + 0.5 * G^T, which cannot overflow where G + G^T can.  Entries
    are immutable after construction.
    """

    entries: np.ndarray
    symmetric: bool | None = False

    def __post_init__(self):
        a = _as_square_array(self.entries)
        symmetric = self.symmetric
        if symmetric or symmetric is None:
            skew = float(np.max(np.abs(a - a.T)))
            within = skew <= defaults.TOL_ALGEBRAIC * float(np.max(np.abs(a)))
            if symmetric is None:
                symmetric = within
            elif not within:
                raise InputFormatError(
                    f"symmetry flag set but max |G - G^T| = {skew:g}")
        if symmetric:
            a = 0.5 * a + 0.5 * a.T
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "symmetric", bool(symmetric))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "symmetric": self.symmetric,
            "entries": [[float(v) for v in row] for row in self.entries],
        }


def kernel(entries, symmetric: bool | None = None) -> KernelMatrix:
    """Build a KernelMatrix, inferring the symmetry flag when not declared."""
    return KernelMatrix(entries, symmetric)


@dataclass(frozen=True, eq=False)
class Signature:
    """Vector of +-1 signs; the sigma of sigma*G*sigma conjugations."""

    signs: np.ndarray

    def __post_init__(self):
        s = np.array(self.signs, dtype=float)
        if s.ndim != 1 or s.size == 0 or not np.all(np.abs(s) == 1.0):
            raise InputFormatError("signature entries must be exactly -1 or +1")
        s.flags.writeable = False
        object.__setattr__(self, "signs", s)

    def to_list(self) -> list:
        return [int(v) for v in self.signs]


def _cond_estimate(a: np.ndarray):
    """cond(a), or one per matrix of a stack; inf where the SVD fails."""
    try:
        return np.linalg.cond(a)
    except np.linalg.LinAlgError:  # one bad matrix fails the whole stack
        return np.array([_cond_estimate(x) for x in a]) if a.ndim > 2 else math.inf


def invert(G: KernelMatrix) -> KernelMatrix:
    """Inverse of G.

    Raises SingularMatrixError when the condition estimate exceeds the
    configured cap or the residual ||G H - I||_inf misses tolerance.
    """
    a = G.entries
    cond = float(_cond_estimate(a))
    if not math.isfinite(cond) or cond > defaults.COND_CAP:
        raise SingularMatrixError(
            f"matrix is singular or ill-conditioned (cond ~ {cond:.3e})", cond)
    h = np.linalg.inv(a)
    resid = float(np.max(np.abs(a @ h - np.eye(G.dim))))
    if resid > defaults.TOL_ROUNDTRIP:
        raise SingularMatrixError(
            f"inverse residual {resid:.3e} exceeds tolerance (cond ~ {cond:.3e})", cond)
    if G.symmetric:
        h = 0.5 * h + 0.5 * h.T
    return KernelMatrix(h, symmetric=G.symmetric)


def _resolvents(G: KernelMatrix, alphas) -> np.ndarray:
    """Resolvent entries over an alpha grid from one stacked solve.

    The first alpha in grid order that is negative, or makes
    cond(I + alpha*G) exceed COND_CAP, raises before anything is solved."""
    alphas = np.asarray(alphas, dtype=float)
    a = G.entries
    lhs = np.eye(G.dim) + alphas[:, None, None] * a
    conds = _cond_estimate(lhs)
    for alpha, cond in zip(alphas.tolist(), conds.tolist()):
        if alpha < 0:
            raise InputFormatError("resolvent requires alpha >= 0")
        if not cond <= defaults.COND_CAP:
            raise SingularMatrixError(
                f"I + {alpha}*G is singular or ill-conditioned (cond ~ {cond:.3e})", cond)
    r = np.linalg.solve(lhs, a)
    if G.symmetric:
        r = 0.5 * r + 0.5 * r.swapaxes(1, 2)
    r[alphas == 0] = a
    return r


def resolvent(G: KernelMatrix, alpha: float) -> KernelMatrix:
    """The alpha-resolvent (I + alpha*G)^(-1) G; equals G at alpha = 0."""
    return KernelMatrix(_resolvents(G, [alpha])[0], symmetric=G.symmetric)


def psd_eigh(G: KernelMatrix, strict: bool = False) -> tuple:
    """Ascending eigenvalues and eigenvectors (lam, V) of a symmetric kernel
    that passes the positive-semidefiniteness screen.

    With floor = PSD_REL * max|G|: lam[0] < -floor raises NotPSDError;
    with strict=True, lam[0] <= floor raises NotPositiveDefiniteError.
    """
    if not G.symmetric:
        raise InputFormatError("positive-semidefiniteness screen needs a symmetric kernel")
    lam, vec = np.linalg.eigh(G.entries)
    floor = defaults.PSD_REL * float(np.max(np.abs(G.entries)))
    if strict and lam[0] <= floor:
        raise NotPositiveDefiniteError(
            f"smallest eigenvalue {lam[0]:g} is not positive", float(lam[0]))
    if lam[0] < -floor:
        raise NotPSDError(f"smallest eigenvalue {lam[0]:g} is negative", float(lam[0]))
    return lam, vec


def real_eigen_nonneg(G: KernelMatrix) -> Verdict:
    """Checks that every (numerically) real eigenvalue of G is nonnegative.

    Both cuts are relative to ||G||_inf, with no absolute floor, so the
    verdict on c*G is the verdict on G."""
    a = G.entries
    try:
        eig = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        return Verdict.unknown(f"eigenvalue solver did not converge: {exc}")
    scale = float(np.linalg.norm(a, np.inf))
    imag_cut = defaults.EIGEN_IMAG_REL * scale
    tol = defaults.TOL_ALGEBRAIC * scale
    for lam in eig:
        if abs(lam.imag) <= imag_cut and lam.real < -tol:
            return Verdict.fail(
                {"eigenvalue": {"re": float(lam.real), "im": float(lam.imag)}},
                "a real eigenvalue is negative")
    return Verdict.ok()


def sign_product_violation(a: np.ndarray):
    """First negative pair or cyclic triple product of a, or None.

    Pair products a(i,j)a(j,i) come first, over i < j in row-major order;
    then the cyclic triple products a(j,i)a(j,k)a(k,i) over distinct
    (i,j,k) in lexicographic order.  With scale = max(1, max|a|), a
    pair below -TOL_ALGEBRAIC*scale^2 or a triple below
    -TOL_ALGEBRAIC*scale^3 is a violation, returned as
    (kind, indices, value) with kind "pair" or "triple".  The floor of 1
    stays, unlike the relative screens: the benchmark's oracle
    (bench/oracle.py) mirrors this test to pin battery verdicts.  A
    threshold that overflows raises OverflowError before the products
    it bounds are formed.
    """
    scale = max(1.0, float(np.max(np.abs(a))))
    pair_floor = -defaults.TOL_ALGEBRAIC * scale ** 2
    pairs = a * a.T
    bad = np.triu(pairs < pair_floor, 1)
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        return "pair", (int(i), int(j)), float(pairs[i, j])
    triple_floor = -defaults.TOL_ALGEBRAIC * scale ** 3
    at = a.T
    # triples[i, j, k] = (a[j, i] * a[j, k]) * a[k, i], the loop's order
    triples = (at[:, :, None] * a[None, :, :]) * at[:, None, :]
    ne = ~np.eye(a.shape[0], dtype=bool)
    distinct = ne[:, :, None] & ne[None, :, :] & ne[:, None, :]
    bad = distinct & (triples < triple_floor)
    if bad.any():
        i, j, k = np.unravel_index(np.argmax(bad), bad.shape)
        return "triple", (int(i), int(j), int(k)), float(triples[i, j, k])
    return None


# ---------------------------------------------------------------------------
# matrix text format: CSV rows, or a JSON object
# {"dim": n, "symmetric": bool, "entries": [[...], ...]}

def loads_matrix(text: str) -> KernelMatrix:
    stripped = text.lstrip()
    if not stripped:
        raise InputFormatError("empty matrix input")
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"bad matrix JSON: {exc}") from exc
        if "entries" not in obj:
            raise InputFormatError('matrix JSON requires an "entries" field')
        rows = obj["entries"]
        if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
            raise InputFormatError('"entries" must be a list of rows')
        lengths = {len(r) for r in rows}
        if len(lengths) != 1:
            raise InputFormatError("ragged rows in matrix JSON")
        a = _as_square_array(rows)
        if "dim" in obj:
            try:
                dim = int(obj["dim"])
            except (TypeError, ValueError, OverflowError) as exc:
                raise InputFormatError(f'"dim" must be an integer: {exc}') from exc
            if dim != a.shape[0]:
                raise InputFormatError('"dim" does not match the entries')
        declared = obj.get("symmetric")
        return kernel(a, symmetric=None if declared is None else bool(declared))
    rows = []
    for rec in csv.reader(io.StringIO(stripped)):
        if not rec or all(not cell.strip() for cell in rec):
            continue
        try:
            rows.append([float(cell) for cell in rec])
        except ValueError as exc:
            raise InputFormatError(f"bad CSV cell: {exc}") from exc
    if not rows:
        raise InputFormatError("no rows in matrix CSV")
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise InputFormatError("ragged rows in matrix CSV")
    return kernel(rows)


def load_matrix(path) -> KernelMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"matrix file is not UTF-8 text: {exc}") from exc
    return loads_matrix(text)


def dumps_matrix(G: KernelMatrix) -> str:
    lines = [",".join(format(v, ".17g") for v in row) for row in G.entries]
    return "\n".join(lines) + "\n"


def save_matrix(G: KernelMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_matrix(G))
