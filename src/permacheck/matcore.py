"""Dense square-matrix primitives.

Kernel matrices, resolvents, eigenvalue screens, and the sign-product
and M-matrix tests of the necessary battery and the Green recognizer.
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
from .errors import InputFormatError, SingularMatrixError
from .verdict import Verdict

__all__ = [
    "KernelMatrix",
    "Signature",
    "MMatrixReport",
    "kernel",
    "identity",
    "invert",
    "resolvent",
    "real_eigen_nonneg",
    "sign_product_violation",
    "is_m_matrix",
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
    """Square real matrix with a declared symmetry flag.

    Plays the role of a covariance or permanental kernel.  Entries are
    immutable after construction.
    """

    entries: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        a = _as_square_array(self.entries)
        if self.symmetric:
            skew = float(np.max(np.abs(a - a.T)))
            if skew > defaults.TOL_ALGEBRAIC * float(np.max(np.abs(a))):
                raise InputFormatError(
                    f"symmetry flag set but max |G - G^T| = {skew:g}")
            a = 0.5 * (a + a.T)
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

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
    a = _as_square_array(entries)
    if symmetric is None:
        scale = float(np.max(np.abs(a)))
        symmetric = float(np.max(np.abs(a - a.T))) <= defaults.TOL_ALGEBRAIC * scale
    return KernelMatrix(a, symmetric)


def identity(n: int) -> KernelMatrix:
    return KernelMatrix(np.eye(n), symmetric=True)


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

    @property
    def dim(self) -> int:
        return self.signs.size

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
        h = 0.5 * (h + h.T)
    return KernelMatrix(h, symmetric=G.symmetric)


def _resolvents(G: KernelMatrix, alphas) -> tuple:
    """Resolvents over an alpha grid from one stacked solve, as (stack, error).

    stack[t] is resolvent(G, alphas[t]).entries, bit for bit, for every alpha
    before the first that is negative or makes cond(I + alpha*G) exceed
    COND_CAP; error is that alpha's exception, or None."""
    alphas = np.asarray(alphas, dtype=float)
    a = G.entries
    lhs = np.eye(G.dim) + alphas[:, None, None] * a
    conds = _cond_estimate(lhs)
    bad = (alphas < 0) | ~(conds <= defaults.COND_CAP)
    t = int(np.argmax(np.append(bad, True)))  # the first bad alpha, or alphas.size
    r = np.linalg.solve(lhs[:t], a)
    if G.symmetric:
        r = 0.5 * (r + r.swapaxes(1, 2))
    r[alphas[:t] == 0] = a
    if t == alphas.size:
        return r, None
    if alphas[t] < 0:
        return r, InputFormatError("resolvent requires alpha >= 0")
    cond = float(conds[t])
    return r, SingularMatrixError(
        f"I + {float(alphas[t])}*G is singular or ill-conditioned (cond ~ {cond:.3e})", cond)


def resolvent(G: KernelMatrix, alpha: float) -> KernelMatrix:
    """The alpha-resolvent (I + alpha*G)^(-1) G; equals G at alpha = 0.
    _resolvents gives a whole alpha grid from one stacked solve."""
    r, error = _resolvents(G, [alpha])
    if error is not None:
        raise error
    return KernelMatrix(r[0], symmetric=G.symmetric)


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


@dataclass(frozen=True)
class MMatrixReport:
    """Two sub-verdicts: (a) off-diagonals nonpositive; (b) additionally
    all row sums nonnegative (the diagonally dominant variant)."""

    off_diagonal: Verdict
    diagonally_dominant: Verdict

    def to_dict(self) -> dict:
        return {
            "off_diagonal": self.off_diagonal.to_dict(),
            "diagonally_dominant": self.diagonally_dominant.to_dict(),
        }


def sign_product_violation(a: np.ndarray):
    """First negative pair or cyclic triple product of a, or None.

    Pair products a(i,j)a(j,i) come first, over i < j in row-major order;
    then the cyclic triple products a(j,i)a(j,k)a(k,i) over distinct
    (i,j,k) in lexicographic order.  With scale = max(1, max|a|), a
    pair below -TOL_ALGEBRAIC*scale^2 or a triple below
    -TOL_ALGEBRAIC*scale^3 is a violation, returned as
    (kind, indices, value) with kind "pair" or "triple".  The floor of 1
    stays, unlike the relative screens: the benchmark's oracle
    (bench/oracle.py) mirrors this test to pin battery verdicts.
    """
    scale = max(1.0, float(np.max(np.abs(a))))
    pairs = a * a.T
    bad = np.triu(pairs < -defaults.TOL_ALGEBRAIC * scale ** 2, 1)
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        return "pair", (int(i), int(j)), float(pairs[i, j])
    at = a.T
    # triples[i, j, k] = (a[j, i] * a[j, k]) * a[k, i], the loop's order
    triples = (at[:, :, None] * a[None, :, :]) * at[:, None, :]
    ne = ~np.eye(a.shape[0], dtype=bool)
    distinct = ne[:, :, None] & ne[None, :, :] & ne[:, None, :]
    bad = distinct & (triples < -defaults.TOL_ALGEBRAIC * scale ** 3)
    if bad.any():
        i, j, k = np.unravel_index(np.argmax(bad), bad.shape)
        return "triple", (int(i), int(j), int(k)), float(triples[i, j, k])
    return None


def is_m_matrix(M) -> MMatrixReport:
    """Sign tests behind the Green recognizer.

    The off-diagonal witness is the first positive entry in row-major
    order; the row-sum witness is the first negative row sum.
    """
    a = _as_square_array(M.entries if isinstance(M, KernelMatrix) else M)
    tol = defaults.TOL_ALGEBRAIC * max(1.0, float(np.max(np.abs(a))))
    bad = (a > tol) & ~np.eye(a.shape[0], dtype=bool)
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        off = Verdict.fail({"entry": [int(i), int(j)], "value": float(a[i, j])},
                           "positive off-diagonal entry")
        return MMatrixReport(
            off, Verdict.fail(off.witness, "off-diagonal sign test already fails"))
    sums = a.sum(axis=1)
    low = np.flatnonzero(sums < -tol)
    if low.size:
        i = int(low[0])
        return MMatrixReport(Verdict.ok(), Verdict.fail(
            {"row": i, "row_sum": float(sums[i])}, "negative row sum"))
    return MMatrixReport(Verdict.ok(), Verdict.ok())


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
