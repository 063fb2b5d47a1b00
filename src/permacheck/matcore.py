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
    "kernel_from_dict",
    "alpha_grid",
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
        raise InputFormatError(f"matrix rows must be real numbers of equal length: {exc}") from exc
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise InputFormatError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputFormatError("matrix entries must be finite")
    return a


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Square real matrix with a symmetry flag.

    Plays the role of a covariance or permanental kernel.  symmetric=None,
    the default, infers the flag: set iff max |G - G^T| <= TOL_ALGEBRAIC *
    max|G|, the same test a declared True must pass.  A symmetric kernel is
    stored as 0.5 * G + 0.5 * G^T, which cannot overflow where G + G^T can.
    Entries are immutable after construction.
    """

    entries: np.ndarray
    symmetric: bool | None = None

    def __post_init__(self):
        a = _as_square_array(self.entries)
        symmetric = self.symmetric
        if not (symmetric is None or isinstance(symmetric, (bool, np.bool_))):
            raise InputFormatError(f"symmetry flag must be a boolean or null, got {symmetric!r}")
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


kernel = KernelMatrix


def kernel_from_dict(obj) -> KernelMatrix:
    """Reads the object KernelMatrix.to_dict writes: "entries", and optionally
    "dim", the integer row count, and "symmetric", a boolean or null (infer)."""
    if not isinstance(obj, dict) or "entries" not in obj:
        raise InputFormatError('a kernel object needs an "entries" field')
    G = KernelMatrix(obj["entries"], obj.get("symmetric"))
    dim = obj.get("dim", G.dim)
    if type(dim) is not int or dim != G.dim:  # a bool is not a dim
        raise InputFormatError(f'"dim" must be the integer {G.dim}, got {dim!r}')
    return G


def alpha_grid(alphas) -> list:
    """alphas as a list of floats that is nonempty, finite, nonnegative and
    strictly increasing: the order in which the scans report."""
    grid = [float(a) for a in alphas]
    if not (grid and grid[0] >= 0 and all(map(math.isfinite, grid))
            and all(a < b for a, b in zip(grid, grid[1:]))):
        raise InputFormatError("an alpha grid must be nonempty, finite, nonnegative "
                               f"and strictly increasing, got {grid}")
    return grid


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
    """Inverse of G, refused (SingularMatrixError) by two rules.  The
    residual ||G H - I||_inf <= TOL_ROUNDTRIP binds first, from cond ~1e8:
    I - (J - I)/2*(1 - 1e-9), J all ones 3x3, has cond 1.5e9 and residual
    5.6e-8.  cond <= COND_CAP binds only where the residual stays small,
    as on diag(1, 1e-13), and in _resolvents' solves."""
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

    With floor = PSD_REL * max|G|: lam[0] < -floor raises NotPSDError; with
    strict=True, lam[0] in [-floor, floor] raises NotPositiveDefiniteError.
    """
    if not G.symmetric:
        raise InputFormatError("positive-semidefiniteness screen needs a symmetric kernel")
    lam, vec = np.linalg.eigh(G.entries)
    floor = defaults.PSD_REL * float(np.max(np.abs(G.entries)))
    if lam[0] < -floor:
        raise NotPSDError(f"smallest eigenvalue {lam[0]:g} is negative", float(lam[0]))
    if strict and lam[0] <= floor:
        raise NotPositiveDefiniteError(
            f"smallest eigenvalue {lam[0]:g} is not positive", float(lam[0]))
    return lam, vec


def real_eigen_nonneg(G: KernelMatrix) -> Verdict:
    """Reads G's real eigenvalues (|Im| <= EIGEN_IMAG_REL * ||G||_inf)
    against psd_eigh's floor, PSD_REL * max|G|: fails on the first below
    -floor, inconclusive when one lies within the floor of 0, holds when
    every one exceeds it.  No cut has an absolute floor, so the verdict
    on c*G is the verdict on G."""
    a = G.entries
    try:
        eig = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        return Verdict.unknown(f"eigenvalue solver did not converge: {exc}")
    real = eig[np.abs(eig.imag) <= defaults.EIGEN_IMAG_REL * float(np.linalg.norm(a, np.inf))]
    floor = defaults.PSD_REL * float(np.max(np.abs(a)))
    if np.any(real.real < -floor):
        lam = real[np.argmax(real.real < -floor)]
        return Verdict.fail({"eigenvalue": {"re": float(lam.real), "im": float(lam.imag)}},
                            "a real eigenvalue is negative")
    if np.any(real.real <= floor):
        return Verdict.unknown("a real eigenvalue lies within PSD_REL * max|G| of 0")
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
            return kernel_from_dict(json.loads(stripped))
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"bad matrix JSON: {exc}") from exc
    rows = []
    for rec in csv.reader(io.StringIO(stripped)):
        if not rec or all(not cell.strip() for cell in rec):
            continue
        try:
            rows.append([float(cell) for cell in rec])
        except ValueError as exc:
            raise InputFormatError(f"bad CSV cell: {exc}") from exc
    return KernelMatrix(rows)


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
