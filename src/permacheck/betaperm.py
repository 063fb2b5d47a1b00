"""Beta-permanents and positivity scans over index multisets.

The central object is per_b(A) = sum over permutations tau of
b^(number of cycles of tau) * prod_i A[i, tau(i)].  A subset dynamic
program collects the coefficients of b^k for a stack of same-size
matrices at once; the positivity scan runs it once per multiset size of
a resolvent, so one matrix product evaluates the whole beta grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import DimensionCapError, InputFormatError, NonFiniteError
from .matcore import KernelMatrix, _as_square_array, alpha_grid, resolvent, sign_product_violation
from .verdict import Verdict

__all__ = [
    "cycle_polynomial",
    "beta_permanent",
    "PositivityReport",
    "beta_positivity_scan",
    "id_necessary_battery",
    "multisets",
]


def cycle_polynomial(A) -> np.ndarray:
    """Coefficients c[0..m] with per_b(A) = sum_k c[k] * b**k.

    c[k] sums prod_i A[i,tau(i)] over permutations tau with exactly k
    cycles; c[0] is always 0 for m >= 1.  Runs the stacked DP below on a
    stack of one: O(3^m) array operations, fine for m <= 8.
    """
    a = _as_square_array(A.entries if isinstance(A, KernelMatrix) else A)
    m = a.shape[0]
    if m > defaults.PERMANENT_CAP:
        raise DimensionCapError(
            f"matrix dimension {m} exceeds the permanent cap {defaults.PERMANENT_CAP}")
    return _cycle_coefficients(a[:, :, None])[0]


# bound on the floats the stacked DP holds in one call of the scan (128 MB)
_DP_FLOATS = 1 << 24


def _dp_floats_per_matrix(m: int) -> int:
    """Floats _cycle_coefficients holds per m x m matrix of its stack: the
    single-cycle sums W and popcount + 1 coefficient rows per subset."""
    return (1 << m) * (m + 4) // 2


def _cycle_coefficients(a: np.ndarray) -> np.ndarray:
    """Cycle polynomials of the stack a[:, :, t] of m x m matrices, as (N, m+1).

    Each entry gets the multiplies and adds of the one-matrix DP on Python
    floats (kept in tests/oracles.py) in the same order, so rows match it
    bit for bit: the zero-factor terms it skips are +-0.0 while sums stay
    finite, and no sum, started at +0.0, is -0.0.  Memory: about
    _dp_floats_per_matrix(m) * N floats.
    """
    m, _, n = a.shape
    # W[mask]: sum over single cycles supported exactly on mask, rooted at min(mask)
    W = [None] * (1 << m)
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as on Python floats
        for s in range(m):
            r = m - s
            # P[mask][j]: paths from s through exactly {s + i : bit i of mask} to s+j, or None
            P = {1: [1.0] + [None] * (r - 1)}
            for mask in range(1, 1 << r, 2):
                # acc[k]: those paths, then a step to s+k; k = 0 closes a cycle
                acc = np.zeros((r, n))
                for j, w in enumerate(P.pop(mask)):
                    if w is not None:
                        acc += w * a[s + j, s:]
                W[mask << s] = acc[0].copy()
                for k in range(1, r):
                    if not mask & (1 << k):
                        P.setdefault(mask | (1 << k), [None] * r)[k] = acc[k]
        # partition DP: coef[mask] = cycle polynomial on mask, popcount(mask) + 1 rows
        coef = [None] * (1 << m)
        coef[0] = np.ones((1, n))
        for mask in range(1, 1 << m):
            low = mask & (-mask)
            c = np.zeros((mask.bit_count() + 1, n))
            sub = mask
            while sub:
                if sub & low:
                    rest = coef[mask ^ sub]
                    c[1:rest.shape[0] + 1] += W[sub] * rest
                sub = (sub - 1) & mask
            coef[mask] = c
    return coef[-1].T


def beta_permanent(A, beta: float) -> float:
    """per_beta of a square matrix: per_1 is the permanent and
    per_-1 = (-1)^m det.  A value that is not finite raises NonFiniteError."""
    # Horner on Python floats, silent on overflow; exact for integer c and dyadic beta
    acc, beta = 0.0, float(beta)
    for c in cycle_polynomial(A)[::-1].tolist():
        acc = acc * beta + c
    if not math.isfinite(acc):
        raise NonFiniteError(f"per_beta at beta = {beta:g} is not finite ({acc})")
    return acc


def multisets(n: int, m_max: int):
    """Index multisets of {0..n-1}, sizes ascending, lexicographic within size."""
    for m in range(1, m_max + 1):
        yield from itertools.combinations_with_replacement(range(n), m)


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of a beta-positivity scan over (alpha, beta, multiset) triples."""

    verdict: Verdict
    scanned: int

    @property
    def witness(self):
        return self.verdict.witness

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.to_dict(),
            "scanned": self.scanned,
            "witness": self.verdict.witness,
        }


def beta_positivity_scan(G: KernelMatrix, betas=None, alphas=None,
                         m_max: int = None) -> PositivityReport:
    """Scan per_beta of multiset-indexed submatrices of every resolvent.

    Fails with a witness on the first negative value in the canonical
    order (alpha ascending, then beta, then multisets by size and lex);
    otherwise holds over the scanned range.  m_max lies in 1..PERMANENT_CAP.
    """
    betas = list(defaults.BETA_GRID if betas is None else betas)
    alphas = alpha_grid(defaults.ALPHA_GRID if alphas is None else alphas)
    m_max = defaults.M_MAX if m_max is None else int(m_max)
    if not (betas and np.all(np.isfinite(np.array(betas, dtype=float)))) or min(betas) <= 0:
        raise InputFormatError("beta grid must be nonempty, finite and positive")
    if m_max < 1:
        raise InputFormatError(f"m_max must be at least 1, got {m_max}")
    if m_max > defaults.PERMANENT_CAP:
        raise DimensionCapError(
            f"m_max {m_max} exceeds the permanent cap {defaults.PERMANENT_CAP}")
    sets = list(multisets(G.dim, m_max))
    # per multiset size m: its rows of sets and its (m, S) index array,
    # in column slices that keep the DP's floats under _DP_FLOATS; the
    # columns are independent, so slicing moves no bit
    blocks, first = [], 0
    for m, group in itertools.groupby(sets, key=len):
        idx = np.array(list(group)).T
        step = max(1, _DP_FLOATS // _dp_floats_per_matrix(m))
        for lo in range(0, idx.shape[1], step):
            part = idx[:, lo:lo + step]
            blocks.append((m, slice(first, first + part.shape[1]), part))
            first += part.shape[1]
    # powers[b, k] = beta_b ** k; coefs[s, k] = coefficient k of multiset s
    powers = np.power(np.array(betas, dtype=float)[:, None], np.arange(m_max + 1))
    coefs = np.zeros((len(sets), m_max + 1))
    limits = np.empty(len(sets))
    shifts = np.zeros(len(sets), dtype=int)  # values[:, s] * 2**shifts[s] is per_beta
    for a_index, alpha in enumerate(alphas):
        ga = resolvent(G, alpha).entries
        for m, rows, idx in blocks:
            sub = ga[idx[:, None, :], idx[None, :, :]]  # (m, m, S_m): one matrix per multiset
            # scale each matrix by 2**-e to max|entry| = mantissa in [0.5, 1):
            # exact, so every coefficient and value keeps its bits up to the
            # factor 2**(e*m), and no product of m entries overflows
            mantissas, exps = np.frexp(np.max(np.abs(sub), axis=(0, 1)))
            coefs[rows, : m + 1] = _cycle_coefficients(np.ldexp(sub, -exps))
            shifts[rows] = exps * m
            # scalar ** on purpose: numpy's array power can differ in the last bit
            limits[rows] = [-defaults.NEGATIVITY_REL * mantissa ** m
                            for mantissa in mantissas.tolist()]
        values = powers @ coefs.T
        bad = values < limits
        if bad.any():
            b, s = np.unravel_index(np.argmax(bad), bad.shape)
            witness = {"alpha": alpha, "beta": float(betas[b]),
                       "indices": list(sets[s])}
            try:
                witness["value"] = math.ldexp(float(values[b, s]), int(shifts[s]))
            except OverflowError:
                raise NonFiniteError(
                    "per_beta at alpha = {alpha:g}, beta = {beta:g}, indices {indices} is "
                    "negative and not finite in float64".format(**witness)) from None
            scanned = int(a_index * bad.size + b * len(sets) + s + 1)
            return PositivityReport(
                Verdict.fail(witness, "negative beta-permanent"), scanned)
    scanned = len(alphas) * len(betas) * len(sets)
    return PositivityReport(
        Verdict.ok(f"no negative beta-permanent over {scanned} triples"), scanned)


def id_necessary_battery(G: KernelMatrix) -> Verdict:
    """Necessary sign conditions for an infinitely divisible kernel.

    On the kernel and on each resolvent over the default alpha grid:
    (a) G(i,j)G(j,i) >= 0 for all i != j;
    (b) G(j,i)G(j,k)G(k,i) >= 0 for all ordered triples of distinct indices.
    """
    for alpha in defaults.ALPHA_GRID:
        try:
            found = sign_product_violation(resolvent(G, alpha).entries)
        except OverflowError:
            raise NonFiniteError(f"a sign-product threshold of the resolvent at alpha = "
                                 f"{alpha:g} is not finite") from None
        if found is not None:
            kind, indices, value = found
            detail = ("negative pairwise product G(i,j)G(j,i)" if kind == "pair"
                      else "negative cyclic triple product G(j,i)G(j,k)G(k,i)")
            return Verdict.fail({"kind": kind, "alpha": alpha,
                                 "indices": list(indices), "value": value}, detail)
    return Verdict.ok()
