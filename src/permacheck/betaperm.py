"""Beta-permanents and positivity scans over index multisets.

The central object is per_b(A) = sum over permutations tau of
b^(number of cycles of tau) * prod_i A[i, tau(i)].  A subset dynamic
program collects the coefficients of b^k once per matrix.  The
positivity scan stacks those coefficients for every multiset of a
resolvent, so one matrix product evaluates the whole beta grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import DimensionCapError, InputFormatError
from .matcore import KernelMatrix, _as_square_array, resolvent, sign_product_violation
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
    cycles; c[0] is always 0 for m >= 1.  Cost is O(3^m) after an
    O(2^m m^2) pass collecting single-cycle weights, fine for m <= 8.
    """
    a = _as_square_array(A.entries if isinstance(A, KernelMatrix) else A)
    m = a.shape[0]
    if m > defaults.PERMANENT_CAP:
        raise DimensionCapError(
            f"matrix dimension {m} exceeds the permanent cap {defaults.PERMANENT_CAP}")
    return _cycle_coefficients(a)


def _cycle_coefficients(a: np.ndarray) -> np.ndarray:
    """The dynamic program behind cycle_polynomial, on a validated array."""
    m = a.shape[0]
    a = a.tolist()  # Python floats: same products and sums, faster to index
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


def beta_permanent(A, beta: float, exponent: str = "cycles") -> float:
    """per_beta of a square matrix.

    exponent="cycles" (default) uses the number of cycles of tau, making
    per_1 the permanent and per_-1 = (-1)^m det.  exponent="signature"
    evaluates the variant where the exponent is the sign of tau, kept
    behind this flag for side-by-side comparison only.
    """
    coef = cycle_polynomial(A)
    if exponent == "cycles":
        # Horner; exact for integer coefficients and dyadic beta
        acc = 0.0
        for c in coef[::-1]:
            acc = acc * beta + c
        return float(acc)
    if exponent == "signature":
        if beta == 0:
            raise InputFormatError("signature convention needs beta != 0")
        m = coef.size - 1
        even = sum(float(coef[k]) for k in range(m + 1) if (m - k) % 2 == 0)
        odd = sum(float(coef[k]) for k in range(m + 1) if (m - k) % 2 == 1)
        return float(beta * even + odd / beta)
    raise InputFormatError(f"unknown exponent convention {exponent!r}")


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
    otherwise holds over the scanned range.
    """
    betas = list(defaults.BETA_GRID if betas is None else betas)
    alphas = list(defaults.ALPHA_GRID if alphas is None else alphas)
    m_max = defaults.M_MAX if m_max is None else int(m_max)
    if not betas or not alphas:
        raise InputFormatError("beta and alpha grids must be nonempty")
    if any(b <= 0 for b in betas):
        raise InputFormatError("beta grid must be positive")
    if m_max < 1 or m_max > defaults.PERMANENT_CAP:
        raise DimensionCapError(
            f"m_max {m_max} outside 1..{defaults.PERMANENT_CAP}")
    sets = list(multisets(G.dim, m_max))
    # powers[b, k] = beta_b ** k; coefs[s, k] = coefficient k of multiset s
    powers = np.power(np.array(betas, dtype=float)[:, None], np.arange(m_max + 1))
    coefs = np.zeros((len(sets), m_max + 1))
    limits = np.empty(len(sets))
    for a_index, alpha in enumerate(alphas):
        ga = resolvent(G, float(alpha)).entries
        for s, idx in enumerate(sets):
            sub = ga[np.ix_(idx, idx)]
            coefs[s, : len(idx) + 1] = _cycle_coefficients(sub)
            scale = float(np.max(np.abs(sub)))
            limits[s] = -defaults.NEGATIVITY_REL * max(scale, 1e-300) ** len(idx)
        values = powers @ coefs.T
        bad = values < limits
        if bad.any():
            b, s = np.unravel_index(np.argmax(bad), bad.shape)
            witness = {
                "alpha": float(alpha),
                "beta": float(betas[b]),
                "indices": list(sets[s]),
                "value": float(values[b, s]),
            }
            scanned = int(a_index * bad.size + b * len(sets) + s + 1)
            return PositivityReport(
                Verdict.fail(witness, "negative beta-permanent"), scanned)
    scanned = len(alphas) * len(betas) * len(sets)
    return PositivityReport(
        Verdict.ok(f"no negative beta-permanent over {scanned} triples"), scanned)


def id_necessary_battery(G: KernelMatrix, alphas=None) -> Verdict:
    """Necessary sign conditions for an infinitely divisible kernel.

    On the kernel and on each resolvent over the alpha grid:
    (a) G(i,j)G(j,i) >= 0 for all i != j;
    (b) G(j,i)G(j,k)G(k,i) >= 0 for all ordered triples of distinct indices.
    """
    alphas = list(defaults.ALPHA_GRID if alphas is None else alphas)
    grid = [0.0] + [float(a) for a in alphas if float(a) != 0.0]
    for alpha in grid:
        found = sign_product_violation(resolvent(G, alpha).entries)
        if found is not None:
            kind, indices, value = found
            detail = ("negative pairwise product G(i,j)G(j,i)" if kind == "pair"
                      else "negative cyclic triple product G(j,i)G(j,k)G(k,i)")
            return Verdict.fail({"kind": kind, "alpha": alpha,
                                 "indices": list(indices), "value": value}, detail)
    return Verdict.ok()
