"""Ground truth for the positivity scan and the sign battery.

Some benchmark kernels are drawn with no filter, so their verdict does
not follow from their construction.  These functions decide it without
permacheck: every beta-permanent on the scan's default grid is a
permutation sum in float64, and a value within ``MARGIN`` of a
threshold is recomputed in ``MP_DIGITS``-digit mpmath.  The kernels are
symmetric, and the resolvents are symmetrised as permacheck does.
"""

from __future__ import annotations

import itertools

import numpy as np

MP_DIGITS = 50
# permacheck's default scan grid and thresholds (its defaults table)
BETAS = np.round(0.1 * np.arange(1, 21), 10)
ALPHAS = 0.5 * np.arange(11)
M_MAX = 5
NEGATIVITY_REL = 1e-10   # scan witness: value < -this * max|entry|^m
TRIPLE_TOL = 1e-10       # battery: G(j,i)G(j,k)G(k,i) < -this * max(1, max|G|)^3
MARGIN = 1e-2            # a float value within this share of a threshold goes to mpmath


def cycle_count(perm) -> int:
    seen, count = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            count += 1
            j = start
            while j not in seen:
                seen.add(j)
                j = perm[j]
    return count


def permutation_sum(a, beta, one=1.0):
    """per_beta(a) = sum over permutations of beta^cycles * prod a[i, tau(i)]."""
    m = len(a)
    total = one * 0
    for perm in itertools.permutations(range(m)):
        prod = one
        for i in range(m):
            prod = prod * a[i][perm[i]]
        total = total + beta ** cycle_count(perm) * prod
    return total


def mp_resolvent(g, alpha):
    """(I + alpha G)^-1 G in mpmath; call inside ``mpmath.workdps``."""
    import mpmath
    gm = mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in g])
    alpha = mpmath.mpf(float(alpha))
    return gm if alpha == 0 else mpmath.inverse(mpmath.eye(len(g)) + alpha * gm) * gm


def mp_scan_value(g, alpha, beta, indices):
    """(per_beta, max|entry|^m) of one scan triple, in MP_DIGITS digits."""
    import mpmath
    with mpmath.workdps(MP_DIGITS):
        r = mp_resolvent(g, alpha)
        idx = [int(i) for i in indices]
        sub = [[r[i, j] for j in idx] for i in idx]
        value = permutation_sum(sub, mpmath.mpf(float(beta)), mpmath.mpf(1))
        return value, max(abs(v) for row in sub for v in row) ** len(idx)


def _resolvent(g, alpha):
    r = np.linalg.solve(np.eye(len(g)) + alpha * g, g)
    return 0.5 * (r + r.T)


def _cycle_onehot(m):
    perms = np.array(list(itertools.permutations(range(m))))
    return perms, np.eye(m + 1)[[cycle_count(p) for p in perms]]


def scan_has_witness(g) -> bool:
    """Does some (alpha, beta, multiset) on the default grid fall below the
    scan's threshold?  The exit code of ``scan`` is 1 exactly when it does."""
    n = len(g)
    powers = BETAS[:, None] ** np.arange(M_MAX + 1)
    tables = {m: _cycle_onehot(m) for m in range(1, M_MAX + 1)}
    for alpha in ALPHAS:
        r = _resolvent(g, alpha)
        for m, (perms, onehot) in tables.items():
            sets = np.array(list(itertools.combinations_with_replacement(range(n), m)))
            subs = r[sets[:, :, None], sets[:, None, :]]
            values = subs[:, np.arange(m), perms].prod(axis=2) @ onehot \
                @ powers[:, :m + 1].T
            scale = np.maximum(np.abs(subs).max(axis=(1, 2)), 1e-300)[:, None] ** m
            rel = values / scale + NEGATIVITY_REL       # negative marks a witness
            if np.any(rel < -MARGIN * NEGATIVITY_REL):
                return True
            for s, b in zip(*np.nonzero(np.abs(rel) <= MARGIN * NEGATIVITY_REL)):
                value, scale = mp_scan_value(g, alpha, BETAS[b], sets[s])
                if value < -NEGATIVITY_REL * scale:
                    return True
    return False


def battery_fails(g) -> bool:
    """Does some resolvent on the grid have a negative cyclic triple product?
    For a symmetric kernel that is the only way the sign battery fails."""
    import mpmath
    for alpha in ALPHAS:
        r = _resolvent(g, alpha)
        tol = TRIPLE_TOL * max(1.0, float(np.abs(r).max())) ** 3
        for i, j, k in itertools.permutations(range(len(g)), 3):
            v = r[j, i] * r[j, k] * r[k, i]
            if v < -tol * (1 + MARGIN):
                return True
            if abs(v + tol) <= MARGIN * tol:
                with mpmath.workdps(MP_DIGITS):
                    rm = mp_resolvent(g, alpha)
                    big = max(1, max(abs(x) for x in rm))
                    if rm[j, i] * rm[j, k] * rm[k, i] < -TRIPLE_TOL * big ** 3:
                        return True
    return False
