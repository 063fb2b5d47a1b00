"""Bivariate density oracles for squared (shifted) Gaussian pairs.

For eta = (eta_1, eta_2) centered Gaussian with covariance C and a
common shift r, the vector ((eta_1 + r)^2, (eta_2 + r)^2) has density

    h_r(s, t) = sum over eps in {-1,+1}^2 of
                phi_C(eps_1 sqrt(s) - r, eps_2 sqrt(t) - r) / (4 sqrt(s t))

on the open positive quadrant (four sign branches of the square-root
change of variables).  r = 0 is the central case.  Grids for lattice
tests are geometric between marginal quantiles, keeping clear of the
inverse-square-root singularity at the axes.
"""

from __future__ import annotations

import math

import numpy as np

from . import defaults
from .errors import InputFormatError, NonFiniteError
from .matcore import KernelMatrix, psd_eigh

__all__ = [
    "gaussian_pair_pdf",
    "squared_pair_density",
    "marginal_quantile_grid",
]

# |r| / sqrt(variance) past which float64 cannot place the lattice's
# points (derived in marginal_quantile_grid); 2^33 is about 8.6e9
_MU_MAX = 2.0 ** 33
_SQRT_HALF = math.sqrt(0.5)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _dyadic_scale(variance: float) -> int:
    """j with variance / 4^j in [0.5, 2), so j = 0 there: e // 2 for variance = m 2^e,
    m in [0.5, 1).  Dividing by 4^j, or a shift by 2^j, only moves the exponent, so
    it is exact while the quotient stays a normal float."""
    return math.frexp(variance)[1] // 2


def _pd_pair(C) -> tuple:
    """(v1, v2, c) of a symmetric 2x2 covariance that passes psd_eigh's strict screen."""
    a = np.asarray(C.entries if isinstance(C, KernelMatrix) else C, dtype=float)
    if a.shape != (2, 2):
        raise InputFormatError("pair density needs a 2x2 covariance")
    pair = KernelMatrix(a, symmetric=True)
    psd_eigh(pair, strict=True)
    (v1, c), (_, v2) = pair.entries.tolist()
    return v1, v2, c


def gaussian_pair_pdf(C):
    """Vectorized density of a centered bivariate normal with covariance C:
    exactly C / 4^j's at (x, y) / 2^j times 4^-j, j = _dyadic_scale(max variance)."""
    v1, v2, c = _pd_pair(C)
    j = _dyadic_scale(max(v1, v2))
    v1, v2, c = (math.ldexp(v, -2 * j) for v in (v1, v2, c))
    det = v1 * v2 - c * c
    i11, i22, i12 = v2 / det, v1 / det, -c / det
    norm = math.ldexp(1.0 / (2.0 * math.pi * math.sqrt(det)), -2 * j)

    def pdf(x, y):
        x = np.ldexp(np.asarray(x, dtype=float), -j)
        y = np.ldexp(np.asarray(y, dtype=float), -j)
        q = i11 * x * x + 2.0 * i12 * x * y + i22 * y * y
        return norm * np.exp(-0.5 * q)

    return pdf


def squared_pair_density(C, r: float = 0.0):
    """Density oracle of ((eta_1+r)^2, (eta_2+r)^2) on the open quadrant."""
    pdf = gaussian_pair_pdf(C)
    r = float(r)

    def h(s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        if np.any(s <= 0) or np.any(t <= 0):
            raise InputFormatError("density is evaluated on the open quadrant only")
        rs, rt = np.sqrt(s), np.sqrt(t)
        total = 0.0
        for e1 in (1.0, -1.0):
            for e2 in (1.0, -1.0):
                total = total + pdf(e1 * rs - r, e2 * rt - r)
        return total / (4.0 * rs * rt)

    return h


def _mass(mu: float, mu2: float, t: float) -> float:
    """P(|Z + mu| <= t) for Z standard normal, mu2 = mu^2, without cancellation.

    The erfc difference is used only where its smaller term is at most
    1/256 of the larger, so it cancels at most a factor 257/255.
    Elsewhere t is small next to the spread of Z + mu, and
    expanding cosh(mu z) in P = e^(-mu^2/2) int_{-t}^{t} phi(z) cosh(mu z) dz
    gives a sum of positive terms,

        e^(-mu^2/2) [erf(t/sqrt 2) + sqrt(2/pi) e^(-t^2/2) t
                     sum_{j>=1} (mu t)^2j / (2j)! sum_{k>=0} t^2k / ((2j+1)(2j+3)...(2j+2k+1))],

    the inner sum being the series of int_0^t z^2j e^(-z^2/2) dz.  There
    mu t < 3 and t < 3, so both sums end after a few dozen terms.
    """
    a = math.erfc((mu - t) * _SQRT_HALF)
    b = math.erfc((mu + t) * _SQRT_HALF)
    if a >= 256.0 * b:
        return 0.5 * (a - b)
    y = t * t
    outer, coef, j = 0.0, 1.0, 0
    while True:
        j += 1
        coef *= mu2 * y / ((2 * j - 1) * (2 * j))
        term = inner = 1.0 / (2 * j + 1)
        k = j
        while term > inner * 2.0 ** -60:
            k += 1
            term *= y / (2 * k + 1)
            inner += term
        outer += coef * inner
        if coef * inner <= outer * 2.0 ** -60:  # also ends mu = 0 at once
            break
    return math.exp(-0.5 * mu2) * (math.erf(t * _SQRT_HALF)
                                   + _SQRT_2_OVER_PI * math.exp(-0.5 * y) * t * outer)


def _abs_shifted_quantile(mu: float, mu2: float, p: float) -> float:
    """The t > 0 with P(|Z + mu| <= t) = p, by bisection down to adjacent
    floats: the smallest float at which the computed probability reaches
    p.  p >= 0.5 solves the tail form P(|Z + mu| > t) = 1 - p, a sum of
    two positive terms whose target 1 - p is exact."""
    if p >= 0.5:
        tail = 1.0 - p

        def reached(t):
            return 0.5 * (math.erfc((t - mu) * _SQRT_HALF)
                          + math.erfc((t + mu) * _SQRT_HALF)) <= tail
    else:
        def reached(t):
            return _mass(mu, mu2, t) >= p
    lo, hi = 0.0, mu + 40.0  # P is 0 at lo and 1 to float precision at hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if reached(mid):
            hi = mid
        else:
            lo = mid


def marginal_quantile_grid(variance: float, r: float = 0.0) -> np.ndarray:
    """Geometric grid of LATTICE_GRID_SIZE points between the QUANTILE_LO
    and QUANTILE_HI quantiles of the (eta + r)^2 marginal.

    With eta = sigma Z, sigma^2 = variance, and mu = |r| / sigma, the
    p-quantile is variance * t^2, where t solves P(|Z + mu| <= t) = p.
    t comes from _abs_shifted_quantile with math.erf/erfc only, so no
    special-function library is loaded.  The solve runs on variance / 4^j and |r| / 2^j
    (j = _dyadic_scale(variance)), which leaves mu as it is and keeps
    mu^2 = r^2 / variance finite; so 4^k variance with shift 2^k r gives
    exactly 4^k times these quantiles.

    Accuracy: each endpoint is within 16 ulp of the exact quantile of the
    given (variance, r).  The bisection lands within an ulp of where the
    computed probability crosses p, and variance * t * t adds two
    roundings.  The probability's own error (erf, erfc and exp to an ulp
    or two, positive sums, at most a 257/255 cancellation in the erfc
    difference) moves t by that error over d ln P / d ln t, which is
    about 1 at the lower quantile and above 7 at the upper one.  mu and
    mu^2 carry 1.5 and 1 ulp of rounding, which the lower quantile
    amplifies by up to about mu^2 / 2, at most 5 where it matters (mu
    near 3).  tests/test_densities.py checks the bound against 50-digit
    quantiles.

    Range: mu must be at most 2^33 (_MU_MAX), else NonFiniteError.  The
    lattice evaluates the density at sqrt(s) - |r| for each grid point s,
    in units of sigma.  np.geomspace makes each point through a
    logarithm and a power, so s carries a relative error of up to about
    2 |ln s| 2^-53, and sqrt(s), which is about |r| = mu sigma, an
    absolute error of up to about mu |ln s| 2^-53 sigma.  Since
    |ln s| < 745 < 2^10 for every positive float64, that is under
    2^-43 mu sigma.  Once mu is large the grid's steps are about
    0.12 sigma (4.65 sigma in 39 steps), and a point that moves by a
    step takes the lattice out of order: mu = 1e14 made a positively
    correlated pair fail.  Keeping the error under 2^-10 sigma, below a
    hundredth of a step, gives mu <= 2^33.  Quantiles that are not
    finite and positive (variance * t^2 overflowing or underflowing)
    also raise NonFiniteError.
    """
    if variance <= 0:
        raise InputFormatError("variance must be positive")
    j = _dyadic_scale(variance)
    v, a = math.ldexp(variance, -2 * j), math.ldexp(abs(r), -j)
    mu = a / math.sqrt(v)
    if not mu <= _MU_MAX:  # also NaN
        raise NonFiniteError(f"(eta + {r:g})^2 with variance {variance:g} has |r|/sqrt(variance) "
                             f"= {mu:g}, past 2^33, where float64 cannot resolve its lattice")
    mu2 = a * a / v
    t_lo, t_hi = (_abs_shifted_quantile(mu, mu2, p)
                  for p in (defaults.QUANTILE_LO, defaults.QUANTILE_HI))
    qlo, qhi = variance * t_lo * t_lo, variance * t_hi * t_hi
    if not 0 < qlo < qhi < math.inf:  # False for a NaN
        raise NonFiniteError(f"quantiles {qlo:g}, {qhi:g} of (eta + {r:g})^2 with variance "
                             f"{variance:g} are not finite and increasing")
    return np.geomspace(qlo, qhi, defaults.LATTICE_GRID_SIZE)
