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

# chndtrix gives no finite quantile pair from a noncentrality of about
# 10^10.65 on (sampled every 0.05 decade to 1e14, every 0.25 decade to
# 1e16), and its time grows with it: 0.4 s at 1e14, 4 s at 1e16, 53 s at 1e18
_CHNDTRIX_NC_MAX = 1e11


def _pd_pair(C) -> tuple:
    """(v1, v2, c, det) of a symmetric 2x2 covariance that passes
    psd_eigh's strict screen."""
    a = np.asarray(C.entries if isinstance(C, KernelMatrix) else C, dtype=float)
    if a.shape != (2, 2):
        raise InputFormatError("pair density needs a 2x2 covariance")
    pair = KernelMatrix(a, symmetric=True)
    psd_eigh(pair, strict=True)
    (v1, c), (_, v2) = pair.entries.tolist()
    return v1, v2, c, v1 * v2 - c * c


def gaussian_pair_pdf(C):
    """Vectorized density of a centered bivariate normal with covariance C."""
    v1, v2, c, det = _pd_pair(C)
    i11, i22, i12 = v2 / det, v1 / det, -c / det
    norm = 1.0 / (2.0 * math.pi * math.sqrt(det))

    def pdf(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
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


def marginal_quantile_grid(variance: float, r: float = 0.0) -> np.ndarray:
    """Geometric grid of LATTICE_GRID_SIZE points between the QUANTILE_LO
    and QUANTILE_HI quantiles of the (eta + r)^2 marginal.

    (eta + r)^2 / variance is noncentral chi-square with 1 degree of
    freedom and noncentrality r^2 / variance (central when r = 0).  The
    quantiles come from the scipy.special kernels behind
    scipy.stats.chi2/ncx2.ppf, bit for bit, branching like ncx2 on the
    noncentrality itself, which can underflow to 0 for a tiny r.
    A noncentrality of at least 1e11, where chndtrix has no finite
    answer, and quantiles that are not finite and positive raise
    NonFiniteError.
    """
    if variance <= 0:
        raise InputFormatError("variance must be positive")
    nc = r * r / variance
    if nc >= _CHNDTRIX_NC_MAX:
        raise NonFiniteError(f"(eta + {r:g})^2 with variance {variance:g} has noncentrality "
                             f"{nc:g}, where the chi-square quantiles are not finite")
    # imported here, not at module scope, so the CLI starts without scipy
    from scipy.special import chndtrix, gammaincinv

    p = np.array([defaults.QUANTILE_LO, defaults.QUANTILE_HI])
    qlo, qhi = variance * (2.0 * gammaincinv(0.5, p) if nc == 0.0 else chndtrix(p, 1, nc))
    if not 0 < qlo < qhi < math.inf:  # False for a NaN
        raise NonFiniteError(f"quantiles {qlo:g}, {qhi:g} of (eta + {r:g})^2 with variance "
                             f"{variance:g} are not finite and increasing")
    return np.geomspace(qlo, qhi, defaults.LATTICE_GRID_SIZE)
