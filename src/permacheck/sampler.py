"""Exact sampling and exponential tilting for permanental laws.

Direct sampling covers index beta = 2/k: a draw is the coordinatewise
sum of k squared centered Gaussians with the given covariance.  Other
alphas are reached by self-normalized importance weights
exp(-(alpha/2) sum_i psi_i), which move the kernel to its
alpha-resolvent without resampling.  All draws are pure functions of
(seed, index) through a counter-based Philox stream, so batches are
reproducible bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import InputFormatError, InvalidIndexError, NotPSDError
from .matcore import KernelMatrix

__all__ = [
    "PermanentalSpec",
    "SampleBatch",
    "sample_gaussian",
    "sample_permanental",
    "tilt_resolvent",
    "laplace_transform",
    "empirical_laplace",
    "abs_product_moment",
    "sign_moment",
    "save_batch",
    "load_batch",
]


@dataclass(frozen=True, eq=False)
class PermanentalSpec:
    """Kernel plus index beta; beta = 2/k is directly sampleable."""

    kernel: KernelMatrix
    index_beta: float

    def __post_init__(self):
        if self.index_beta <= 0:
            raise InputFormatError("index beta must be positive")

    @property
    def k(self) -> int:
        """Integer k with beta = 2/k, or raises when beta is not of that form."""
        k = 2.0 / self.index_beta
        k_int = round(k)
        if k_int < 1 or abs(k - k_int) > 1e-9:
            raise InvalidIndexError(
                f"index beta {self.index_beta} is not 2/k for integer k >= 1; "
                "direct sampling is unavailable")
        return int(k_int)

    def to_dict(self) -> dict:
        return {"kernel": self.kernel.to_dict(), "index_beta": float(self.index_beta)}


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """N draws with self-normalized weights (all 1 when untilted).

    kind is "gaussian" (draws are eta) or "permanental" (draws are psi,
    nonnegative).  alpha records the tilt; weighted averages estimate
    expectations under the alpha-resolvent kernel.
    """

    draws: np.ndarray
    weights: np.ndarray
    seed: int
    spec: PermanentalSpec
    kind: str = "permanental"
    alpha: float = 0.0

    def __post_init__(self):
        d = np.asarray(self.draws, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if d.ndim != 2 or d.shape[0] < 1:
            raise InputFormatError("draws must be a nonempty N x n matrix")
        # min and max propagate NaN, so this checks every draw without a copy
        if not (np.isfinite(np.min(d)) and np.isfinite(np.max(d))):
            raise InputFormatError("draws must be finite")
        if w.shape != (d.shape[0],) or not np.all(np.isfinite(w) & (w >= 0)):
            raise InputFormatError("weights must be N finite nonnegative reals")
        if abs(float(w.sum()) - d.shape[0]) > 1e-6 * d.shape[0]:
            raise InputFormatError("weights must sum to N (self-normalized)")
        if self.kind not in ("gaussian", "permanental"):
            raise InputFormatError(f"unknown batch kind {self.kind!r}")
        d.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "draws", d)
        object.__setattr__(self, "weights", w)

    @property
    def n_draws(self) -> int:
        return self.draws.shape[0]

    @property
    def dim(self) -> int:
        return self.draws.shape[1]

    @property
    def tilted(self) -> bool:
        return self.alpha != 0.0

    @property
    def ess(self) -> float:
        """Effective sample size (sum w)^2 / sum w^2 of the weights."""
        w = self.weights
        return float(w.sum() ** 2 / (w @ w))

    def mean(self, values) -> float:
        """Weighted average of a per-draw statistic."""
        v = np.asarray(values, dtype=float)
        return float((v * self.weights).sum() / self.weights.sum())


def _uniforms(seed: int, shape) -> np.ndarray:
    """Open-interval (0,1) uniforms from a Philox counter stream."""
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    raw = gen.integers(0, 1 << 53, size=shape, dtype=np.uint64)
    return (raw.astype(float) + 0.5) * 2.0 ** -53


def _normals(seed: int, shape) -> np.ndarray:
    # imported here, not at module scope, so the CLI starts without scipy
    from scipy.special import ndtri

    return ndtri(_uniforms(seed, shape))


def _sqrt_factor(G: KernelMatrix) -> np.ndarray:
    """Symmetric square root via eigen-decomposition; PSD within tolerance."""
    if not G.symmetric:
        raise InputFormatError("sampling needs a symmetric kernel")
    lam, vec = np.linalg.eigh(G.entries)
    floor = -defaults.PSD_REL * max(1.0, float(np.max(np.abs(G.entries))))
    if lam[0] < floor:
        raise NotPSDError(
            f"kernel has negative eigenvalue {lam[0]:g}", float(lam[0]))
    return vec * np.sqrt(np.clip(lam, 0.0, None))


def sample_gaussian(G: KernelMatrix, n_draws: int, seed: int) -> SampleBatch:
    """N centered Gaussian draws with covariance G."""
    if n_draws < 1:
        raise InputFormatError("need at least one draw")
    A = _sqrt_factor(G)
    z = _normals(seed, (n_draws, G.dim))
    draws = z @ A.T
    return SampleBatch(draws, np.ones(n_draws), int(seed),
                       PermanentalSpec(G, 2.0), kind="gaussian")


def sample_permanental(spec: PermanentalSpec, n_draws: int, seed: int) -> SampleBatch:
    """N draws of the permanental vector with index beta = 2/k.

    Each draw is the coordinatewise sum of k independent squared
    Gaussian vectors with covariance spec.kernel; the Laplace transform
    at any nonnegative diagonal alpha is det(I + alpha G)^(-k/2).
    """
    if n_draws < 1:
        raise InputFormatError("need at least one draw")
    k = spec.k
    A = _sqrt_factor(spec.kernel)
    n = spec.kernel.dim
    z = _normals(seed, (k, n_draws, n))
    psi = np.zeros((n_draws, n))
    for j in range(k):
        eta = z[j] @ A.T
        psi += eta * eta
    return SampleBatch(psi, np.ones(n_draws), int(seed), spec, kind="permanental")


def _psi_values(batch: SampleBatch) -> np.ndarray:
    if batch.kind == "permanental":
        return batch.draws
    return batch.draws ** 2


def tilt_resolvent(batch: SampleBatch, alpha: float) -> SampleBatch:
    """Attach weights exp(-(alpha/2) sum_i psi_i), self-normalized.

    Weighted expectations under the result estimate expectations for
    the alpha-resolvent kernel with the same index.
    """
    if alpha < 0:
        raise InputFormatError("tilt requires alpha >= 0")
    if batch.tilted:
        raise InputFormatError("batch is already tilted")
    psi = _psi_values(batch)
    logw = -(alpha / 2.0) * psi.sum(axis=1)
    logw -= logw.max()  # stabilize before exponentiating
    w = np.exp(logw)
    w *= batch.n_draws / w.sum()
    return SampleBatch(batch.draws, w, batch.seed, batch.spec,
                       kind=batch.kind, alpha=float(alpha))


def laplace_transform(G: KernelMatrix, beta: float, alpha_diag) -> float:
    """Exact det(I + diag(alpha) G)^(-1/beta) for nonnegative diagonal alpha."""
    a = np.asarray(alpha_diag, dtype=float)
    if a.ndim == 0:
        a = np.full(G.dim, float(a))
    if a.shape != (G.dim,) or np.min(a) < 0:
        raise InputFormatError("alpha must be a nonnegative diagonal (vector)")
    det = float(np.linalg.det(np.eye(G.dim) + np.diag(a) @ G.entries))
    if det <= 0:
        raise NotPSDError(f"det(I + alpha G) = {det:g} is not positive", det)
    return det ** (-1.0 / beta)


def empirical_laplace(batch: SampleBatch, alpha_diag) -> float:
    """Weighted MC estimate of E[exp(-(1/2) sum_i alpha_i psi_i)]."""
    a = np.asarray(alpha_diag, dtype=float)
    if a.ndim == 0:
        a = np.full(batch.dim, float(a))
    psi = _psi_values(batch)
    return batch.mean(np.exp(-0.5 * (psi @ a)))


def abs_product_moment(sigma_i, sigma_j, rho):
    """E|eta_i eta_j| for centered Gaussians with sd sigma and correlation rho.

    Closed form (2/pi) sigma_i sigma_j (rho asin(rho) + sqrt(1 - rho^2)),
    validated against a Monte Carlo oracle in the test suite.  Arrays
    broadcast, scalars give a float; the first bad entry in C order raises.
    """
    si, sj, r = np.broadcast_arrays(sigma_i, sigma_j, rho)
    bad = (si <= 0) | (sj <= 0) | (np.abs(r) > 1 + 1e-12)
    if bad.any():
        k = np.argmax(bad)
        if si.flat[k] <= 0 or sj.flat[k] <= 0:
            raise InputFormatError("standard deviations must be positive")
        raise InputFormatError(f"correlation {r.flat[k]} outside [-1, 1]")
    r = np.minimum(np.maximum(r, -1.0), 1.0)
    m = (2.0 / np.pi) * si * sj * (r * np.arcsin(r) + np.sqrt(np.maximum(0.0, 1.0 - r * r)))
    return float(m) if m.ndim == 0 else m


def sign_moment(rho: float) -> float:
    """E[sgn(eta_i eta_j)] = (2/pi) asin(rho); MC-validated in tests."""
    if abs(rho) > 1 + 1e-12:
        raise InputFormatError(f"correlation {rho} outside [-1, 1]")
    r = min(1.0, max(-1.0, float(rho)))
    return (2.0 / math.pi) * math.asin(r)


def save_batch(batch: SampleBatch, path) -> None:
    """Header line of JSON, then draws and weights as little-endian float64."""
    header = {
        "schema": defaults.SCHEMA_VERSION,
        "n_draws": batch.n_draws,
        "dim": batch.dim,
        "seed": batch.seed,
        "kind": batch.kind,
        "alpha": batch.alpha,
        "spec": batch.spec.to_dict(),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(batch.draws.astype("<f8").tobytes())
        fh.write(batch.weights.astype("<f8").tobytes())


def load_batch(path) -> SampleBatch:
    """Reads a save_batch file; a malformed one raises InputFormatError."""
    with open(path, "rb") as fh:
        line = fh.readline()
        body = fh.read()
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputFormatError(f"batch header is not UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise InputFormatError("batch header must be a JSON object")
    if header.get("schema") != defaults.SCHEMA_VERSION:
        raise InputFormatError(
            f"batch schema {header.get('schema')} != {defaults.SCHEMA_VERSION}")
    try:
        n, d = int(header["n_draws"]), int(header["dim"])
        kern = header["spec"]["kernel"]
        spec = PermanentalSpec(KernelMatrix(np.array(kern["entries"]), kern["symmetric"]),
                               header["spec"]["index_beta"])
        seed, kind, alpha = int(header["seed"]), header["kind"], float(header["alpha"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"batch header lacks or garbles a field: {exc!r}") from exc
    if n < 1 or d < 1:
        raise InputFormatError(f"batch header declares {n} draws of dimension {d}")
    if len(body) != 8 * n * (d + 1):
        raise InputFormatError(
            f"batch body has {len(body)} bytes; {n} draws of dimension {d} "
            f"and their weights need {8 * n * (d + 1)}")
    values = np.frombuffer(body, dtype="<f8")
    return SampleBatch(values[: n * d].reshape(n, d).copy(), values[n * d:].copy(),
                       seed, spec, kind=kind, alpha=alpha)
