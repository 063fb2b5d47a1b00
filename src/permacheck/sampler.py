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
import operator
import os
from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import InputFormatError, InvalidIndexError, NonFiniteError, NotPSDError
from .matcore import KernelMatrix, psd_eigh

__all__ = [
    "PermanentalSpec",
    "SampleBatch",
    "sample_gaussian",
    "sample_permanental",
    "tilt_resolvent",
    "laplace_transform",
    "empirical_laplace",
    "abs_product_moment",
    "save_batch",
    "load_batch",
]


@dataclass(frozen=True, eq=False)
class PermanentalSpec:
    """Kernel plus index beta; beta = 2/k is directly sampleable."""

    kernel: KernelMatrix
    index_beta: float

    def __post_init__(self):
        if not (math.isfinite(self.index_beta) and self.index_beta > 0):
            raise InputFormatError(
                f"index beta must be positive and finite, got {self.index_beta}")

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
    expectations under the alpha-resolvent kernel.  Draws that are not
    finite, as from a sampler's overflow, raise NonFiniteError.
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
            raise NonFiniteError("draws must be finite")
        if w.shape != (d.shape[0],) or not np.all(np.isfinite(w) & (w >= 0)):
            raise InputFormatError("weights must be N finite nonnegative reals")
        if abs(float(w.sum()) - d.shape[0]) > 1e-6 * d.shape[0]:
            raise InputFormatError("weights must sum to N (self-normalized)")
        if self.kind not in ("gaussian", "permanental"):
            raise InputFormatError(f"unknown batch kind {self.kind!r}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise InputFormatError(f"tilt alpha must be finite and >= 0, got {self.alpha}")
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


# rows per block of the Gaussian stream both samplers draw from; the
# working set beside the output is three arrays of this many rows
_BLOCK_ROWS = 8192


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _fill_normals(gen: np.random.Generator, out: np.ndarray) -> None:
    """Standard normals into out, in place, from the next out.size words of gen.

    Each value takes exactly one 64-bit word: for the range 2**53 the
    bounded draw never rejects, so successive calls continue one stream.
    """
    # imported here, not at module scope, so the CLI starts without scipy
    from scipy.special import ndtri

    # open-interval (0,1) uniforms (raw + 0.5) * 2**-53, then ndtri
    np.add(gen.integers(0, 1 << 53, size=out.shape, dtype=np.uint64), 0.5, out=out)
    out *= 2.0 ** -53
    ndtri(out, out=out)


def _row_blocks(n_rows: int) -> list:
    """Near-equal row slices of at most _BLOCK_ROWS rows.

    None has a single row unless n_rows is 1: BLAS sends a one-row
    product to gemv, whose sums can differ in the last bit from gemm's.
    """
    edges = np.linspace(0, n_rows, -(-n_rows // _BLOCK_ROWS) + 1).astype(int).tolist()
    return [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def _sqrt_factor(G: KernelMatrix) -> np.ndarray:
    """Symmetric square root via eigen-decomposition; PSD within tolerance."""
    lam, vec = psd_eigh(G)
    return vec * np.sqrt(np.clip(lam, 0.0, None))


def _draw_count(n_draws) -> int:
    """n_draws as an int >= 1; a float must be a whole number, as 1e6 is."""
    try:
        count = operator.index(n_draws)
    except TypeError:
        if not (isinstance(n_draws, (float, np.floating)) and float(n_draws).is_integer()):
            raise InputFormatError(
                f"draw count must be an integer, got {n_draws!r}") from None
        count = int(n_draws)
    if count < 1:
        raise InputFormatError("need at least one draw")
    return count


def _gaussian_blocks(A: np.ndarray, n_draws: int, k: int, seed: int):
    """Yields (rows, eta): row block `rows` of each of k Gaussian draw
    matrices z @ A.T, vector-major, so the blocks take the Philox words in
    the order one (k, n_draws, n) normal array would."""
    gen, blocks = _philox(seed), _row_blocks(n_draws)
    for _ in range(k):
        for rows in blocks:
            z = np.empty((rows.stop - rows.start, A.shape[0]))
            _fill_normals(gen, z)
            yield rows, z @ A.T


def sample_gaussian(G: KernelMatrix, n_draws: int, seed: int) -> SampleBatch:
    """N centered Gaussian draws with covariance G."""
    n_draws = _draw_count(n_draws)
    draws = np.empty((n_draws, G.dim))
    for rows, eta in _gaussian_blocks(_sqrt_factor(G), n_draws, 1, seed):
        draws[rows] = eta
    return SampleBatch(draws, np.ones(n_draws), int(seed),
                       PermanentalSpec(G, 2.0), kind="gaussian")


def sample_permanental(spec: PermanentalSpec, n_draws: int, seed: int) -> SampleBatch:
    """N draws of the permanental vector with index beta = 2/k.

    Each draw is the coordinatewise sum of k independent squared
    Gaussian vectors with covariance spec.kernel; the Laplace transform
    at any nonnegative diagonal alpha is det(I + alpha G)^(-k/2).
    """
    n_draws = _draw_count(n_draws)
    k = spec.k
    psi = np.zeros((n_draws, spec.kernel.dim))  # +0.0 + eta is eta, bit for bit
    with np.errstate(over="ignore"):  # SampleBatch rejects draws that overflow
        for rows, eta in _gaussian_blocks(_sqrt_factor(spec.kernel), n_draws, k, seed):
            eta *= eta
            psi[rows] += eta
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
        # a view where the array is already little-endian float64, not a copy
        fh.write(np.ascontiguousarray(batch.draws, dtype="<f8").data)
        fh.write(np.ascontiguousarray(batch.weights, dtype="<f8").data)


def load_batch(path) -> SampleBatch:
    """Reads a save_batch file; a malformed one raises InputFormatError.

    The body's size is checked against the header before anything is
    allocated, and then read straight into the draw and weight arrays.
    """
    with open(path, "rb") as fh:
        line = fh.readline()
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
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != 8 * n * (d + 1):
            raise InputFormatError(
                f"batch body has {size} bytes; {n} draws of dimension {d} "
                f"and their weights need {8 * n * (d + 1)}")
        draws, weights = np.empty((n, d), dtype="<f8"), np.empty(n, dtype="<f8")
        for a in (draws, weights):
            if fh.readinto(a.reshape(-1).view(np.uint8)) != a.nbytes:
                raise InputFormatError("batch body ended early")
    try:
        return SampleBatch(draws, weights, seed, spec, kind=kind, alpha=alpha)
    except NonFiniteError as exc:
        raise InputFormatError(f"batch file: {exc}") from exc
