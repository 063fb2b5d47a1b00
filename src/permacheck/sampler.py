"""Exact sampling and exponential tilting for permanental laws.

Direct sampling covers index beta = 2/k: a draw is the coordinatewise
sum of k squared centered Gaussians with the given covariance.  Other
alphas are reached by self-normalized importance weights
exp(-(alpha/2) sum_i psi_i), which move the kernel to its
alpha-resolvent without resampling.  The rows of a batch are cut into
blocks of at most _BLOCK_ROWS, and each block draws numpy's ziggurat
normals from its own counter-based Philox key (seed, first row), so
blocks can be drawn in any order and run on a pool of one thread per
CPU the process may run on; neither the order nor the thread count
shows in a batch.  _stream_permanental writes each block straight to
its place in a batch file, so a batch on disk is never held in memory.
numpy's Generator may change a distribution's algorithm between feature
releases (NEP 19), so a batch is reproducible bit for bit for a given
numpy version.
"""

from __future__ import annotations

import json
import math
import os
import stat
import threading
from dataclasses import dataclass

import numpy as np

from . import defaults
from .errors import InputFormatError, InvalidIndexError, NonFiniteError, NotPSDError
from .matcore import KernelMatrix, kernel_from_dict, psd_eigh

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


def _ess(total, square_total) -> float:
    """Effective sample size (sum w)^2 / sum w^2 from the two sums."""
    return float(total ** 2 / square_total)


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
        if d.shape[1] != self.spec.kernel.dim:
            raise InputFormatError(f"draws of dimension {d.shape[1]} do not fit a kernel "
                                   f"of dimension {self.spec.kernel.dim}")
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
        return _ess(w.sum(), w @ w)

    def mean(self, values) -> float:
        """Weighted average of a per-draw statistic."""
        v = np.asarray(values, dtype=float)
        return float((v * self.weights).sum() / self.weights.sum())


# rows per block of normals, each block with its own Philox key; the
# working set beside the output is, per worker, the normal and product
# blocks that _gaussian_rows reuses and one block of squared sums
_BLOCK_ROWS = 8192

# threads for the sampler's row blocks and the association statistics:
# the CPUs this process may run on.  No output depends on it.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


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
    """n_draws as an int >= 1; a float must be a whole number, as 1e6 is,
    and a bool is not a count."""
    whole = isinstance(n_draws, (float, np.floating)) and float(n_draws).is_integer()
    if isinstance(n_draws, bool) or not (whole or isinstance(n_draws, (int, np.integer))):
        raise InputFormatError(f"draw count must be an integer, got {n_draws!r}")
    if n_draws < 1:
        raise InputFormatError("need at least one draw")
    return int(n_draws)


def _read_seed(seed) -> int:
    """seed as an int in [0, 2**64), the range of a Philox key word; a
    bool is not a seed."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2 ** 64:
        raise InputFormatError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def _in_pool(fn, items) -> list:
    """[fn(x) for x in items], each call under the caller's np.errstate.

    With at least two items, the calls run on _WORKERS threads, so fn
    must be safe to call concurrently; results and the first exception
    still come in item order.  numpy's error state is a context variable
    that a pool thread does not inherit, hence the wrap.
    """
    items = list(items)
    if _WORKERS < 2 or len(items) < 2:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor  # about 10 ms, paid only here

    err = np.geterr()

    def call(x):
        with np.errstate(**err):
            return fn(x)

    with ThreadPoolExecutor(min(_WORKERS, len(items))) as pool:
        return list(pool.map(call, items))


def _gaussian_rows(A: np.ndarray, n_draws: int, k: int, seed: int, into) -> None:
    """Calls into(rows, etas) for each row block `rows`, where etas
    yields the block's rows of k Gaussian draw matrices z @ A.T in turn.

    A block's normals come from its own Philox key (seed, rows.start):
    it draws its k vectors' normals one (rows, n) matrix after another,
    as into takes them from etas.  Each yielded matrix lives in its
    worker's scratch, which the next one overwrites, and into may
    overwrite it too.  The 128-bit key is built as a uint64 array, which
    keeps every seed below 2**64 exact.  Blocks run on the pool, so into
    must be safe on disjoint blocks.
    """
    shape = (min(_BLOCK_ROWS, n_draws), A.shape[0])  # no block has more rows
    scratch = threading.local()

    def block(rows):
        if not hasattr(scratch, "z"):
            scratch.z, scratch.eta = np.empty(shape), np.empty(shape)
        z, eta = scratch.z[:rows.stop - rows.start], scratch.eta[:rows.stop - rows.start]
        key = np.array([seed, rows.start], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))

        def etas():
            for _ in range(k):
                gen.standard_normal(out=z)
                yield np.matmul(z, A.T, out=eta)

        into(rows, etas())

    _in_pool(block, _row_blocks(n_draws))


def _square_sums(A: np.ndarray, n_draws: int, k: int, seed: int, into) -> None:
    """Calls into(rows, psi) for each row block of n_draws permanental
    draws, psi being a fresh array of the sum of the block's k squared
    Gaussian rows.

    The squares are added in vector order, so psi matches an all-zero
    array to which each square is added in turn (+0.0 + x is x, bit for
    bit).  A block that is not finite, as from overflow, raises
    NonFiniteError before into sees it.
    """
    def squares(rows, etas):
        eta = next(etas)
        psi = eta * eta
        for eta in etas:
            eta *= eta
            psi += eta
        # squares are >= 0 and max propagates NaN, so this checks every draw
        if not np.isfinite(psi.max()):
            raise NonFiniteError("draws must be finite")
        into(rows, psi)

    with np.errstate(over="ignore"):  # overflow leaves inf, which raises above
        _gaussian_rows(A, n_draws, k, seed, squares)


def sample_gaussian(G: KernelMatrix, n_draws: int, seed: int) -> SampleBatch:
    """N centered Gaussian draws with covariance G."""
    n_draws, seed = _draw_count(n_draws), _read_seed(seed)
    draws = np.empty((n_draws, G.dim))

    def put(rows, etas):
        draws[rows] = next(etas)

    _gaussian_rows(_sqrt_factor(G), n_draws, 1, seed, put)
    return SampleBatch(draws, np.ones(n_draws), seed,
                       PermanentalSpec(G, 2.0), kind="gaussian")


def sample_permanental(spec: PermanentalSpec, n_draws: int, seed: int) -> SampleBatch:
    """N draws of the permanental vector with index beta = 2/k.

    Each draw is the coordinatewise sum of k independent squared
    Gaussian vectors with covariance spec.kernel; the Laplace transform
    at any nonnegative diagonal alpha is det(I + alpha G)^(-k/2).
    Draws that overflow raise NonFiniteError.
    """
    n_draws, seed, k = _draw_count(n_draws), _read_seed(seed), spec.k
    psi = np.empty((n_draws, spec.kernel.dim))

    def put(rows, block):
        psi[rows] = block

    _square_sums(_sqrt_factor(spec.kernel), n_draws, k, seed, put)
    return SampleBatch(psi, np.ones(n_draws), seed, spec, kind="permanental")


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


def _alpha_diagonal(alpha_diag, n: int) -> np.ndarray:
    """alpha_diag as n finite nonnegative reals; a scalar is repeated n times."""
    a = np.asarray(alpha_diag, dtype=float)
    a = np.full(n, a) if a.ndim == 0 else a
    if a.shape != (n,) or not np.all(np.isfinite(a) & (a >= 0)):
        raise InputFormatError(f"alpha must be a finite nonnegative diagonal of length {n}")
    return a


def laplace_transform(G: KernelMatrix, beta: float, alpha_diag) -> float:
    """Exact det(I + diag(alpha) G)^(-1/beta) for nonnegative diagonal alpha."""
    a = _alpha_diagonal(alpha_diag, G.dim)
    beta = PermanentalSpec(G, beta).index_beta
    det = float(np.linalg.det(np.eye(G.dim) + np.diag(a) @ G.entries))
    if det <= 0:
        raise NotPSDError(f"det(I + alpha G) = {det:g} is not positive", det)
    return det ** (-1.0 / beta)


def empirical_laplace(batch: SampleBatch, alpha_diag) -> float:
    """Weighted MC estimate of E[exp(-(1/2) sum_i alpha_i psi_i)]."""
    a = _alpha_diagonal(alpha_diag, batch.dim)
    return batch.mean(np.exp(-0.5 * (_psi_values(batch) @ a)))


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


def _batch_header(n_draws: int, dim: int, seed: int, kind: str, alpha: float,
                  spec: PermanentalSpec) -> bytes:
    """The JSON header line of a batch file."""
    header = {
        "schema": defaults.SCHEMA_VERSION,
        "n_draws": n_draws,
        "dim": dim,
        "seed": seed,
        "kind": kind,
        "alpha": alpha,
        "spec": spec.to_dict(),
    }
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"


def save_batch(batch: SampleBatch, path) -> None:
    """Header line of JSON, then draws and weights as little-endian float64."""
    with open(path, "wb") as fh:
        fh.write(_batch_header(batch.n_draws, batch.dim, batch.seed, batch.kind,
                               batch.alpha, batch.spec))
        # a view where the array is already little-endian float64, not a copy
        fh.write(np.ascontiguousarray(batch.draws, dtype="<f8").data)
        fh.write(np.ascontiguousarray(batch.weights, dtype="<f8").data)


def _write_at(fd: int, data, offset: int) -> None:
    """Writes the bytes of data at byte offset of file fd."""
    view = memoryview(data).cast("B")
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


def _stream_permanental(spec: PermanentalSpec, n_draws, seed, path) -> tuple[int, float]:
    """Writes save_batch(sample_permanental(spec, n_draws, seed), path)'s
    bytes and returns the batch's draw count and ess.

    Each row block's draws and unit weights go straight to their places
    in a new file beside path, from the pool's threads, with no N x n
    array; once every block is written, the new file takes path's mode
    and is renamed onto path (through a symlink, onto its target).  An
    error, such as NonFiniteError for draws that overflow, removes the
    new file and leaves path as it was.  A new file stands for path only
    where path is missing or a regular file with one link that this
    process's user owns, and where its directory takes a new file;
    elsewhere (a device, a FIFO, a read-only directory) the batch is
    sampled in memory and save_batch writes it in place.  A process
    killed while writing leaves its <path>.<hex>.tmp file behind.
    """
    n_draws, seed = _draw_count(n_draws), _read_seed(seed)
    k, A = spec.k, _sqrt_factor(spec.kernel)
    n = A.shape[0]
    header = _batch_header(n_draws, n, seed, "permanental", 0.0, spec)
    weights_at = len(header) + 8 * n * n_draws

    def put(rows, psi):
        # views of little-endian float64 bytes, as save_batch writes them
        _write_at(fd, np.ascontiguousarray(psi, dtype="<f8").view(np.uint8),
                  len(header) + 8 * n * rows.start)
        _write_at(fd, np.ones(rows.stop - rows.start, dtype="<f8").view(np.uint8),
                  weights_at + 8 * rows.start)

    target, fd = os.path.realpath(path), None
    try:
        st = os.stat(target)
        fresh = (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
                 and st.st_uid == os.geteuid())
    except FileNotFoundError:
        st, fresh = None, True
    except OSError:
        fresh = False
    if fresh:
        temp = f"{target}.{os.urandom(6).hex()}.tmp"
        try:
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError:
            pass
    if fd is None:
        batch = sample_permanental(spec, n_draws, seed)
        save_batch(batch, path)
        return n_draws, batch.ess
    try:
        try:
            _write_at(fd, header, 0)
            _square_sums(A, n_draws, k, seed, put)
            if st is not None:
                os.fchmod(fd, stat.S_IMODE(st.st_mode))
        finally:
            os.close(fd)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise
    # n_draws unit weights sum to n_draws, as do their squares
    return n_draws, _ess(np.float64(n_draws), np.float64(n_draws))


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
        schema = header.get("schema")
        if type(schema) is not int or schema != defaults.SCHEMA_VERSION:
            raise InputFormatError(f"batch schema {schema} != {defaults.SCHEMA_VERSION}")
        try:
            n, d, seed, kind, alpha = (header[key] for key in
                                       ("n_draws", "dim", "seed", "kind", "alpha"))
            beta = header["spec"]["index_beta"]
            # JSON integers and numbers, as kernel_from_dict reads "dim": a bool is neither
            if {type(n), type(d)} != {int} or not {type(alpha), type(beta)} <= {int, float}:
                raise TypeError("n_draws and dim must be integers, alpha and index_beta numbers")
            spec = PermanentalSpec(kernel_from_dict(header["spec"]["kernel"]), beta)
            seed, alpha = _read_seed(seed), float(alpha)
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
