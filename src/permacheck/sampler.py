"""Exact sampling and exponential tilting for permanental laws.

Direct sampling covers index beta = 2/k: a draw is the coordinatewise
sum of k squared centered Gaussians with the given covariance.  Other
alphas are reached by self-normalized importance weights
exp(-(alpha/2) sum_i psi_i), which move the kernel to its
alpha-resolvent without resampling.  All draws are pure functions of
(seed, index) through a counter-based Philox stream, so batches are
reproducible bit for bit.  A normal is ndtri of one Philox uniform, and
each block of rows reads its own place in the stream, so blocks can be
drawn in any order.  A batch of at most 2**20 normals, in a process
that has not imported scipy.special, takes ndtri from _ndtri_cephes, a
numpy port of the Cephes routine, so it loads no scipy; any other batch
calls scipy.special.ndtri, which is faster per normal once imported,
and draws its row blocks on a pool of one thread per CPU the process
may run on.  The port's blocks run one after the other: its math.log
calls hold the GIL.  The two routes give the same bits wherever
TestNdtriPort passes (checked on x86-64 glibc with numpy 2.4 and scipy
1.17), so there neither the route nor the thread count shows in a
batch.
"""

from __future__ import annotations

import json
import math
import operator
import os
import sys
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
# working set beside the output is three arrays of this many rows per worker
_BLOCK_ROWS = 8192

# threads for the sampler's row blocks and the association statistics:
# the CPUs this process may run on.  No output depends on it.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

# Batches of at most this many normals go through _ndtri_cephes unless
# scipy.special is loaded already, larger ones through scipy.special.ndtri;
# both give the same bits.  On a 2-vCPU Xeon, importing scipy.special
# takes about 0.31 s.  A whole permanental batch (n = 6, k = 2) costs
# about 225 ns per normal on the port, which stays on one thread (two
# math.log calls per tail value, under the GIL), and 50 ns on scipy's
# route with one worker or 30-35 ns with two.  So the port breaks even
# near 1.7e6 normals against one worker and 1.6e6 against two, and
# 2**20 normals cost it about 0.24 s.  It changes no result, so it is
# not in the defaults table.
_CEPHES_MAX_NORMALS = 1 << 20

# Cephes ndtri (Moshier) as scipy.special.ndtri evaluates it: its
# coefficient tables, polevl/p1evl Horner order and branch points
_EXP_M2 = 0.13533528323661269189  # e^-2
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
# x = y - 0.5 for e^-2 < y < 1 - e^-2: x + x y2 P0(y2)/Q0(y2), y2 = x^2
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# tails, in z = 1/x with x = sqrt(-2 log y): P1/Q1 for 2 <= x < 8, P2/Q2 for x >= 8
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """coef[0] x^N + ... + coef[N], in Horner order, one rounding per step."""
    ans = np.full_like(x, coef[0])
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef) -> np.ndarray:
    """_polevl with a leading coefficient of 1 that is not stored."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _libm_log(x: np.ndarray) -> np.ndarray:
    """log of a contiguous 1-d array through math.log, the C library's log
    that scipy calls; np.log's SIMD loops can differ from it in the last bit."""
    return np.fromiter(map(math.log, memoryview(x)), float, x.size)


def _ndtri_cephes(u: np.ndarray, out: np.ndarray) -> None:
    """Standard normal quantiles of u, strictly inside (0, 1), into out.

    Bit for bit the Cephes ndtri that scipy.special.ndtri runs: the same
    tables, Horner order and branches (e^-2, 1 - e^-2, x = 8), numpy's
    unfused IEEE arithmetic and the C library's log, as TestNdtriPort
    checks against the installed scipy.  out must be C-contiguous; u and
    out may be the same array.
    """
    y = u.reshape(-1)
    upper = y > 1.0 - _EXP_M2  # Cephes takes 1 - y there and keeps the sign
    y = np.where(upper, 1.0 - y, y)
    mid = y > _EXP_M2
    c = y[mid] - 0.5
    c2 = c * c
    central = c + c * (c2 * _polevl(c2, _P0) / _p1evl(c2, _Q0))
    central *= _S2PI
    tail = ~mid
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    z = 1.0 / x
    x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    far = x >= 8.0  # y <= e^-32
    zf = z[far]
    x1[far] = zf * _polevl(zf, _P2) / _p1evl(zf, _Q2)
    x = x - _libm_log(x) / x - x1
    np.negative(x, out=x, where=~upper[tail])
    flat = out.reshape(-1)
    flat[mid] = central
    flat[tail] = x


def _stream_at(seed: int, word: int) -> np.random.Generator:
    """The Philox stream of seed from its 64-bit word `word` on.

    Philox is counter-based: one counter step makes four words, so this
    advances word // 4 steps and discards word % 4 words, and any block
    of the stream can be drawn on its own, in any order.
    """
    bits = np.random.Philox(key=np.uint64(seed))
    bits.advance(word // 4)
    bits.random_raw(word % 4)
    return np.random.Generator(bits)


def _open_uniforms(raw: np.ndarray, out: np.ndarray) -> None:
    """Uniforms (raw + 0.5) * 2**-53 strictly inside (0, 1), into out,
    from integers raw in [0, 2**53).

    The top word 2**53 - 1 would round to 1.0 (2**53 - 0.5 is a tie, and
    rounds to the even 2**53), so it maps to 1 - 2**-53 instead; every
    other word is below that already.
    """
    np.add(raw, 0.5, out=out)
    out *= 2.0 ** -53
    np.minimum(out, 1.0 - 2.0 ** -53, out=out)


def _fill_normals(gen: np.random.Generator, out: np.ndarray, ndtri) -> None:
    """Standard normals into out, in place, from the next out.size words of gen.

    Each value takes exactly one 64-bit word: for the range 2**53 the
    bounded draw never rejects, so successive calls continue one stream.
    ndtri is the batch's route, _ndtri_cephes or scipy's.
    """
    _open_uniforms(gen.integers(0, 1 << 53, size=out.shape, dtype=np.uint64), out)
    ndtri(out, out)


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


def _ndtri_route(n_normals: int):
    """The ndtri for a batch of n_normals normals: the port when the batch
    is small and scipy.special is not loaded, so that the port saves its
    import; scipy's, faster per normal, once the import is paid or worth it."""
    if n_normals <= _CEPHES_MAX_NORMALS and "scipy.special" not in sys.modules:
        return _ndtri_cephes
    from scipy.special import ndtri  # imported only here, for this route

    return ndtri


def _in_pool(fn, items, pooled: bool = True) -> list:
    """[fn(x) for x in items], each call under the caller's np.errstate.

    When pooled and there are at least two items, the calls run on
    _WORKERS threads, so fn must be safe to call concurrently; results
    and the first exception still come in item order.  numpy's error
    state is a context variable that a pool thread does not inherit,
    hence the wrap.
    """
    items = list(items)
    if not pooled or _WORKERS < 2 or len(items) < 2:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor  # about 10 ms, paid only here

    err = np.geterr()

    def call(x):
        with np.errstate(**err):
            return fn(x)

    with ThreadPoolExecutor(min(_WORKERS, len(items))) as pool:
        return list(pool.map(call, items))


def _gaussian_rows(A: np.ndarray, n_draws: int, k: int, seed: int, into) -> None:
    """Calls into(rows, eta) for row block `rows` of each of k Gaussian
    draw matrices z @ A.T.

    A block's normals are the Philox words that one (k, n_draws, n)
    normal array would give it: vector v's rows start at word
    (v * n_draws + rows.start) * n.  Each block runs its k vectors in
    order, so into may add them up; blocks run on the pool when scipy's
    ndtri is the route (the port's math.log calls hold the GIL), and
    into must then be safe on disjoint blocks.  _ndtri_route picks the
    ndtri once, from the batch's k * n_draws * n normals.
    """
    n = A.shape[0]
    ndtri = _ndtri_route(k * n_draws * n)

    def block(rows):
        for v in range(k):
            z = np.empty((rows.stop - rows.start, n))
            _fill_normals(_stream_at(seed, (v * n_draws + rows.start) * n), z, ndtri)
            into(rows, z @ A.T)

    _in_pool(block, _row_blocks(n_draws), pooled=ndtri is not _ndtri_cephes)


def sample_gaussian(G: KernelMatrix, n_draws: int, seed: int) -> SampleBatch:
    """N centered Gaussian draws with covariance G."""
    n_draws = _draw_count(n_draws)
    draws = np.empty((n_draws, G.dim))

    def put(rows, eta):
        draws[rows] = eta

    _gaussian_rows(_sqrt_factor(G), n_draws, 1, seed, put)
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

    def add_square(rows, eta):
        eta *= eta
        psi[rows] += eta

    with np.errstate(over="ignore"):  # SampleBatch rejects draws that overflow
        _gaussian_rows(_sqrt_factor(spec.kernel), n_draws, k, seed, add_square)
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
