"""Acceptance gate: nine criteria, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v`; the summary lines are
printed unbuffered so they appear even under output capture.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

import permacheck
from permacheck import (
    PermanentalSpec,
    association_mc_test,
    bapat_test,
    beta_permanent,
    beta_positivity_scan,
    fkg_lattice_test,
    hadamard_power,
    id_verdict,
    is_green,
    kernel,
    laplace_transform,
    plus_constant_check,
    random_scalings,
    resolvent,
    resolvent_monotonicity_scan,
    restriction,
    sample_gaussian,
    sample_permanental,
    shifted_pair_id_test,
    shifted_strong_order_test,
    save_matrix,
    tilt_resolvent,
)
from oracles import (
    naive_beta_permanent_multi,
    naive_permanent,
    random_green,
    random_pd_kernel,
)

SEED = 20260814
TRI3 = [[1.0, 0.6, 0.0], [0.6, 1.0, 0.6], [0.0, 0.6, 1.0]]
MIX3 = [[1.0, -0.31, 0.58], [-0.31, 1.0, 0.58], [0.58, 0.58, 1.0]]
GREEN2 = [[4 / 3, 2 / 3], [2 / 3, 4 / 3]]


def announce(capsys, number: int, ok: bool, message: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {message}",
              flush=True)


@pytest.fixture(scope="module")
def corpus():
    """50 random symmetric PD kernels, dims 2-4, with bapat verdicts.

    Half are scaled chain potentials (always infinitely divisible), half
    are normalized Wishart-type matrices (mixed verdicts), so both
    branches of the equivalence get exercised.
    """
    rng = np.random.default_rng(SEED)
    dims = itertools.cycle((2, 3, 4))
    kernels = []
    for _ in range(25):
        kernels.append(kernel(random_green(rng, next(dims), symmetric=True)))
    for _ in range(25):
        kernels.append(kernel(random_pd_kernel(rng, next(dims))))
    return [(G, bapat_test(G)) for G in kernels]


def _jackknife_se(values, weights=None, blocks=200):
    """Delete-block jackknife SE for a (weighted) mean."""
    f = np.asarray(values, dtype=float)
    w = np.ones_like(f) if weights is None else np.asarray(weights, float)
    starts = np.linspace(0, f.size, blocks + 1).astype(int)[:-1]
    swf = np.add.reduceat(w * f, starts)
    sw = np.add.reduceat(w, starts)
    loo = (swf.sum() - swf) / (sw.sum() - sw)
    b = loo.size
    return math.sqrt((b - 1) / b * float(np.sum((loo - loo.mean()) ** 2)))


def _moment_rise_mp(g, witness):
    """A monotonicity witness's rise of E|eta_a(i) eta_a(j)| at 50 digits.

    Recomputes the moment at both alphas from (I + alpha DGD)^(-1) DGD,
    independently of the float64 resolvent used by the scan.
    """
    i, j = witness["pair"]
    with mpmath.workdps(50):
        dm = mpmath.diag([mpmath.mpf(x) for x in witness["scaling"]])
        dgd = dm * mpmath.matrix(g) * dm
        moments = []
        for alpha in witness["alphas"]:
            r = (mpmath.eye(dgd.rows) + mpmath.mpf(alpha) * dgd) ** -1 * dgd
            s = mpmath.sqrt(r[i, i] * r[j, j])
            rho = r[i, j] / s
            moments.append(2 / mpmath.pi * s * (
                rho * mpmath.asin(rho) + mpmath.sqrt(1 - rho ** 2)))
        return moments[1] - moments[0]


def test_criterion_1_beta_permanent_exactness(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 1)
    betas = (-1.0, 0.5, 1.0, 2.0)
    bad = 0
    for case in range(100):
        m = int(rng.integers(1, 8))
        a = rng.integers(-3, 4, size=(m, m)).astype(float)
        oracle = naive_beta_permanent_multi(a, betas)
        for b in betas:
            if beta_permanent(a, b) != oracle[b]:
                bad += 1
        if m <= 5 and beta_permanent(a, 1.0) != naive_permanent(a):
            bad += 1
        det = float(np.linalg.det(a))
        if abs(beta_permanent(a, -1.0) - (-1.0) ** m * det) > \
                1e-9 * max(1.0, abs(det)):
            bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0 and elapsed < 60.0
    announce(capsys, 1, ok,
             f"exact == oracle on 100 matrices (m <= 7), 4 betas; "
             f"det/permanent identities; {elapsed:.1f}s")
    assert ok, f"{bad} mismatches, {elapsed:.1f}s"


def test_criterion_2_divisibility_equivalence(capsys, corpus):
    t0 = time.monotonic()
    tri = id_verdict(kernel(TRI3))
    tri_ok = tri.fails and tri.method == "bapat-exact"
    fkg_mismatch = 0
    mc_violations = 0
    holds_count = 0
    for idx, (G, v) in enumerate(corpus):
        if G.dim == 2:
            f = fkg_lattice_test(G)
            if f.holds != v.holds:
                fkg_mismatch += 1
        if v.holds:
            holds_count += 1
            rep = association_mc_test(PermanentalSpec(G, 2.0),
                                      n_draws=10 ** 6,
                                      seed=SEED + 100 + idx)
            if not rep.verdict.holds:
                mc_violations += 1
    elapsed = time.monotonic() - t0
    ok = tri_ok and fkg_mismatch == 0 and mc_violations == 0 \
        and elapsed < 600.0
    announce(capsys, 2, ok,
             f"tridiagonal NOT-ID (bapat-exact); FKG matches on dim-2; "
             f"0 association violations over {holds_count} holds-instances "
             f"at N=1e6; {elapsed:.1f}s")
    assert ok, (f"tri_ok={tri_ok} fkg_mismatch={fkg_mismatch} "
                f"mc_violations={mc_violations} {elapsed:.1f}s")


def test_criterion_3_scan_consistency(capsys, corpus):
    t0 = time.monotonic()
    witnesses = 0
    scanned = 0
    for G, v in corpus:
        if not v.holds:
            continue
        scanned += 1
        rep = beta_positivity_scan(G, m_max=5)
        if rep.witness is not None:
            witnesses += 1
    elapsed = time.monotonic() - t0
    ok = witnesses == 0 and scanned > 0
    announce(capsys, 3, ok,
             f"no positivity witness on {scanned} certified kernels "
             f"(default grids, m_max 5); {elapsed:.1f}s")
    assert ok, f"{witnesses} witnesses on holds-instances"


def test_criterion_4_tilting(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 4)
    n_draws = 10 ** 6
    pairs = []
    dims = itertools.cycle((2, 3, 4))
    alphas = itertools.cycle((0.5, 1.0, 2.0))
    for i in range(20):
        d = next(dims)
        g = random_green(rng, d, symmetric=True) if i % 2 else \
            random_pd_kernel(rng, d)
        pairs.append((kernel(g), next(alphas)))
    bad = 0
    bad_norm = 0
    for idx, (G, alpha) in enumerate(pairs):
        n = G.dim
        # same seed on both arms: common random numbers, so the 3 SE
        # bound from independent-arm jackknives is conservative
        seed = SEED + 400 + idx
        base = sample_gaussian(G, n_draws, seed=seed)
        tilted = tilt_resolvent(base, alpha)
        direct = sample_gaussian(resolvent(G, alpha), n_draws, seed=seed)
        psi_t = tilted.draws ** 2
        psi_d = direct.draws ** 2
        thresholds = np.median(psi_d, axis=0)
        j = 1 % n
        functionals = [
            lambda x: x[:, 0],
            lambda x: x[:, n - 1],
            lambda x, j=j: x[:, 0] * x[:, j],
            lambda x, t=thresholds: np.all(x >= t, axis=1).astype(float),
            lambda x: x.max(axis=1),
            lambda x: x.min(axis=1),
        ]
        for f in functionals:
            ft, fd = f(psi_t), f(psi_d)
            est_t = float(np.average(ft, weights=tilted.weights))
            est_d = float(fd.mean())
            se = math.hypot(_jackknife_se(ft, tilted.weights),
                            _jackknife_se(fd))
            if abs(est_t - est_d) > 3 * se:
                bad += 1
        # normalizer: plain MC mean of the tilting factor on a fresh batch
        fresh = sample_gaussian(G, n_draws, seed=SEED + 470 + idx)
        e = np.exp(-0.5 * alpha * (fresh.draws ** 2).sum(axis=1))
        exact = laplace_transform(G, 2.0, alpha * np.ones(n))
        se_n = float(e.std(ddof=1) / math.sqrt(e.size))
        if abs(float(e.mean()) - exact) > 3 * se_n:
            bad_norm += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0 and bad_norm == 0 and elapsed < 300.0
    announce(capsys, 4, ok,
             f"20 (G, alpha) pairs, 6 functionals within 3 SE of direct "
             f"resolvent sampling at N=1e6; normalizers within 3 SE; "
             f"{elapsed:.1f}s")
    assert ok, f"bad={bad} bad_norm={bad_norm} {elapsed:.1f}s"


def test_criterion_5_moment_monotonicity(capsys, corpus):
    t0 = time.monotonic()
    id_kernels = [G for G, v in corpus if v.holds][:20]
    clause1_bad = 0
    for G in id_kernels:
        if not resolvent_monotonicity_scan(G).holds:
            clause1_bad += 1
    # non-ID kernel with a negative cyclic product G01*G12*G20, the sign
    # pattern the moment needs in order to rise (see README)
    mix = kernel(MIX3)
    mix_not_id = bapat_test(mix).fails and \
        MIX3[0][1] * MIX3[1][2] * MIX3[2][0] < 0
    witness = None
    for count in (100, 1000):
        scalings = random_scalings(3, count, seed=SEED + 5)
        v = resolvent_monotonicity_scan(mix, D_set=scalings)
        if v.fails:
            witness = v.witness
            break
    confirmed = False
    detail = ("no increasing pair found for the 3x3 NOT-ID kernel in "
              "1000 scalings")
    if witness is not None:
        rise = _moment_rise_mp(MIX3, witness)
        confirmed = rise > 0 and \
            abs(float(rise) - witness["increase"]) <= 1e-10 * float(rise)
        detail = (f"witness {witness}, 50-digit increase "
                  f"{mpmath.nstr(rise, 15)}")
    elapsed = time.monotonic() - t0
    ok = clause1_bad == 0 and mix_not_id and confirmed
    announce(capsys, 5, ok,
             f"nonincreasing on {len(id_kernels)} ID kernels; {detail}; "
             f"{elapsed:.1f}s")
    assert ok, (f"clause1_bad={clause1_bad} mix_not_id={mix_not_id} "
                f"confirmed={confirmed}; {detail}")


def test_criterion_6_laplace_law(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 6)
    kernels = [kernel(random_pd_kernel(rng, d)) for d in (2, 3, 4)]
    bad = 0
    total = 0
    for G in kernels:
        n = G.dim
        for k in (1, 2, 3):
            spec = PermanentalSpec(G, 2.0 / k)
            batch = sample_permanental(spec, 10 ** 6,
                                       seed=SEED + 600 + 10 * n + k)
            for _ in range(5):
                a = rng.uniform(0.0, 2.0, size=n)
                exact = laplace_transform(G, 2.0 / k, a)
                vals = np.exp(-0.5 * batch.draws @ a)
                se = float(vals.std(ddof=1) / math.sqrt(vals.size))
                total += 1
                if abs(float(vals.mean()) - exact) > 3 * se:
                    bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0
    announce(capsys, 6, ok,
             f"empirical Laplace transform within 3 SE of determinant "
             f"formula on {total} (kernel, k, alpha) cases at N=1e6; "
             f"{elapsed:.1f}s")
    assert ok, f"{bad} of {total} outside 3 SE"


def test_criterion_7_green_stability(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 7)
    dims = itertools.cycle((2, 3, 4, 5, 6))
    greens = [kernel(random_green(rng, next(dims), symmetric=bool(i % 2)))
              for i in range(200)]
    hadamard_bad = 0
    for G in greens:
        for beta in (1.5, 2.0, 3.0):
            if not is_green(hadamard_power(G, beta)).holds:
                hadamard_bad += 1
    restrict_bad = 0
    for G in greens[:50]:
        for size in range(1, G.dim + 1):
            for subset in itertools.combinations(range(G.dim), size):
                if not is_green(restriction(G, subset)).holds:
                    restrict_bad += 1
    plus_c_bad = 0
    plus_c_open = 0
    for G in greens:
        rep = plus_constant_check(G)
        if rep.verdict.fails:
            plus_c_bad += 1
        elif not rep.verdict.holds:
            plus_c_open += 1
    elapsed = time.monotonic() - t0
    ok = hadamard_bad == 0 and restrict_bad == 0 and plus_c_bad == 0 \
        and elapsed < 300.0
    announce(capsys, 7, ok,
             f"Hadamard powers of 200 potentials stay Green; all principal "
             f"submatrices of 50 stay Green; plus-constant grid clean on "
             f"200 instances ({plus_c_open} inconclusive, 0 failing); "
             f"{elapsed:.1f}s")
    assert ok, (f"hadamard_bad={hadamard_bad} restrict_bad={restrict_bad} "
                f"plus_c_bad={plus_c_bad} {elapsed:.1f}s")


def test_criterion_8_strong_order(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 8)
    green_kernels = [kernel(GREEN2),
                     kernel(random_green(rng, 2, symmetric=True))]
    holds_ok = all(
        shifted_strong_order_test(G, [(1.0, 0.5), (2.0, 1.0)]).verdict.holds
        for G in green_kernels)
    neg = shifted_strong_order_test(kernel([[1.0, -0.5], [-0.5, 1.0]]),
                                    [(1.0, 0.5)])
    fails_ok = neg.verdict.fails and "lhs" in neg.verdict.witness
    pair_rule_ok = shifted_pair_id_test(1.0, -0.5, 1.0).fails and \
        shifted_pair_id_test(1.0, 0.0, 1.0).holds
    elapsed = time.monotonic() - t0
    ok = holds_ok and fails_ok and pair_rule_ok
    announce(capsys, 8, ok,
             f"strong order holds on Green pairs, fails with lattice "
             f"witness on the negative pair; shifted-pair checker agrees; "
             f"{elapsed:.1f}s")
    assert ok, f"holds_ok={holds_ok} fails_ok={fails_ok} pair_rule_ok={pair_rule_ok}"


# one child per setting runs every command in process, so that a child
# pinned to one CPU is pinned before permacheck counts its workers; it
# prints the sampler's worker count and the exit codes
_COMMANDS_CHILD = """
import json
import os
import sys
if len(sys.argv) > 2:
    os.sched_setaffinity(0, {int(sys.argv[2])})
import permacheck.sampler
from permacheck.cli import parse_and_dispatch
codes = [parse_and_dispatch(argv) for argv in json.loads(sys.argv[1])]
print(permacheck.sampler._WORKERS, *codes)
"""


def test_criterion_9_thread_reproducibility(capsys, tmp_path):
    t0 = time.monotonic()
    save_matrix(kernel(TRI3), tmp_path / "tri.csv")
    save_matrix(kernel([[1.0, 0.5], [0.5, 1.0]]), tmp_path / "g2.csv")
    save_matrix(kernel(GREEN2), tmp_path / "green2.csv")
    # output paths are relative, since reports echo them
    jobs = {
        "scan": ["scan", "--input", str(tmp_path / "tri.csv"),
                 "--m-max", "4"],
        "assoc": ["check-assoc", "--kernel", str(tmp_path / "g2.csv"),
                  "--k", "1", "--n", "200000", "--seed", str(SEED)],
        "monotone": ["scan-monotone", "--kernel", str(tmp_path / "g2.csv"),
                     "--scalings", "random:5", "--seed", str(SEED)],
        "fkg": ["check-fkg", "--kernel", str(tmp_path / "g2.csv")],
        "order": ["shifted-order", "--kernel", str(tmp_path / "green2.csv"),
                  "--r-pairs", "1,0.5;2,1"],
        # one row block, then 25 on the pool
        "sample": ["sample", "--kernel", str(tmp_path / "g2.csv"), "--k", "2",
                   "--n", "1000", "--seed", str(SEED), "--out", "sample.bin"],
        "sample-pooled": ["sample", "--kernel", str(tmp_path / "g2.csv"), "--k", "2",
                          "--n", "200000", "--seed", str(SEED), "--out", "pooled.bin"],
    }
    argvs = [argv + ["--report", f"{name}.json"] for name, argv in jobs.items()]
    # the children run in their own directories, so the package path is absolute
    package_root = str(Path(permacheck.__file__).parents[1])
    cpus = os.sched_getaffinity(0)
    settings = {"blas-1": ("1", []), "blas-2": ("2", []), "blas-4": ("4", []),
                "one-cpu": ("2", [str(min(cpus))])}
    runs = {}
    for name, (blas, pin) in settings.items():
        out = tmp_path / name
        out.mkdir()
        proc = subprocess.run([sys.executable, "-c", _COMMANDS_CHILD, json.dumps(argvs), *pin],
                              capture_output=True, text=True, cwd=out,
                              env=dict(os.environ, PYTHONPATH=package_root,
                                       OPENBLAS_NUM_THREADS=blas))
        assert proc.returncode == 0, (name, proc.stderr)
        workers, *codes = map(int, proc.stdout.split())
        assert workers == (1 if pin else len(cpus)), (name, workers)
        assert len(codes) == len(jobs) and set(codes) <= {0, 1}, (name, codes)
        runs[name] = (codes, {p.name: p.read_bytes() for p in sorted(out.iterdir())})
    reference = runs["blas-1"]
    assert len(reference[1]) == len(jobs) + 2  # a report each, and two batches
    mismatches = [name for name, run in runs.items() if run != reference]
    elapsed = time.monotonic() - t0
    ok = not mismatches
    announce(capsys, 9, ok,
             f"reports and batches byte-identical at OPENBLAS_NUM_THREADS 1/2/4 on "
             f"{len(cpus)} CPUs and on 1 CPU for {len(jobs)} commands; {elapsed:.1f}s")
    assert ok, f"settings whose outputs differ from blas-1: {mismatches}"
