"""Seeded inputs and command lists for the benchmark workloads.

Every input is drawn from ``numpy.random.default_rng([seed, salt])`` with
a fixed salt per input, so one seed always gives the same files.  The
generators build kernels whose verdict follows from their construction,
not from running permacheck, and each command carries that verdict as
its pinned exit code.  The exception is ``psd_singular_any``, drawn with
no filter: ``oracle.py`` decides its verdict independently.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

import numpy as np

import oracle

# Exit codes of the permacheck CLI.
HOLDS, FAILS, INCONCLUSIVE = 0, 1, 4

TRI_CSV = "1,0.6,0\n0.6,1,0.6\n0,0.6,1\n"  # the README's failing kernel

NAMES = ("cli-quick", "scan-heavy", "monte-carlo")


@dataclass
class Cmd:
    """One CLI invocation with its pinned exit code and output checks.

    ``argv`` is relative to the work directory.  ``report`` names the
    JSON report the command writes, if any.  ``scan`` marks commands whose
    ``scanned`` count feeds scan_triples_per_s; ``draws`` is the number of
    draws the command requests, for draws_per_s.  ``data`` holds what the
    checks in ``checks.py`` need to know about the inputs.
    """

    label: str
    argv: list
    rc: int
    checks: tuple = ()
    report: str | None = None
    scan: bool = False
    draws: int = 0
    data: dict = field(default_factory=dict)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), salt])


def _csv(a) -> str:
    return "".join(",".join(format(float(v), ".17g") for v in row) + "\n"
                   for row in np.asarray(a))


def _resolvents_positive(g: np.ndarray) -> bool:
    """Every resolvent on the scan's alpha grid is entrywise positive, so no
    beta-permanent on the grid can be negative and a scan finds nothing."""
    eye = np.eye(len(g))
    return all(np.min(np.linalg.solve(eye + a * g, g)) > 0 for a in oracle.ALPHAS)


def id_spd(rng, n):
    """sigma M^-1 sigma for a diagonally dominant M-matrix M: infinitely divisible."""
    a = rng.uniform(0.1, 1.0, (n, n))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    m = np.diag(a.sum(axis=1) + rng.uniform(0.2, 1.0, n)) - a
    sigma = rng.choice([-1.0, 1.0], n)
    g = np.linalg.inv(m) * np.outer(sigma, sigma)
    return (g + g.T) / 2


def pair_kernel(rng, rho_lo, rho_hi):
    """2x2 covariance with correlation drawn from [rho_lo, rho_hi]."""
    v = rng.uniform(0.5, 2.0, 2)
    c = rng.uniform(rho_lo, rho_hi) * np.sqrt(v[0] * v[1])
    return np.array([[v[0], c], [c, v[1]]])


def tridiagonal_non_id(rng):
    """[[1,a,0],[a,1,b],[0,b,1]]: the inverse's sign pattern admits no signature."""
    a, b = rng.uniform(0.3, 0.6, 2)
    return np.array([[1.0, a, 0.0], [a, 1.0, b], [0.0, b, 1.0]])


def green_chain(rng, n):
    """Symmetric sub-Markov chain Q (row sums <= 0.8) and G = (I - Q)^-1."""
    p = rng.uniform(0.2, 1.0, (n, n))
    q = (p + p.T) / 2
    q *= 0.8 / q.sum(axis=1).max()
    g = np.linalg.inv(np.eye(n) - q)
    return q, (g + g.T) / 2


def nonsym_positive(rng, n):
    """Nonsymmetric kernel for the full scan: positive resolvents on the grid,
    positive real eigenvalues, and an inverse with a positive off-diagonal,
    so check-id skips the inverse-M route and ends inconclusive."""
    while True:
        g = 0.02 / n * (2.0 * np.eye(n) + rng.uniform(0.0, 1.0, (n, n)))
        eig = np.linalg.eigvals(g)
        real = eig[np.abs(eig.imag) <= 1e-9 * np.abs(g).max()]
        inv = np.linalg.inv(g)
        off = inv[~np.eye(n, dtype=bool)]
        if np.all(real.real > 0) and off.max() > 1e-3 * np.abs(inv).max() \
                and _resolvents_positive(g):
            return g


def psd_singular(rng, n):
    """Rank n-1 Gram kernel with positive resolvents: Bapat's screen rejects
    it, the battery passes, and the full scan finds nothing."""
    while True:
        b = rng.uniform(0.2, 1.0, (n, n - 1))
        g = 0.05 / (n - 1) * (b @ b.T)
        g = (g + g.T) / 2
        if _resolvents_positive(g):
            return g


def psd_singular_any(rng, n):
    """Rank n-1 Gram kernel of Gaussian vectors, with no filter: some seeds
    give a negative beta-permanent (or triple product) on the grid, others
    none, and values near the scan's threshold occur."""
    b = rng.normal(size=(n, n - 1))
    g = b @ b.T / (n - 1)
    return (g + g.T) / 2


def non_id_symmetric(rng, n):
    """Correlation matrix with one cyclic triple of negative product and
    entries of size >= 0.35 on it, so per_0.1 of that 3x3 block is
    negative at alpha = 0 and the scan stops early with a witness."""
    while True:
        g = np.eye(n)
        for i, j in itertools.combinations(range(n), 2):
            g[i, j] = g[j, i] = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.3)
        tri = rng.choice(n, 3, replace=False)
        signs = rng.choice([-1.0, 1.0], 2)
        signs = np.append(signs, -signs[0] * signs[1])
        for (i, j), s in zip(itertools.combinations(tri, 2), signs):
            g[i, j] = g[j, i] = s * rng.uniform(0.35, 0.45)
        if np.linalg.eigvalsh(g)[0] > 0.05:
            return g


def full_scan_count(n: int, m_max: int, betas: int, alphas: int) -> int:
    """Triples in a scan that finds no witness: multisets of size 1..m_max."""
    multisets = sum(len(list(itertools.combinations_with_replacement(range(n), m)))
                    for m in range(1, m_max + 1))
    return multisets * betas * alphas


class _Builder:
    """Writes input files into the work directory and collects commands."""

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.seed = seed
        self.cmds = []

    def write(self, name, a) -> str:
        text = a if isinstance(a, str) else _csv(a)
        with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return name

    def seed_for(self, salt) -> str:
        return str(int(_rng(self.seed, salt).integers(0, 2 ** 32)))

    def add(self, label, argv, rc, checks=(), report=True, **kw):
        rep = f"{label}.json" if report else None
        if rep:
            argv = list(argv) + ["--report", rep]
        self.cmds.append(Cmd(label, list(argv), rc, tuple(checks), rep, **kw))

    def scan(self, label, kernel_file, rc, n, threads=1, same_as=None):
        pre = ["--threads", str(threads)] if threads != 1 else []
        checks = ("witness",) if rc == FAILS else ("scan_count",)
        checks += ("same_report",) if same_as else ()
        self.add(label, pre + ["scan", "--input", kernel_file], rc, checks,
                 scan=True, data={"input": kernel_file, "n": n, "same_as": same_as})

    def sample(self, label, kernel_file, g, k, draws, salt):
        out = f"{label}.bin"
        self.add(label, ["sample", "--kernel", kernel_file, "--k", str(k),
                         "--n", f"{draws:g}", "--seed", self.seed_for(salt),
                         "--out", out], HOLDS, ("batch",), draws=draws,
                 data={"kernel": g, "k": k, "n": draws, "out": out})


def cli_quick(b: _Builder, smoke: bool) -> None:
    s = b.seed
    # tiny scans and samples, so that every end-to-end metric has a value on
    # this workload; start-up dominates them.  They run at three places in
    # the list, so that the host's speed drift averages out of the figures.
    b.write("ns3.csv", nonsym_positive(_rng(s, 10), 3))
    _, g3 = green_chain(_rng(s, 11), 3)
    b.write("g3.csv", g3)

    def tiny(i):
        b.scan(f"scan-3-{i}", "ns3.csv", HOLDS, 3)
        b.sample(f"sample-tiny-{i}", "g3.csv", g3, 1, 10 ** 4, 12 + i)

    b.add("id-2x2", ["check-id", "--input",
                     b.write("k2.csv", pair_kernel(_rng(s, 1), -0.9, 0.9))], HOLDS)
    b.add("id-3x3", ["check-id", "--input",
                     b.write("k3.csv", id_spd(_rng(s, 2), 3))], HOLDS)
    b.add("id-tridiag", ["check-id", "--input",
                         b.write("tridiag.csv", tridiagonal_non_id(_rng(s, 3)))], FAILS)
    b.add("id-tri", ["check-id", "--input", b.write("tri.csv", TRI_CSV)], FAILS)
    tiny(0)
    m = 4 if smoke else 7
    a = _rng(s, 4).uniform(-1.0, 1.0, (m, m))
    beta = float(np.round(_rng(s, 5).uniform(0.5, 2.0), 3))
    b.add("perm", ["perm", "--input", b.write("perm.csv", a), "--beta", str(beta)],
          HOLDS, ("perm",), data={"matrix": a, "beta": beta})
    q, g = green_chain(_rng(s, 6), 4)
    b.write("chain.csv", q)
    b.write("green.csv", g)
    b.add("green-gen", ["green", "gen", "--chain", "chain.csv", "--out", "gen.csv"],
          HOLDS, ("green_gen",), data={"green": g, "out": "gen.csv"})
    b.add("green-check", ["green", "check", "--input", "green.csv"], HOLDS)
    b.add("green-power", ["green", "power", "--input", "green.csv", "--beta", "2",
                          "--out", "power.csv"], HOLDS)
    b.add("green-plus-c", ["green", "plus-c", "--input", "green.csv"], HOLDS)
    b.add("green-restrict", ["green", "restrict", "--input", "green.csv",
                             "--keep", "0,2", "--out", "restrict.csv"], HOLDS)
    tiny(1)
    r = _rng(s, 7)
    vx, vy = np.round(r.uniform(1.0, 2.0, 2), 3)
    c = float(np.round(r.uniform(0.2, 0.8) * np.sqrt(vx * vy), 3))
    for label, cc, rc in (("pair-holds", c, HOLDS), ("pair-fails", -c, FAILS)):
        b.add(label, ["check-shifted-pair", "--vx", f"{vx:g}", "--c", f"{cc:g}",
                      "--vy", f"{vy:g}"], rc)
    # squared pairs are always FKG; shifted pairs with negative covariance are not
    b.write("neg2.csv", pair_kernel(_rng(s, 8), -0.7, -0.3))
    b.add("fkg-0", ["check-fkg", "--kernel", "neg2.csv", "--shift", "0"], HOLDS)
    b.add("fkg-0.5", ["check-fkg", "--kernel", "neg2.csv", "--shift", "0.5"], FAILS)
    b.add("shifted-order", ["shifted-order", "--kernel",
                            b.write("pos2.csv", pair_kernel(_rng(s, 9), 0.2, 0.5)),
                            "--r-pairs", "1,0.5;2,1"], HOLDS)
    b.add("render", ["render", "--input", "id-tri.json", "--format", "table"],
          HOLDS, ("render",), report=False)
    tiny(2)


def scan_heavy(b: _Builder, smoke: bool) -> None:
    s = b.seed
    big = (3, 3, 4) if smoke else (6, 7, 8)
    # tiny samples at three places in the list, so that draws_per_s has a
    # value on this workload and the host's speed drift averages out of it
    _, g3 = green_chain(_rng(s, 9), 3)
    b.write("g3.csv", g3)

    def tiny(i):
        b.sample(f"sample-tiny-{i}", "g3.csv", g3, 1, 10 ** 4, 30 + i)

    b.add("id-nonsym-3", ["check-id", "--input",
                          b.write("ns3.csv", nonsym_positive(_rng(s, 1), 3))],
          INCONCLUSIVE)
    tiny(0)
    b.add("id-psd-4", ["check-id", "--input",
                       b.write("psd4.csv", psd_singular(_rng(s, 2), 4))], INCONCLUSIVE)
    # unfiltered PSD-singular kernels: the verdict depends on the seed, so
    # the exit codes come from the oracle, and any witness is confirmed
    for n, salt in ((3, 13), (4, 14)):
        g = psd_singular_any(_rng(s, salt), n)
        name = b.write(f"psd-any{n}.csv", g)
        negative = oracle.scan_has_witness(g)
        b.add(f"id-psd-any-{n}", ["check-id", "--input", name],
              FAILS if negative or oracle.battery_fails(g) else INCONCLUSIVE)
        b.scan(f"scan-psd-any-{n}", name, FAILS if negative else HOLDS, n)
    b.scan("scan-psd-a", b.write("psd-a.csv", psd_singular(_rng(s, 3), big[0])),
           HOLDS, big[0])
    b.scan("scan-nonsym", b.write("ns-b.csv", nonsym_positive(_rng(s, 4), big[1])),
           HOLDS, big[1])
    tiny(1)
    b.scan("scan-psd-c", b.write("psd-c.csv", psd_singular(_rng(s, 5), big[2])),
           HOLDS, big[2])
    # early-exit scans: a witness stops them after tens of triples
    for n, salt in ((4, 6), (5, 11), (8, 12)):
        b.scan(f"scan-nonid-{n}",
               b.write(f"nonid{n}.csv", non_id_symmetric(_rng(s, salt), n)), FAILS, n)
    b.write("nonid6.csv", non_id_symmetric(_rng(s, 7), 6))
    b.scan("scan-nonid-6", "nonid6.csv", FAILS, 6)
    b.scan("scan-nonid-6-t2", "nonid6.csv", FAILS, 6, threads=2,
           same_as="scan-nonid-6.json")
    b.write("tri.csv", TRI_CSV)
    b.add("monotone", ["scan-monotone", "--kernel", "tri.csv", "--scalings",
                       f"random:{20 if smoke else 1000}", "--seed", b.seed_for(8)],
          HOLDS)
    tiny(2)


def monte_carlo(b: _Builder, smoke: bool) -> None:
    s = b.seed
    draws = 2 * 10 ** 4 if smoke else 10 ** 6
    # tiny scans at three places in the list, so that scan_triples_per_s has
    # a value on this workload and the host's speed drift averages out of it
    b.write("ns3.csv", nonsym_positive(_rng(s, 40), 3))

    def tiny(i):
        b.scan(f"scan-3-{i}", "ns3.csv", HOLDS, 3)

    for n in (4, 6):
        _, g = green_chain(_rng(s, n), n)
        b.write(f"g{n}.csv", g)
        for k in (1, 2):
            b.sample(f"sample-n{n}-k{k}", f"g{n}.csv", g, k, draws, 10 * n + k)
        tiny(0 if n == 4 else 1)
    for n in (3, 4):
        _, g = green_chain(_rng(s, 20 + n), n)
        name = b.write(f"assoc{n}.csv", g)
        for k in (1, 2):
            # Green kernels are associated: every covariance is clearly positive
            b.add(f"assoc-n{n}-k{k}", ["check-assoc", "--kernel", name, "--k", str(k),
                                       "--n", f"{draws:g}",
                                       "--seed", b.seed_for(100 + 10 * n + k)],
                  HOLDS, ("assoc",), draws=draws, data={"n": n, "draws": draws})
    tiny(2)


_BUILDERS = {"cli-quick": cli_quick, "scan-heavy": scan_heavy,
             "monte-carlo": monte_carlo}


def build(name: str, seed: int, workdir: str, smoke: bool = False) -> list:
    """Write the workload's inputs into ``workdir``; return its commands."""
    b = _Builder(workdir, seed)
    _BUILDERS[name](b, smoke)
    return b.cmds
