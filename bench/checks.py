"""Output checks, run after the timed section of each pass.

Each check takes a finished command and returns ``None`` when the output
is right, or a one-line reason when it is not.  ``run_checks`` applies the
exit-code check and the report check to every command, then the checks
the command names, and counts how often each check ran.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from oracle import MP_DIGITS, mp_scan_value, permutation_sum
from workloads import Cmd, full_scan_count


@dataclass
class Finished:
    """A command after it ran: its exit code, wall time and peak memory."""

    cmd: Cmd
    workdir: str
    rc: int
    wall_s: float
    rss_kb: int

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def stdout(self) -> str:
        with open(self.path(self.cmd.label + ".out"), encoding="utf-8") as fh:
            return fh.read()

    def report(self) -> dict:
        with open(self.path(self.cmd.report), encoding="utf-8") as fh:
            return json.load(fh)

    def arg(self, flag: str) -> str:
        argv = self.cmd.argv
        return argv[argv.index(flag) + 1]


def read_csv(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array([[float(c) for c in line.split(",")]
                         for line in fh if line.strip()])


def confirm_witness(g: np.ndarray, witness: dict, negativity_rel: float) -> str | None:
    """Recompute a positivity-scan witness in 50-digit arithmetic.

    The resolvent (I + alpha G)^-1 G at the witness alpha and the
    permutation-sum beta-permanent of its multiset submatrix must still
    fall below the scan's own threshold -negativity_rel * max|entry|^m.
    """
    value, scale = mp_scan_value(g, witness["alpha"], witness["beta"],
                                 witness["indices"])
    if value < -negativity_rel * scale:
        return None
    return (f"witness {witness} not confirmed: the {MP_DIGITS}-digit value is "
            f"{float(value):.6g}")


def check_exit_code(f: Finished):
    if f.rc != f.cmd.rc:
        return f"exit code {f.rc}, pinned {f.cmd.rc}"


def check_report(f: Finished):
    argv = f.cmd.argv[2:] if f.cmd.argv[0] == "--threads" else f.cmd.argv
    want = " ".join(argv[:2]) if argv[0] == "green" else argv[0]
    got = f.report().get("command")
    if got != want:
        return f"report names command {got!r}, not {want!r}"


def check_witness(f: Finished):
    rep = f.report()
    witness = rep["result"]["verdict"].get("witness") or {}
    if not {"alpha", "beta", "indices"} <= set(witness):
        return f"no positivity-scan witness in {witness}"
    g = read_csv(f.path(f.arg("--input")))
    return confirm_witness(g, witness, rep["defaults"]["negativity_rel"])


def check_scan_count(f: Finished):
    rep = f.report()
    d = rep["defaults"]
    want = full_scan_count(f.cmd.data["n"], d["m_max"], len(d["beta_grid"]),
                           len(d["alpha_grid"]))
    if rep["result"]["scanned"] != want:
        return f"scanned {rep['result']['scanned']} triples, a full scan is {want}"


def check_same_report(f: Finished):
    with open(f.path(f.cmd.report), "rb") as a, \
            open(f.path(f.cmd.data["same_as"]), "rb") as b:
        if a.read() != b.read():
            return f"report differs from {f.cmd.data['same_as']}"


def check_perm_value(f: Finished):
    got = float(f.stdout().split()[0])
    want = permutation_sum(f.cmd.data["matrix"], f.cmd.data["beta"])
    if abs(got - want) > 1e-9 * max(1.0, abs(want)):
        return f"perm printed {got!r}, the permutation sum is {want!r}"


def check_green_gen(f: Finished):
    got = read_csv(f.path(f.cmd.data["out"]))
    want = f.cmd.data["green"]
    if got.shape != want.shape or np.max(np.abs(got - want)) > 1e-9 * np.max(want):
        return "green gen output differs from (I - Q)^-1"


def check_batch(f: Finished):
    from permacheck.sampler import load_batch
    data = f.cmd.data
    batch = load_batch(f.path(data["out"]))
    g, k, n = data["kernel"], data["k"], data["n"]
    if (batch.n_draws, batch.dim, batch.seed) != (n, len(g), int(f.arg("--seed"))):
        return f"batch header {(batch.n_draws, batch.dim, batch.seed)} != arguments"
    if abs(batch.spec.index_beta - 2.0 / k) > 1e-12 or \
            np.max(np.abs(batch.spec.kernel.entries - g)) > 1e-12 * np.max(np.abs(g)):
        return "batch header kernel or index differs from the input"
    mean = batch.draws.mean(axis=0)
    se = batch.draws.std(axis=0) / np.sqrt(n)
    z = np.abs(mean - k * np.diag(g)) / se
    if np.max(z) > 5.0:
        return f"coordinate means off k*diag(G) by {np.max(z):.1f} standard errors"


def check_assoc(f: Finished):
    res = f.report()["result"]
    members = 3 + f.cmd.data["n"] + 3  # orthants, projections, max, min, soft orthant
    want = members * (members - 1) // 2
    if (res["n_draws"], res["seed"]) != (f.cmd.data["draws"], int(f.arg("--seed"))):
        return f"association report echoes n={res['n_draws']} seed={res['seed']}"
    if len(res["pairs"]) != want:
        return f"{len(res['pairs'])} covariance pairs, expected {want}"


def check_render(f: Finished):
    text = f.stdout()
    if "command: check-id" not in text or "verdict: fails" not in text:
        return "table rendering lacks the command or the verdict line"


CHECKS = {
    "exit_code": check_exit_code,
    "report": check_report,
    "witness": check_witness,
    "scan_count": check_scan_count,
    "same_report": check_same_report,
    "perm": check_perm_value,
    "green_gen": check_green_gen,
    "batch": check_batch,
    "assoc": check_assoc,
    "render": check_render,
}
# every check, including the one run.py applies to the rerun of the first command
ALL_CHECKS = tuple(CHECKS) + ("rerun_identical",)


def _has_scan_witness(f: Finished) -> bool:
    try:
        witness = f.report()["result"]["verdict"].get("witness") or {}
    except (OSError, ValueError, KeyError, TypeError):
        return False
    return {"alpha", "beta", "indices"} <= set(witness)


def run_checks(f: Finished, ran: dict) -> list:
    """Apply every check that concerns ``f``; return the failure reasons.

    Every positivity-scan witness, from ``scan`` or from the scan route
    of ``check-id``, is confirmed in high precision.
    """
    names = ["exit_code"] + (["report"] if f.cmd.report else []) + list(f.cmd.checks)
    if f.cmd.report and "witness" not in names and _has_scan_witness(f):
        names.append("witness")
    failures = []
    for name in names:
        ran[name] = ran.get(name, 0) + 1
        try:
            why = CHECKS[name](f)
        except Exception as exc:  # a crashed check is a failed output
            why = f"{type(exc).__name__}: {exc}"
        if why:
            failures.append(f"{f.cmd.label}: {name}: {why}")
    return failures
