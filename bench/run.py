"""permacheck benchmark: seeded CLI workloads, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the repository root.  Each workload is a fixed list of
``python -m permacheck.cli`` commands made from the seed.  One client
runs them in a closed loop, one after the other, each in a fresh
interpreter, so start-up is counted.  BLAS threads stay at their default.

With ``--trace 0`` the list is repeated until ``--seconds`` have passed
(at least once) and the end-to-end metrics are printed.  With ``--trace 1``
one untraced and one traced pass run, and the per-layer metrics are
printed.  Every command's output is checked after the timed section.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  ``--smoke`` runs every workload at tiny
sizes in both modes and asserts that every metric named in
BENCHMARK.json is emitted with its unit and that every check ran.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
PYCACHE = os.path.join(SRC, "permacheck", "__pycache__")
SETUPS = 3                # set-up repeats per run; setup_s is their median
CMD_TIMEOUT_S = 120.0     # a command still running after this is killed
PASS_BUDGET_S = 150.0     # no further untraced pass starts if it would end later
WARMUP = ["check-shifted-pair", "--vx", "1", "--c", "0.5", "--vy", "1"]


def child_env() -> dict:
    """The commands' environment: the checkout's src first, .pyc files on."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_command(argv, workdir, label, env):
    """Run one process; return (exit code, wall seconds, max RSS in KiB, killed).

    A ``None`` in argv is replaced by the perf_counter reading taken just
    before the process starts.
    """
    out_path = os.path.join(workdir, label + ".out")
    err_path = os.path.join(workdir, label + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        argv = [repr(t0) if a is None else a for a in argv]
        proc = subprocess.Popen(argv, cwd=workdir, stdout=out, stderr=err, env=env)
        killed = []
        timer = threading.Timer(CMD_TIMEOUT_S, lambda: (killed.append(1), proc.kill()))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)  # kill() is now a no-op
        except BaseException:  # interrupted or terminated: stop the child first
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    return proc.returncode, wall, usage.ru_maxrss, bool(killed)


class Workload:
    """One workload run: set-up, timed passes, output checks, metrics."""

    def __init__(self, name, seed, smoke):
        self.name, self.seed, self.smoke = name, seed, smoke
        self.env = child_env()
        self.base = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
        self.workdir = None
        self.cmds = []
        self.ran = {}           # check name -> times run
        self.failures = []      # one line per failed check
        self.failed = set()     # (pass index, command index) with a failed check
        self.attempted = 0
        self.killed = 0         # commands killed after CMD_TIMEOUT_S

    def setup(self, index) -> float:
        """Make the inputs from the seed and run one warm-up command, which
        compiles permacheck's .pyc files afresh."""
        shutil.rmtree(PYCACHE, ignore_errors=True)
        t0 = time.perf_counter()
        workdir = os.path.join(self.base, f"setup{index}")
        os.makedirs(workdir)
        self.cmds = workloads.build(self.name, self.seed, workdir, self.smoke)
        self.run([sys.executable, "-m", "permacheck.cli"] + WARMUP, workdir, "warmup")
        self.workdir = workdir
        return time.perf_counter() - t0

    def run_pass(self, index, traced=False):
        """Run the command list once; return (wall seconds, finished, records)."""
        records = []
        finished = []
        t0 = time.perf_counter()
        for cmd in self.cmds:
            if traced:
                spans = os.path.join(self.workdir, cmd.label + ".spans.json")
                argv = [sys.executable, "-X", "importtime",
                        os.path.join(BENCH, "traced_cli.py"), spans, None, "--"]
            else:
                argv = [sys.executable, "-m", "permacheck.cli"]
            rc, wall, rss = self.run(argv + cmd.argv, self.workdir, cmd.label)
            finished.append(checks.Finished(cmd, self.workdir, rc, wall, rss))
        total = time.perf_counter() - t0
        if traced:
            for f in finished:
                records.append(self._trace_record(f))
        self._check(index, finished)
        return total, finished, records

    def run(self, argv, workdir, label):
        """run_command, noting a command killed after CMD_TIMEOUT_S."""
        rc, wall, rss, killed = run_command(argv, workdir, label, self.env)
        if killed:
            self.killed += 1
            self.failures.append(f"{label}: killed after {CMD_TIMEOUT_S:g} s")
        return rc, wall, rss

    def _trace_record(self, f):
        with open(f.path(f.cmd.label + ".err"), encoding="utf-8") as fh:
            imports, _ = tracing.parse_importtime(fh.read())
        try:
            with open(f.path(f.cmd.label + ".spans.json"), encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            record = {"interp_s": 0.0, "import_s": 0.0, "spans": []}
        record["cmd"] = f.cmd.label
        record["imports"] = imports
        return record

    def _check(self, index, finished):
        self.attempted += len(finished)
        for i, f in enumerate(finished):
            bad = checks.run_checks(f, self.ran)
            if bad:
                self.failures += bad
                self.failed.add((index, i))
        self._remove_batches()

    def _remove_batches(self):
        """Sample batch files are large; they go once they are checked."""
        for path in glob.glob(os.path.join(self.workdir, "*.bin")):
            os.remove(path)

    def rerun_first(self, first_report) -> None:
        """The first command runs again and must write a byte-identical report."""
        cmd = self.cmds[0]
        if first_report is not None:  # the rerun must write the report afresh
            os.remove(os.path.join(self.workdir, cmd.report))
        self.run([sys.executable, "-m", "permacheck.cli"] + cmd.argv, self.workdir,
                 cmd.label + ".rerun")
        self.ran["rerun_identical"] = self.ran.get("rerun_identical", 0) + 1
        if first_report is None or self.first_report() != first_report:
            self.failures.append(f"{cmd.label}: rerun_identical: report missing or changed")
            self.failed.add((0, 0))
        self._remove_batches()

    def first_report(self):
        """Bytes of the first command's report, or None if it wrote none."""
        try:
            with open(os.path.join(self.workdir, self.cmds[0].report), "rb") as fh:
                return fh.read()
        except OSError:
            return None

    def cleanup(self):
        shutil.rmtree(self.base, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.base))
        except OSError:
            pass  # other runs still use it


def end_to_end(passes, setups) -> dict:
    """End-to-end metrics from the untraced passes, as {name: (value, unit)}."""
    finished = [f for _, fs, _ in passes for f in fs]
    scans = [f for f in finished if f.cmd.scan]
    triples = 0
    for f in scans:
        try:
            triples += f.report()["result"]["scanned"]
        except (OSError, ValueError, KeyError):
            pass  # a missing report is already a failed check
    sampled = [f for f in finished if f.cmd.draws]
    return {
        "workload_s": (statistics.median(total for total, _, _ in passes), "s"),
        "cmd_p50_s": (statistics.median(f.wall_s for f in finished), "s"),
        "scan_triples_per_s": (triples / sum(f.wall_s for f in scans), "1/s"),
        "draws_per_s": (sum(f.cmd.draws for f in sampled)
                        / sum(f.wall_s for f in sampled), "1/s"),
        "peak_rss_mb": (max(f.rss_kb for f in finished) / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def run_workload(name, seed, seconds, trace, smoke=False):
    """Run one workload; return (metrics, workload, lines for stdout)."""
    start = time.monotonic()
    w = Workload(name, seed, smoke)
    lines = []
    try:
        setups = [w.setup(i) for i in range(1 if trace else SETUPS)]
        passes = [w.run_pass(0)]
        first = w.first_report()
        while not trace and not w.killed \
                and sum(total for total, _, _ in passes) < seconds \
                and time.monotonic() - start + passes[-1][0] < PASS_BUDGET_S:
            passes.append(w.run_pass(len(passes)))
        metrics = end_to_end(passes, setups)
        if trace:
            traced = w.run_pass(len(passes), traced=True)
            layer = tracing.layer_metrics(traced[2])
            layer["trace.overhead_frac"] = (traced[0] / passes[0][0] - 1.0, "frac")
            metrics = {**metrics, **layer} if smoke else layer
        w.rerun_first(first)
        n_cmds = sum(len(fs) for _, fs, _ in passes)
        lines.append(f"workload {name} seed {seed} passes {len(passes)} "
                     f"commands {n_cmds} (cmd_p50_s is the median of {n_cmds} samples)")
    finally:
        w.cleanup()
    failed_frac = len(w.failed) / max(w.attempted, 1)
    lines.append(f"metric failed_frac {failed_frac:.6g} frac "
                 f"({len(w.failed)} of {w.attempted} commands failed a check)")
    lines += [f"metric {k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append("checks " + " ".join(f"{k}={v}" for k, v in sorted(w.ran.items())))
    lines += [f"FAILED {why}" for why in w.failures]
    return metrics, w, lines


def environment() -> dict:
    """Machine, interpreter, library and BLAS facts recorded with every result."""
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return "unknown (no git)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def smoke() -> int:
    """Tiny sizes, both modes: every metric emitted with its unit, every check run."""
    spec = load_spec()
    wanted = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    ran, problems = {}, []
    for name in workloads.NAMES:
        metrics, w, lines = run_workload(name, 1, 0, trace=True, smoke=True)
        print("\n".join(lines))
        for check, count in w.ran.items():
            ran[check] = ran.get(check, 0) + count
        problems += [f"{name}: {why}" for why in w.failures]
        for metric, unit in wanted.items():
            if metric not in metrics:
                problems.append(f"{name}: metric {metric} not emitted")
            elif metrics[metric][1] != unit:
                problems.append(f"{name}: {metric} has unit {metrics[metric][1]}, "
                                f"BENCHMARK.json says {unit}")
    problems += [f"check {c} never ran" for c in checks.ALL_CHECKS if not ran.get(c)]
    print("smoke", "ok" if not problems else "FAILED")
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


def main() -> int:
    # a terminated run still removes its work directory and stops its command
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "permacheck", "cli.py")):
        sys.stderr.write(f"no permacheck sources under {SRC}; run from a checkout\n")
        return 2
    sys.path.insert(0, SRC)  # the output checks read sample batches with load_batch
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required unless --smoke is given")
    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics, w, lines = run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    print("env " + json.dumps(environment(), sort_keys=True))
    print("\n".join(lines))
    result = {
        "correct": not w.failures,  # a killed warm-up or rerun also counts
        "attempted": w.attempted,
        "failed": len(w.failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
