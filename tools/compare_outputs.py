"""Compare every output of the benchmark workloads between two source trees.

    python3 tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT --seed N [--full]

Builds each workload's command list with ``bench/workloads.build`` (the
``bench/`` next to this script), in one work directory per tree.  Every
command runs once as ``python -m permacheck.cli`` with that tree's
``src`` first on PYTHONPATH, stdout and stderr captured to
``LABEL.out`` and ``LABEL.err`` as the benchmark does.  Then it lists
every exit code and every file that differs: reports, captures, written
matrices and sample batches.  A differing JSON file is listed by key
path, e.g. ``green-plus-c.json: inputs.grid: "0.5,1.0,2.0" -> null``.

Workloads run at the benchmark's smoke sizes unless ``--full`` is given.
Work directories go under the system temporary directory (``TMPDIR``)
and are removed at the end; sample batches are compared and deleted
after each command, so the disk holds at most one command's batches.
Exit status: 0 when everything is identical, 1 on any difference.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402  (bench/ is not a package)


def run_command(cmd, tree: str, workdir: str) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(tree, "src"), env.get("PYTHONPATH")) if p)
    with open(os.path.join(workdir, cmd.label + ".out"), "wb") as out, \
            open(os.path.join(workdir, cmd.label + ".err"), "wb") as err:
        return subprocess.run([sys.executable, "-m", "permacheck.cli"] + cmd.argv,
                              cwd=workdir, stdout=out, stderr=err, env=env).returncode


def _show(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= 80 else text[:77] + "..."


def json_paths(a, b, path: str = "") -> list:
    """One line per key path where the JSON values a and b differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        lines = []
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in a or key not in b:
                side = "parent" if key in a else "change"
                lines.append(f"{sub}: only in the {side}")
            else:
                lines += json_paths(a[key], b[key], sub)
        return lines
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [line for i, (x, y) in enumerate(zip(a, b))
                for line in json_paths(x, y, f"{path}[{i}]")]
    if a == b or (a != a and b != b):  # NaN equals NaN here
        return []
    return [f"{path or '(top)'}: {_show(a)} -> {_show(b)}"]


def file_differences(name: str, a: bytes, b: bytes) -> list:
    if a == b:
        return []
    if name.endswith(".json"):
        try:
            return [f"{name}: {line}" for line in json_paths(json.loads(a), json.loads(b))]
        except ValueError:
            pass
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for i, (x, y) in enumerate(zip(lines_a, lines_b)):
        if x != y:
            return [f"{name}: differs at line {i + 1}"]
    return [f"{name}: {len(lines_a)} lines -> {len(lines_b)} lines"]


def compare_dirs(dirs, pattern: str = "*") -> list:
    """Differences between the files matching pattern in the two dirs."""
    contents = []
    for d in dirs:
        files = {}
        for path in glob.glob(os.path.join(d, pattern)):
            with open(path, "rb") as fh:
                files[os.path.basename(path)] = fh.read()
        contents.append(files)
    lines = []
    for name in sorted(set(contents[0]) | set(contents[1])):
        if name not in contents[0] or name not in contents[1]:
            side = "parent" if name in contents[0] else "change"
            lines.append(f"{name}: only in the {side}")
        else:
            lines += file_differences(name, contents[0][name], contents[1][name])
    return lines


def compare_workload(name: str, seed: int, smoke: bool, trees, tmp: str) -> tuple:
    """Run one workload in both trees; return (command count, differences)."""
    dirs = [os.path.join(tmp, name, side) for side in ("parent", "change")]
    for d in dirs:
        os.makedirs(d)
        cmds = workloads.build(name, seed, d, smoke)
    lines = []
    for cmd in cmds:
        codes = [run_command(cmd, tree, d) for tree, d in zip(trees, dirs)]
        if codes[0] != codes[1]:
            lines.append(f"{cmd.label}: exit code {codes[0]} -> {codes[1]}")
        lines += compare_dirs(dirs, "*.bin")
        for path in glob.glob(os.path.join(tmp, name, "*", "*.bin")):
            os.remove(path)
    return len(cmds), lines + compare_dirs(dirs)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", metavar="PARENT_ROOT", help="checkout whose src/ is the reference")
    p.add_argument("change", metavar="CHANGE_ROOT", help="checkout whose src/ is compared")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--full", action="store_true", help="full workload sizes, not smoke sizes")
    args = p.parse_args()
    trees = [os.path.abspath(t) for t in (args.parent, args.change)]
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "src", "permacheck", "cli.py")):
            p.error(f"no src/permacheck/cli.py under {tree}")
    size = "full" if args.full else "smoke"
    different = False
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        for name in workloads.NAMES:
            count, lines = compare_workload(name, args.seed, not args.full, trees, tmp)
            print(f"{name} seed {args.seed} ({size}): {count} commands, "
                  f"{len(lines)} difference(s)", flush=True)
            for line in lines:
                print("  " + line)
            different = different or bool(lines)
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
