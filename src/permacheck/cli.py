"""Command-line entry point.

One binary, subcommand style; every run writes a JSON report (schema 1)
that echoes the versioned defaults table, so results are reproducible
and diffable.  Exit codes: 0 verdict holds, 1 fails, 2 usage or parse
error, 3 numeric failure or any other error, 4 inconclusive.  Every
error is reported as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys

import numpy as np

from . import defaults
from .assoc import (
    association_mc_test,
    fkg_lattice_test,
    random_scalings,
    resolvent_monotonicity_scan,
    shifted_strong_order_test,
)
from .betaperm import beta_permanent, beta_positivity_scan
from .densities import pair_grid, squared_pair_density
from .errors import (
    InputFormatError,
    InvalidIndexError,
    PermacheckError,
    SchemaMismatchError,
)
from .green import (
    TransientChain,
    green_from_chain,
    hadamard_power,
    is_green,
    plus_constant_check,
    restriction,
)
from .idcheck import id_verdict, shifted_pair_id_test
from .matcore import dumps_matrix, load_matrix
from .sampler import PermanentalSpec, _draw_count, sample_permanental, save_batch
from .verdict import Verdict

__all__ = ["main", "parse_and_dispatch", "report_render"]

_USAGE_ERRORS = (InputFormatError, InvalidIndexError, SchemaMismatchError)


class UsageError(InputFormatError):
    """Bad command line: unknown command, missing or malformed option."""


class _ArgumentParser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print usage and exit, so a
    bad command line leaves only the JSON error object on stderr."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# argparse types; argparse names the function in its message on a
# ValueError, e.g. "invalid finite_float value: 'nan'"
def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def uint64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise ValueError(text)
    return value


def _number(token: str, text: str) -> float:
    try:
        return finite_float(token)
    except ValueError as exc:
        raise InputFormatError(f"{token.strip()!r} in {text!r} is not a finite number") from exc


def _parse_list(text: str) -> list:
    vals = [_number(t, text) for t in text.split(",") if t.strip()]
    if not vals:
        raise InputFormatError(f"empty numeric list {text!r}")
    return vals


def _parse_grid(text: str) -> list:
    """Either "start:stop:step" (inclusive) or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InputFormatError(f"grid {text!r} is not start:stop:step")
        start, stop, step = (_number(p, text) for p in parts)
        if step <= 0 or stop < start:
            raise InputFormatError(f"bad grid bounds in {text!r}")
        return [float(v) for v in np.arange(start, stop + step / 2, step)]
    return _parse_list(text)


def _parse_r_pairs(text: str) -> list:
    pairs = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        vals = _parse_list(chunk)
        if len(vals) != 2:
            raise InputFormatError(f"r-pair {chunk!r} is not r,r'")
        pairs.append((vals[0], vals[1]))
    if not pairs:
        raise InputFormatError("no r-pairs given")
    return pairs


def _parse_scalings(text: str, n: int, seed: int) -> list:
    if text.startswith("random:"):
        try:
            count = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise InputFormatError(f"scaling count in {text!r} is not an integer") from exc
        return random_scalings(n, count, seed)
    if text == "identity":
        return [np.ones(n)]
    out = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        vals = _parse_list(chunk)
        if len(vals) != n:
            raise InputFormatError(
                f"scaling {chunk!r} has {len(vals)} entries, kernel needs {n}")
        out.append(np.array(vals))
    if not out:
        raise InputFormatError("no scalings given")
    return out


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("PERMACHECK_SEED")
    if env is not None:
        try:
            return uint64(env)
        except ValueError as exc:
            raise InputFormatError(
                f"PERMACHECK_SEED must be an integer in 0..2^64-1: {env!r}") from exc
    return defaults.DEFAULT_SEED


def _exit_code(verdict: Verdict) -> int:
    if verdict.status in (Verdict.HOLDS, Verdict.HOLDS_UP_TO_DENSITY):
        return 0
    if verdict.status == Verdict.FAILS:
        return 1
    return 4


def _report(command: str, inputs: dict, result: dict) -> dict:
    return {
        "schema": defaults.SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "result": result,
        "defaults": defaults.defaults_table(),
    }


def _emit(report: dict, args, extra_stdout: str = None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2)
    path = getattr(args, "report", None)
    if extra_stdout is not None:
        sys.stdout.write(extra_stdout)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    elif extra_stdout is None:
        sys.stdout.write(text + "\n")


def _emit_with_matrix(report: dict, args, G) -> None:
    """Writes G as CSV to --out, or else to stdout, then emits the report."""
    csv_text = dumps_matrix(G)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    _emit(report, args, extra_stdout=None if args.out else csv_text)


def report_render(report: dict, fmt: str = "json") -> str:
    """Stable rendering of a schema-1 report; table mode is lossy."""
    if not isinstance(report, dict):
        raise InputFormatError("a report must be a JSON object")
    if report.get("schema") != defaults.SCHEMA_VERSION:
        raise SchemaMismatchError(
            f"report schema {report.get('schema')!r} is not {defaults.SCHEMA_VERSION}")
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt != "table":
        raise InputFormatError(f"unknown render format {fmt!r}")
    out = io.StringIO()
    out.write(f"command: {report.get('command', '?')}\n")
    result = report.get("result", {})
    verdict = result.get("verdict")
    if isinstance(verdict, dict):
        out.write(f"verdict: {verdict.get('status')}\n")
        if verdict.get("detail"):
            out.write(f"detail:  {verdict['detail']}\n")
        witness = verdict.get("witness")
        if witness:
            cells = "  ".join(f"{k}={witness[k]}" for k in sorted(witness))
            out.write(f"witness: {cells}\n")
    pairs = result.get("pairs")
    if isinstance(pairs, list):
        out.write("f\th\tcov\tse\tz\n")
        for row in pairs:
            out.write(f"{row['f']}\t{row['h']}\t{row['cov']:.6g}"
                      f"\t{row['se']:.6g}\t{row['z']:.3f}\n")
    for key in sorted(result):
        if key in ("verdict", "pairs") or isinstance(result[key], (dict, list)):
            continue
        out.write(f"{key}: {result[key]}\n")
    return out.getvalue()


def _build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="permacheck",
        description="Infinite-divisibility and positive-correlation checks "
                    "for squared Gaussian and permanental vectors.")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored: every command runs on one thread")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check-id", help="infinite-divisibility verdict for a kernel")
    s.add_argument("--input", required=True, help="matrix CSV or JSON file")
    s.add_argument("--betas", help="scan beta grid, list or start:stop:step")
    s.add_argument("--alphas", help="scan alpha grid, list or start:stop:step")
    s.add_argument("--m-max", type=int, dest="m_max")
    s.add_argument("--report")

    s = sub.add_parser("perm", help="beta-permanent of a matrix")
    s.add_argument("--input", required=True)
    s.add_argument("--beta", type=finite_float, required=True)
    s.add_argument("--report")

    s = sub.add_parser("scan", help="beta-positivity scan over resolvents")
    s.add_argument("--input", required=True)
    s.add_argument("--betas")
    s.add_argument("--alphas")
    s.add_argument("--m-max", type=int, dest="m_max")
    s.add_argument("--report")

    g = sub.add_parser("green", help="Green-matrix operations")
    gsub = g.add_subparsers(dest="green_command", required=True)

    s = gsub.add_parser("gen", help="potential matrix of a transient chain")
    s.add_argument("--chain", required=True, help="one-step kernel CSV or JSON")
    s.add_argument("--out", help="write the matrix CSV here instead of stdout")
    s.add_argument("--report")

    s = gsub.add_parser("check", help="recognize a Green matrix")
    s.add_argument("--input", required=True)
    s.add_argument("--report")

    s = gsub.add_parser("power", help="entrywise power with Green verdict")
    s.add_argument("--input", required=True)
    s.add_argument("--beta", type=finite_float, required=True)
    s.add_argument("--out")
    s.add_argument("--report")

    s = gsub.add_parser("plus-c", help="ID verdicts for G + c*ones over a grid")
    s.add_argument("--input", required=True)
    s.add_argument("--grid", default=",".join(str(c) for c in defaults.C_GRID))
    s.add_argument("--report")

    s = gsub.add_parser("restrict", help="principal submatrix with Green verdict")
    s.add_argument("--input", required=True)
    s.add_argument("--keep", required=True, help="comma list of 0-based indices")
    s.add_argument("--out")
    s.add_argument("--report")

    s = sub.add_parser("sample", help="draw a permanental sample batch")
    s.add_argument("--kernel", required=True)
    s.add_argument("--k", type=int, default=1, help="index beta = 2/k")
    s.add_argument("--n", type=finite_float, default=1000.0)
    s.add_argument("--seed", type=uint64)
    s.add_argument("--out", required=True, help="binary batch file")
    s.add_argument("--report")

    s = sub.add_parser("check-assoc", help="Monte Carlo association test")
    s.add_argument("--kernel", required=True)
    s.add_argument("--k", type=int, default=1)
    s.add_argument("--n", type=finite_float, default=1e5)
    s.add_argument("--seed", type=uint64)
    s.add_argument("--report")

    s = sub.add_parser("scan-monotone", help="resolvent monotonicity scan")
    s.add_argument("--kernel", required=True)
    s.add_argument("--alphas")
    s.add_argument("--scalings", default="identity",
                   help='"identity", "random:COUNT", or semicolon-separated vectors')
    s.add_argument("--seed", type=uint64)
    s.add_argument("--report")

    s = sub.add_parser("shifted-order", help="strong stochastic ordering of shifted pairs")
    s.add_argument("--kernel", required=True)
    s.add_argument("--r-pairs", required=True, dest="r_pairs",
                   help='semicolon-separated r,r\' pairs, e.g. "1,0.5;2,1"')
    s.add_argument("--report")

    s = sub.add_parser("check-fkg", help="FKG lattice test for a 2x2 kernel")
    s.add_argument("--kernel", required=True)
    s.add_argument("--shift", type=finite_float, default=0.0)
    s.add_argument("--report")

    s = sub.add_parser("check-shifted-pair",
                       help="shift-stable ID test for a Gaussian pair")
    s.add_argument("--vx", type=finite_float, required=True)
    s.add_argument("--c", type=finite_float, required=True)
    s.add_argument("--vy", type=finite_float, required=True)
    s.add_argument("--report")

    s = sub.add_parser("render", help="re-render a report JSON")
    s.add_argument("--input", required=True)
    s.add_argument("--format", choices=("json", "table"), default="json")
    return p


def _cmd_check_id(args) -> int:
    G = load_matrix(args.input)
    betas = _parse_grid(args.betas) if args.betas else None
    alphas = _parse_grid(args.alphas) if args.alphas else None
    iv = id_verdict(G, betas=betas, alphas=alphas, m_max=args.m_max)
    inputs = {"input": args.input, "m_max": args.m_max,
              "betas": betas, "alphas": alphas}
    _emit(_report("check-id", inputs, iv.to_dict()), args)
    return _exit_code(iv.verdict)


def _cmd_perm(args) -> int:
    G = load_matrix(args.input)
    value = beta_permanent(G.entries, args.beta)
    inputs = {"input": args.input, "beta": args.beta}
    _emit(_report("perm", inputs, {"value": value}), args,
          extra_stdout=f"{value:.17g}\n")
    return 0


def _cmd_scan(args) -> int:
    G = load_matrix(args.input)
    betas = _parse_grid(args.betas) if args.betas else None
    alphas = _parse_grid(args.alphas) if args.alphas else None
    rep = beta_positivity_scan(G, betas=betas, alphas=alphas, m_max=args.m_max)
    inputs = {"input": args.input, "betas": betas, "alphas": alphas,
              "m_max": args.m_max}
    _emit(_report("scan", inputs, rep.to_dict()), args)
    return _exit_code(rep.verdict)


def _cmd_green(args) -> int:
    if args.green_command == "gen":
        chain = TransientChain(load_matrix(args.chain).entries)
        G = green_from_chain(chain)
        verdict = is_green(G)
        result = {"verdict": verdict.to_dict(), "kernel": G.to_dict()}
        _emit_with_matrix(_report("green gen", {"chain": args.chain}, result), args, G)
        return _exit_code(verdict)
    if args.green_command == "check":
        verdict = is_green(load_matrix(args.input))
        _emit(_report("green check", {"input": args.input},
                      {"verdict": verdict.to_dict()}), args)
        return _exit_code(verdict)
    if args.green_command == "power":
        rep = hadamard_power(load_matrix(args.input), args.beta)
        _emit_with_matrix(_report("green power", {"input": args.input, "beta": args.beta},
                                  rep.to_dict()), args, rep.kernel)
        return _exit_code(rep.verdict)
    if args.green_command == "plus-c":
        rep = plus_constant_check(load_matrix(args.input), _parse_list(args.grid))
        _emit(_report("green plus-c", {"input": args.input, "grid": args.grid},
                      rep.to_dict()), args)
        return _exit_code(rep.verdict)
    if args.green_command == "restrict":
        try:
            keep = [int(v) for v in args.keep.split(",") if v.strip()]
        except ValueError as exc:
            raise InputFormatError(f"--keep {args.keep!r} is not a list of indices") from exc
        sub = restriction(load_matrix(args.input), keep)
        verdict = is_green(sub)
        result = {"verdict": verdict.to_dict(), "kernel": sub.to_dict()}
        _emit_with_matrix(_report("green restrict", {"input": args.input, "keep": keep},
                                  result), args, sub)
        return _exit_code(verdict)
    raise InputFormatError(f"unknown green subcommand {args.green_command!r}")


def _permanental_spec(G, k: int) -> PermanentalSpec:
    """The spec with index beta = 2/k of the sample and check-assoc commands."""
    if k < 1:
        raise InvalidIndexError("k must be a positive integer")
    return PermanentalSpec(G, 2.0 / k)


def _cmd_sample(args) -> int:
    G = load_matrix(args.kernel)
    seed = _resolve_seed(args)
    n = _draw_count(args.n)
    batch = sample_permanental(_permanental_spec(G, args.k), n, seed)
    save_batch(batch, args.out)
    result = {"n_draws": batch.n_draws, "dim": batch.dim, "seed": seed,
              "out": args.out, "ess": batch.ess}
    _emit(_report("sample", {"kernel": args.kernel, "k": args.k, "n": n,
                             "seed": seed}, result), args)
    return 0


def _cmd_check_assoc(args) -> int:
    G = load_matrix(args.kernel)
    seed = _resolve_seed(args)
    n = _draw_count(args.n)
    rep = association_mc_test(_permanental_spec(G, args.k), n_draws=n, seed=seed)
    _emit(_report("check-assoc", {"kernel": args.kernel, "k": args.k,
                                  "n": n, "seed": seed},
                  rep.to_dict()), args)
    return _exit_code(rep.verdict)


def _cmd_scan_monotone(args) -> int:
    G = load_matrix(args.kernel)
    seed = _resolve_seed(args)
    alphas = _parse_grid(args.alphas) if args.alphas else None
    scalings = _parse_scalings(args.scalings, G.dim, seed)
    verdict = resolvent_monotonicity_scan(G, alphas=alphas, D_set=scalings)
    inputs = {"kernel": args.kernel, "alphas": alphas,
              "scalings": args.scalings, "seed": seed}
    _emit(_report("scan-monotone", inputs, {"verdict": verdict.to_dict()}), args)
    return _exit_code(verdict)


def _cmd_shifted_order(args) -> int:
    G = load_matrix(args.kernel)
    rep = shifted_strong_order_test(G, _parse_r_pairs(args.r_pairs))
    _emit(_report("shifted-order", {"kernel": args.kernel,
                                    "r_pairs": args.r_pairs}, rep.to_dict()), args)
    return _exit_code(rep.verdict)


def _cmd_check_fkg(args) -> int:
    G = load_matrix(args.kernel)
    density = squared_pair_density(G, args.shift)
    grid = pair_grid(G, args.shift)
    verdict = fkg_lattice_test(density, grid)
    _emit(_report("check-fkg", {"kernel": args.kernel, "shift": args.shift},
                  {"verdict": verdict.to_dict()}), args)
    return _exit_code(verdict)


def _cmd_check_shifted_pair(args) -> int:
    verdict = shifted_pair_id_test(args.vx, args.c, args.vy)
    _emit(_report("check-shifted-pair",
                  {"vx": args.vx, "c": args.c, "vy": args.vy},
                  {"verdict": verdict.to_dict()}), args)
    return _exit_code(verdict)


def _cmd_render(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InputFormatError(f"bad report JSON: {exc}") from exc
    sys.stdout.write(report_render(report, args.format))
    return 0


_HANDLERS = {
    "check-id": _cmd_check_id,
    "perm": _cmd_perm,
    "scan": _cmd_scan,
    "green": _cmd_green,
    "sample": _cmd_sample,
    "check-assoc": _cmd_check_assoc,
    "scan-monotone": _cmd_scan_monotone,
    "shifted-order": _cmd_shifted_order,
    "check-fkg": _cmd_check_fkg,
    "check-shifted-pair": _cmd_check_shifted_pair,
    "render": _cmd_render,
}


def _error_object(exc: Exception) -> dict:
    obj = {"error": type(exc).__name__, "message": str(exc)}
    for attr in ("cond_estimate", "min_eigenvalue", "spectral_radius"):
        if getattr(exc, attr, None) is not None:
            obj[attr] = getattr(exc, attr)
    return obj


def _fail(error: dict, code: int) -> int:
    sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
    return code


def parse_and_dispatch(argv) -> int:
    """Run one command and return its exit code.

    Exit code 1 only ever means "the property fails": an exception that
    is not a usage or input error, including a defect in this package,
    exits 3 with its type and message as the JSON error object.
    """
    try:
        args = _build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except SystemExit as exc:  # --help; argparse errors raise UsageError
        return exc.code if isinstance(exc.code, int) else 0
    except _USAGE_ERRORS as exc:
        return _fail(_error_object(exc), 2)
    except PermacheckError as exc:
        return _fail(_error_object(exc), 3)
    except OSError as exc:
        return _fail({"error": type(exc).__name__, "message": str(exc)}, 2)
    except Exception as exc:
        return _fail({"error": type(exc).__name__, "message": str(exc)}, 3)


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
