"""Command-line entry point.

One binary, subcommand style; every run writes a JSON report (schema 1)
that echoes the versioned defaults table, so results are reproducible
and diffable.  Exit codes: 0 verdict holds, 1 fails, 2 usage or parse
error, 3 numeric failure or any other error, 4 inconclusive.  Every
error is reported as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
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
from .errors import (
    InputFormatError,
    InvalidIndexError,
    NonFiniteError,
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
from .matcore import dumps_matrix, load_matrix, save_matrix
from .sampler import PermanentalSpec, sample_permanental, save_batch
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


def _parse_vectors(text: str, length: int, what: str) -> list:
    """Semicolon-separated comma lists of `length` numbers each."""
    out = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        vals = _parse_list(chunk)
        if len(vals) != length:
            raise InputFormatError(f"{what} {chunk!r} has {len(vals)} entries, needs {length}")
        out.append(vals)
    if not out:
        raise InputFormatError(f"no {what}s given")
    return out


def _parse_scalings(text: str, n: int, seed: int) -> list:
    if text.startswith("random:"):
        try:
            count = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise InputFormatError(f"scaling count in {text!r} is not an integer") from exc
        return random_scalings(n, count, seed)
    if text == "identity":
        return [np.ones(n)]
    return [np.array(v) for v in _parse_vectors(text, n, "scaling")]


def _exit_code(verdict: Verdict) -> int:
    if verdict.status in (Verdict.HOLDS, Verdict.HOLDS_UP_TO_DENSITY):
        return 0
    if verdict.status == Verdict.FAILS:
        return 1
    return 4


def _run(handler, command: str, args) -> int:
    """Runs a reporting handler, writes its report and returns the exit code.

    The handler returns (inputs, result, verdict or exit code, stdout text
    or None).  Its text goes to stdout; the report goes to --report, or
    else to stdout when the handler printed nothing.  A report number that
    is not finite, which JSON cannot hold, raises NonFiniteError first.
    """
    inputs, result, outcome, stdout = handler(args)
    try:
        text = json.dumps({"schema": defaults.SCHEMA_VERSION, "command": command,
                           "inputs": inputs, "result": result,
                           "defaults": defaults.defaults_table()},
                          sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteError(f"the {command} report holds a number that is not finite") from exc
    if stdout is not None:
        sys.stdout.write(stdout)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    elif stdout is None:
        sys.stdout.write(text + "\n")
    return outcome if isinstance(outcome, int) else _exit_code(outcome)


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
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--report", help="write the JSON report here, not to stdout")

    def reporting(subparsers, name, handler, summary):
        """A leaf whose report _run writes under its path, e.g. "green gen"."""
        s = subparsers.add_parser(name, help=summary, parents=[report])
        s.set_defaults(run=functools.partial(_run, handler, s.prog.partition(" ")[2]))
        return s

    s = reporting(sub, "check-id", _cmd_check_id, "infinite-divisibility verdict for a kernel")
    s.add_argument("--input", required=True, help="matrix CSV or JSON file")

    s = reporting(sub, "perm", _cmd_perm, "beta-permanent of a matrix")
    s.add_argument("--input", required=True)
    s.add_argument("--beta", type=finite_float, required=True)

    s = reporting(sub, "scan", _cmd_scan, "beta-positivity scan over resolvents")
    s.add_argument("--input", required=True)
    s.add_argument("--betas", help="scan beta grid, list or start:stop:step")
    s.add_argument("--alphas", help="scan alpha grid, list or start:stop:step")
    s.add_argument("--m-max", type=int, dest="m_max")

    g = sub.add_parser("green", help="Green-matrix operations")
    gsub = g.add_subparsers(dest="green_command", required=True)

    s = reporting(gsub, "gen", _cmd_green_gen, "potential matrix of a transient chain")
    s.add_argument("--chain", required=True, help="one-step kernel CSV or JSON")
    s.add_argument("--out", help="write the matrix CSV here instead of stdout")

    s = reporting(gsub, "check", _cmd_green_check, "recognize a Green matrix")
    s.add_argument("--input", required=True)

    s = reporting(gsub, "power", _cmd_green_power, "entrywise power with Green verdict")
    s.add_argument("--input", required=True)
    s.add_argument("--beta", type=finite_float, required=True)
    s.add_argument("--out")

    s = reporting(gsub, "plus-c", _cmd_green_plus_c, "ID verdicts for G + c*ones over a grid")
    s.add_argument("--input", required=True)
    s.add_argument("--grid", help="comma list of c; default: the library grid C_GRID")

    s = reporting(gsub, "restrict", _cmd_green_restrict,
                  "principal submatrix with Green verdict")
    s.add_argument("--input", required=True)
    s.add_argument("--keep", required=True, help="comma list of 0-based indices")
    s.add_argument("--out")

    s = reporting(sub, "sample", _cmd_sample, "draw a permanental sample batch")
    s.add_argument("--kernel", required=True)
    s.add_argument("--k", type=int, default=1, help="index beta = 2/k")
    s.add_argument("--n", type=finite_float, default=1000.0)
    s.add_argument("--seed", type=uint64, default=defaults.DEFAULT_SEED)
    s.add_argument("--out", required=True, help="binary batch file")

    s = reporting(sub, "check-assoc", _cmd_check_assoc, "Monte Carlo association test")
    s.add_argument("--kernel", required=True)
    s.add_argument("--k", type=int, default=1)
    s.add_argument("--n", type=finite_float, default=1e5)
    s.add_argument("--seed", type=uint64, default=defaults.DEFAULT_SEED)

    s = reporting(sub, "scan-monotone", _cmd_scan_monotone, "resolvent monotonicity scan")
    s.add_argument("--kernel", required=True)
    s.add_argument("--alphas")
    s.add_argument("--scalings", default="identity",
                   help='"identity", "random:COUNT", or semicolon-separated vectors')
    s.add_argument("--seed", type=uint64, default=defaults.DEFAULT_SEED)

    s = reporting(sub, "shifted-order", _cmd_shifted_order,
                  "strong stochastic ordering of shifted pairs")
    s.add_argument("--kernel", required=True)
    s.add_argument("--r-pairs", required=True, dest="r_pairs",
                   help='semicolon-separated r,r\' pairs, e.g. "1,0.5;2,1"')

    s = reporting(sub, "check-fkg", _cmd_check_fkg, "FKG lattice test for a 2x2 kernel")
    s.add_argument("--kernel", required=True)
    s.add_argument("--shift", type=finite_float, default=0.0)

    s = reporting(sub, "check-shifted-pair", _cmd_check_shifted_pair,
                  "shift-stable ID test for a Gaussian pair")
    s.add_argument("--vx", type=finite_float, required=True)
    s.add_argument("--c", type=finite_float, required=True)
    s.add_argument("--vy", type=finite_float, required=True)

    # render writes no report, so it runs its handler directly
    s = sub.add_parser("render", help="re-render a report JSON")
    s.add_argument("--input", required=True)
    s.add_argument("--format", choices=("json", "table"), default="json")
    s.set_defaults(run=_cmd_render)
    return p


# Reporting handlers return (inputs, result, verdict or exit code, stdout
# text or None); _run turns that into the report and the exit code.
def _cmd_check_id(args):
    iv = id_verdict(load_matrix(args.input))
    return {"input": args.input}, iv.to_dict(), iv.verdict, None


def _cmd_perm(args):
    value = beta_permanent(load_matrix(args.input).entries, args.beta)
    return {"input": args.input, "beta": args.beta}, {"value": value}, 0, f"{value:.17g}\n"


def _cmd_scan(args):
    G = load_matrix(args.input)
    betas = _parse_grid(args.betas) if args.betas else None
    alphas = _parse_grid(args.alphas) if args.alphas else None
    rep = beta_positivity_scan(G, betas=betas, alphas=alphas, m_max=args.m_max)
    inputs = {"input": args.input, "betas": betas, "alphas": alphas,
              "m_max": args.m_max}
    return inputs, rep.to_dict(), rep.verdict, None


def _green_kernel(inputs: dict, G, path):
    """The handler tail of the green commands that make a kernel: is_green
    on G, and G as CSV to path, or to stdout when path is not given."""
    verdict = is_green(G)
    if path:
        save_matrix(G, path)
    return (inputs, {"verdict": verdict.to_dict(), "kernel": G.to_dict()}, verdict,
            None if path else dumps_matrix(G))


def _cmd_green_gen(args):
    G = green_from_chain(TransientChain(load_matrix(args.chain).entries))
    return _green_kernel({"chain": args.chain}, G, args.out)


def _cmd_green_check(args):
    verdict = is_green(load_matrix(args.input))
    return {"input": args.input}, {"verdict": verdict.to_dict()}, verdict, None


def _cmd_green_power(args):
    G = hadamard_power(load_matrix(args.input), args.beta)
    return _green_kernel({"input": args.input, "beta": args.beta}, G, args.out)


def _cmd_green_plus_c(args):
    grid = _parse_list(args.grid) if args.grid is not None else None
    rep = plus_constant_check(load_matrix(args.input), grid)
    return {"input": args.input, "grid": args.grid}, rep.to_dict(), rep.verdict, None


def _cmd_green_restrict(args):
    try:
        keep = [int(v) for v in args.keep.split(",") if v.strip()]
    except ValueError as exc:
        raise InputFormatError(f"--keep {args.keep!r} is not a list of indices") from exc
    sub = restriction(load_matrix(args.input), keep)
    return _green_kernel({"input": args.input, "keep": keep}, sub, args.out)


def _permanental_spec(G, k: int) -> PermanentalSpec:
    """The spec with index beta = 2/k of the sample and check-assoc commands."""
    if k < 1:
        raise InvalidIndexError("k must be a positive integer")
    return PermanentalSpec(G, 2.0 / k)


# sample_permanental checks the draw count; inputs echo the count it used
def _cmd_sample(args):
    G = load_matrix(args.kernel)
    batch = sample_permanental(_permanental_spec(G, args.k), args.n, args.seed)
    save_batch(batch, args.out)
    result = {"n_draws": batch.n_draws, "dim": batch.dim, "seed": args.seed,
              "out": args.out, "ess": batch.ess}
    inputs = {"kernel": args.kernel, "k": args.k, "n": batch.n_draws, "seed": args.seed}
    return inputs, result, 0, None


def _cmd_check_assoc(args):
    G = load_matrix(args.kernel)
    rep = association_mc_test(_permanental_spec(G, args.k), n_draws=args.n, seed=args.seed)
    inputs = {"kernel": args.kernel, "k": args.k, "n": rep.n_draws, "seed": args.seed}
    return inputs, rep.to_dict(), rep.verdict, None


def _cmd_scan_monotone(args):
    G = load_matrix(args.kernel)
    alphas = _parse_grid(args.alphas) if args.alphas else None
    scalings = _parse_scalings(args.scalings, G.dim, args.seed)
    verdict = resolvent_monotonicity_scan(G, alphas=alphas, D_set=scalings)
    inputs = {"kernel": args.kernel, "alphas": alphas,
              "scalings": args.scalings, "seed": args.seed}
    return inputs, {"verdict": verdict.to_dict()}, verdict, None


def _cmd_shifted_order(args):
    G = load_matrix(args.kernel)
    rep = shifted_strong_order_test(G, _parse_vectors(args.r_pairs, 2, "r-pair"))
    return {"kernel": args.kernel, "r_pairs": args.r_pairs}, rep.to_dict(), rep.verdict, None


def _cmd_check_fkg(args):
    verdict = fkg_lattice_test(load_matrix(args.kernel), args.shift)
    return ({"kernel": args.kernel, "shift": args.shift},
            {"verdict": verdict.to_dict()}, verdict, None)


def _cmd_check_shifted_pair(args):
    verdict = shifted_pair_id_test(args.vx, args.c, args.vy)
    return ({"vx": args.vx, "c": args.c, "vy": args.vy},
            {"verdict": verdict.to_dict()}, verdict, None)


def _cmd_render(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InputFormatError(f"bad report JSON: {exc}") from exc
    sys.stdout.write(report_render(report, args.format))
    return 0


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
        return args.run(args)
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
