import argparse
import ast
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import permacheck
from permacheck import (
    TransientChain,
    green_from_chain,
    load_batch,
    load_matrix,
    resolvent_monotonicity_scan,
    save_batch,
    save_matrix,
    kernel,
)
from permacheck.cli import _build_parser, parse_and_dispatch, report_render

TRI3 = [[1.0, 0.6, 0.0], [0.6, 1.0, 0.6], [0.0, 0.6, 1.0]]
MIX3 = [[1.0, -0.31, 0.58], [-0.31, 1.0, 0.58], [0.58, 0.58, 1.0]]
PSD_SINGULAR3 = [[2.0, 1.0, 1.0], [1.0, 2.0, -1.0], [1.0, -1.0, 2.0]]
NONSYM3 = [[2.0, 0.5, 0.2], [0.3, 2.0, 0.4], [0.1, 0.6, 2.0]]
# nonsymmetric, with no inverse certificate: the battery fails it
NONSYM3_OPEN = [[2.0, 1.0, 1.0], [0.1, 2.0, 1.0], [1.0, 0.1, 2.0]]


@pytest.fixture
def matrices(tmp_path):
    paths = {}

    def add(name, entries, symmetric=None):
        p = tmp_path / f"{name}.csv"
        save_matrix(kernel(entries) if symmetric is None
                    else kernel(entries, symmetric=symmetric), p)
        paths[name] = str(p)

    add("id2", np.eye(2))
    add("tri", TRI3)
    add("g2", [[1.0, 0.5], [0.5, 1.0]])
    add("green2", [[4 / 3, 2 / 3], [2 / 3, 4 / 3]])
    add("neg2", [[1.0, -0.5], [-0.5, 1.0]])
    add("big", np.eye(9))
    add("perm2", [[1.0, 2.0], [3.0, 4.0]])
    add("chain2", [[0.0, 0.5], [0.5, 0.0]])
    add("negdiag2", [[-1.0, 0.0], [0.0, -1.0]])
    add("indefinite2", [[1.0, 2.0], [2.0, 1.0]])
    add("indefinite2_tiny", 1e-12 * np.array([[1.0, 2.0], [2.0, 1.0]]))
    add("huge2", [[1e100, 5e99], [5e99, 1e100]])
    add("mix3", MIX3)
    add("mix3_huge", np.ldexp(MIX3, 332))

    # nonsymmetric Green kernel plus a constant: every necessary test
    # passes but no sufficient certificate exists
    q = np.zeros((4, 4))
    q[0, 1] = q[1, 2] = q[2, 0] = 0.3
    q[0, 3] = q[1, 3] = 0.6
    g = green_from_chain(TransientChain(q))
    add("open4", g.entries + 0.5, symmetric=False)
    paths["dir"] = str(tmp_path)
    return paths


def run_cli(argv, capsys):
    code = parse_and_dispatch([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_holds_is_zero(self, matrices, capsys):
        code, out, _ = run_cli(["check-id", "--input", matrices["id2"]], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["result"]["verdict"]["status"] == "holds"
        assert rep["result"]["method"] == "bapat-exact"

    def test_fails_is_one(self, matrices, capsys):
        code, out, _ = run_cli(["check-id", "--input", matrices["tri"]], capsys)
        assert code == 1
        rep = json.loads(out)
        assert rep["result"]["verdict"]["status"] == "fails"
        assert rep["result"]["method"] == "bapat-exact"

    def test_inconclusive_is_four(self, matrices, capsys):
        code, out, _ = run_cli(["check-id", "--input", matrices["open4"]],
                               capsys)
        assert code == 4
        rep = json.loads(out)
        assert rep["result"]["verdict"]["status"] == "inconclusive"
        assert rep["result"]["method"] == "battery-necessary"

    def test_usage_error_is_two(self, matrices, capsys, tmp_path):
        code, _, err = run_cli(
            ["check-id", "--input", str(tmp_path / "missing.csv")], capsys)
        assert code == 2
        assert json.loads(err)["error"]

        bad = tmp_path / "ragged.csv"
        bad.write_text("1.0,2.0\n3.0\n")
        code, _, err = run_cli(["check-id", "--input", str(bad)], capsys)
        assert code == 2

    def test_unknown_command_is_two(self, capsys):
        code, _, err = run_cli(["no-such-command"], capsys)
        assert code == 2
        assert "UsageError" in err

    def test_computational_error_is_three(self, matrices, capsys):
        code, _, err = run_cli(
            ["perm", "--input", matrices["big"], "--beta", "1"], capsys)
        assert code == 3
        assert "error" in json.loads(err)


def _one_json_error(err: str) -> dict:
    lines = err.splitlines()
    assert len(lines) == 1, err
    obj = json.loads(lines[0])
    assert isinstance(obj, dict) and {"error", "message"} <= set(obj), obj
    return obj


# (argv with {name} placeholders for fixture files, expected exit code)
BAD_INPUTS = {
    # an ID verdict has no index, so check-id has no --beta option
    "check-id beta nan": (["check-id", "--input", "{g2}", "--beta", "nan"], 2),
    "perm beta nan": (["perm", "--input", "{perm2}", "--beta", "nan"], 2),
    "perm beta inf": (["perm", "--input", "{perm2}", "--beta", "inf"], 2),
    "sample n nan": (["sample", "--kernel", "{g2}", "--n", "nan",
                      "--out", "{dir}/x.bin"], 2),
    "sample n 2.5": (["sample", "--kernel", "{g2}", "--n", "2.5", "--out", "{dir}/x.bin"], 2),
    "check-assoc n 12.7": (["check-assoc", "--kernel", "{g2}", "--n", "12.7"], 2),
    "sample seed -1": (["sample", "--kernel", "{g2}", "--n", "10", "--seed", "-1",
                        "--out", "{dir}/x.bin"], 2),
    "sample seed 2^64": (["sample", "--kernel", "{g2}", "--n", "10",
                          "--seed", str(2 ** 64), "--out", "{dir}/x.bin"], 2),
    "check-assoc seed 1.5": (["check-assoc", "--kernel", "{g2}", "--n", "100",
                              "--seed", "1.5"], 2),
    "scan-monotone random:x": (["scan-monotone", "--kernel", "{g2}",
                                "--scalings", "random:x"], 2),
    "scan alphas 0:x:1": (["scan", "--input", "{g2}", "--alphas", "0:x:1"], 2),
    "scan alphas 1:2": (["scan", "--input", "{g2}", "--alphas", "1:2"], 2),
    "scan alphas 2:1:1": (["scan", "--input", "{g2}", "--alphas", "2:1:1"], 2),
    "check-shifted-pair vx 0": (["check-shifted-pair", "--vx", "0", "--c", "0",
                                 "--vy", "1"], 2),
    "scan betas nan": (["scan", "--input", "{g2}", "--betas", "0.5,nan"], 2),
    "check-fkg shift inf": (["check-fkg", "--kernel", "{g2}", "--shift", "inf"], 2),
    "restrict keep a": (["green", "restrict", "--input", "{tri}", "--keep", "0,a"], 2),
    "render JSON list": (["render", "--input", "{list_report}"], 2),
    "matrix entry a": (["check-id", "--input", "{text_entry}"], 2),
    "matrix dim x": (["check-id", "--input", "{text_dim}"], 2),
    # "dim" and "symmetric" were read with int() and bool(), so "false"
    # declared a symmetric kernel and 2.5 passed as 2
    "matrix dim 2.5": (["check-id", "--input", "{dim_float}"], 2),
    "matrix dim text 2": (["check-id", "--input", "{dim_text}"], 2),
    "matrix symmetric text false": (["check-id", "--input", "{sym_text}"], 2),
    "matrix nonsymmetric, symmetric text false": (["check-id", "--input", "{nonsym_text}"], 2),
    # the witness at alpha 0 once exited 1 before the bad alpha was reached
    "scan alphas 0,-1": (["scan", "--input", "{mix3}", "--alphas", "0,-1"], 2),
    "scan alphas 1,0": (["scan", "--input", "{mix3}", "--alphas", "1,0"], 2),
    "scan m-max 0": (["scan", "--input", "{g2}", "--m-max", "0"], 2),
    "scan m-max 9": (["scan", "--input", "{g2}", "--m-max", "9"], 3),
    "matrix not UTF-8": (["check-id", "--input", "{not_utf8}"], 2),
    "report not UTF-8": (["render", "--input", "{not_utf8}"], 2),
    "missing option": (["check-id"], 2),
    # kernels that are not PSD have no Gaussian moments to scan
    "scan-monotone negative diagonal": (["scan-monotone", "--kernel", "{negdiag2}"], 3),
    "scan-monotone indefinite": (["scan-monotone", "--kernel", "{indefinite2}"], 3),
    # a pairs row without its fields, once a bare KeyError (exit 3)
    "render row KeyError": (["render", "--input", "{bad_rows}",
                             "--format", "table"], 2),
}


class TestBadInputs:
    @pytest.fixture
    def files(self, matrices, tmp_path):
        extra = {
            "list_report": "[1, 2]",
            "text_entry": '{"entries": [["a"]]}',
            "text_dim": '{"dim": "x", "entries": [[1.0]]}',
            "dim_float": '{"dim": 2.5, "entries": [[1, 0.5], [0.5, 1]]}',
            "dim_text": '{"dim": "2", "entries": [[1, 0.5], [0.5, 1]]}',
            "sym_text": '{"symmetric": "false", "entries": [[1, 0.5], [0.5, 1]]}',
            "nonsym_text": '{"symmetric": "false", "entries": [[1, 0.9], [-0.5, 1]]}',
            "bad_rows": '{"schema": 1, "command": "x", "result": {"pairs": [{}]}}',
        }
        paths = dict(matrices)
        for name, text in extra.items():
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            paths[name] = str(path)
        path = tmp_path / "not_utf8.csv"
        path.write_bytes(b"\xff\xfe1,0\n0,1\n")
        paths["not_utf8"] = str(path)
        return paths

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_exit_code_and_one_json_error(self, case, files, capsys):
        argv, expected = BAD_INPUTS[case]
        code, out, err = run_cli([a.format(**files) for a in argv], capsys)
        assert code == expected, err
        assert out == ""
        _one_json_error(err)

    @pytest.mark.parametrize("argv, message", [
        (["shifted-order", "--kernel", "{g2}", "--r-pairs", "1,0.5;2,1,0"],
         "r-pair '2,1,0' has 3 entries, needs 2"),
        (["shifted-order", "--kernel", "{g2}", "--r-pairs", ";"], "no r-pairs given"),
        (["scan-monotone", "--kernel", "{g2}", "--scalings", "1,2;1,2,3"],
         "scaling '1,2,3' has 3 entries, needs 2"),
        (["scan-monotone", "--kernel", "{g2}", "--scalings", " ; "], "no scalings given"),
    ])
    def test_vector_list_messages(self, argv, message, matrices, capsys):
        code, out, err = run_cli([a.format(**matrices) for a in argv], capsys)
        assert (code, out) == (2, "")
        assert _one_json_error(err)["message"] == message

    @pytest.mark.parametrize("argv", [
        ["sample", "--kernel", "{g2}", "--k", "0", "--n", "10", "--out", "{dir}/x.bin"],
        ["check-assoc", "--kernel", "{g2}", "--k", "0", "--n", "100"],
    ], ids=["sample", "check-assoc"])
    def test_index_k_zero_is_invalid_index_error(self, argv, matrices, capsys):
        code, out, err = run_cli([a.format(**matrices) for a in argv], capsys)
        assert (code, out) == (2, "")
        assert _one_json_error(err)["error"] == "InvalidIndexError"

    @pytest.mark.parametrize("argv", [
        ["check-fkg", "--kernel", "{neg2}", "--shift", "1e10"],
        ["shifted-order", "--kernel", "{neg2}", "--r-pairs", "1e10,0"],
    ])
    def test_nan_lattice_grid_is_three(self, argv, matrices, capsys):
        # past |r| / sqrt(variance) = 2^33 float64 cannot place the grid's
        # points; a lattice of NaN points once said holds here
        code, out, err = run_cli([a.format(**matrices) for a in argv], capsys)
        assert (code, out) == (3, "")
        assert _one_json_error(err)["error"] == "NonFiniteError"

    @pytest.mark.parametrize("argv", [
        ["check-fkg", "--kernel", "{g2}", "--shift", "1e14"],
        ["shifted-order", "--kernel", "{g2}", "--r-pairs", "1e14,0"],
    ])
    def test_huge_shift_is_three_at_once(self, argv, matrices, capsys):
        # chndtrix took about a minute at noncentrality 1e18 to return NaN,
        # and a grid at 1e14 made this positive pair fail
        start = time.monotonic()
        code, out, err = run_cli([a.format(**matrices) for a in argv], capsys)
        assert time.monotonic() - start < 1.0
        assert (code, out) == (3, "")
        assert _one_json_error(err)["error"] == "NonFiniteError"

    @pytest.mark.parametrize("argv", [["check-fkg"], ["shifted-order", "--r-pairs", "1,0.5"]])
    def test_nonsymmetric_pair_is_two(self, argv, tmp_path, capsys):
        # the pair densities once averaged the off-diagonals silently
        save_matrix(kernel([[1.0, 0.9], [-0.5, 1.0]], symmetric=False), tmp_path / "ns.csv")
        code, out, err = run_cli(argv + ["--kernel", tmp_path / "ns.csv"], capsys)
        assert (code, out) == (2, "")
        assert _one_json_error(err)["error"] == "InputFormatError"

    @pytest.mark.parametrize("argv", [["check-fkg"], ["shifted-order", "--r-pairs", "1,0.5"]])
    def test_indefinite_pair_reports_its_eigenvalue(self, argv, matrices, capsys):
        # the determinant -3 was once reported as the smallest eigenvalue;
        # a negative eigenvalue is NotPSDError, as in sample and scan-monotone
        code, out, err = run_cli(argv + ["--kernel", matrices["indefinite2"]], capsys)
        assert (code, out) == (3, "")
        error = _one_json_error(err)
        assert error["error"] == "NotPSDError"
        assert error["min_eigenvalue"] == pytest.approx(-1.0, rel=1e-12)

    @pytest.mark.parametrize("vx, c, vy, eigenvalue", [
        ("1e200", "1e201", "1e200", -9e200),
        ("1e-200", "1e-199", "1e-200", -9e-200),
        ("1", "2", "1", -1.0),
    ])
    def test_shifted_pair_not_psd_at_any_scale(self, vx, c, vy, eigenvalue, capsys):
        # the determinant test overflowed (holds), underflowed (fails) and
        # reported the determinant -3 as the smallest eigenvalue
        code, out, err = run_cli(["check-shifted-pair", "--vx", vx, "--c", c,
                                  "--vy", vy], capsys)
        assert (code, out) == (3, "")
        error = _one_json_error(err)
        assert error["error"] == "NotPSDError"
        assert error["min_eigenvalue"] == pytest.approx(eigenvalue, rel=1e-12)

    def test_shifted_pair_within_relative_psd_floor_fails(self, capsys):
        # smallest eigenvalue -1e-10 is inside the floor PSD_REL * max|G|,
        # so the pair is screened as PSD and c > v_x * v_y fails
        code, _, _ = run_cli(["check-shifted-pair", "--vx", "1", "--c", "1.0000000001",
                              "--vy", "1"], capsys)
        assert code == 1

    @pytest.mark.parametrize("name", ["negdiag2", "indefinite2"])
    def test_scan_monotone_non_psd_kernel_is_not_psd_error(self, name, matrices, capsys):
        code, out, err = run_cli(["scan-monotone", "--kernel", matrices[name]], capsys)
        assert (code, out) == (3, "")
        assert _one_json_error(err)["error"] == "NotPSDError"

    @pytest.mark.parametrize("argv, expected", [
        (["sample", "--kernel", "{m}", "--n", "10", "--out", "{dir}/x.bin"], 3),
        (["check-id", "--input", "{m}"], 1),
        (["scan-monotone", "--kernel", "{m}"], 3),
    ])
    def test_indefinite_kernel_exit_does_not_depend_on_scale(self, argv, expected,
                                                             matrices, capsys, tmp_path):
        # the eigenvalue screens are relative to the kernel's size, so
        # 1e-12 * [[1,2],[2,1]] is as indefinite as [[1,2],[2,1]]
        codes = []
        for name in ("indefinite2", "indefinite2_tiny"):
            args = [a.format(m=matrices[name], dir=tmp_path) for a in argv]
            code, _, _ = run_cli(args + ["--report", tmp_path / "r.json"], capsys)
            codes.append(code)
        assert codes == [expected, expected]

    def test_unexpected_exception_is_three(self, monkeypatch, capsys):
        import permacheck.cli as cli

        def broken(*args):
            raise AttributeError("boom")

        monkeypatch.setattr(cli, "shifted_pair_id_test", broken)
        code, _, err = run_cli(["check-shifted-pair", "--vx", "1", "--c", "0",
                                "--vy", "1"], capsys)
        assert code == 3
        assert _one_json_error(err) == {"error": "AttributeError", "message": "boom"}

    @pytest.mark.parametrize("option", [["--betas", "0.5"], ["--alphas", "0:1:0.5"],
                                        ["--m-max", "3"]])
    def test_check_id_takes_no_scan_grid(self, option, matrices, capsys):
        # the fallback scan runs on the defaults table's grids; scan takes custom ones
        code, out, err = run_cli(["check-id", "--input", matrices["g2"]] + option, capsys)
        assert (code, out) == (2, "")
        assert _one_json_error(err)["error"] == "UsageError"

    def test_whole_float_count_accepted(self, matrices, capsys, tmp_path):
        code, out, _ = run_cli(["sample", "--kernel", matrices["g2"], "--n", "1e2",
                                "--out", str(tmp_path / "x.bin")], capsys)
        assert code == 0
        report = json.loads(out)
        assert (report["inputs"]["n"], report["result"]["n_draws"]) == (100, 100)

    def test_largest_seed_accepted(self, matrices, capsys, tmp_path):
        code, out, _ = run_cli(["sample", "--kernel", matrices["g2"], "--n", "10",
                                "--seed", str(2 ** 64 - 1),
                                "--out", str(tmp_path / "x.bin")], capsys)
        assert code == 0
        assert json.loads(out)["result"]["seed"] == 2 ** 64 - 1


# strategies for the CLI contract property: matrix text that is often
# malformed, and grid, r-pair and count strings that are often garbled
def _shaped(entries, kind):
    a = np.array(entries)
    if kind == "symmetric":
        return (a + a.T) / 2
    if kind == "psd":
        return a @ a.T
    return np.abs(a) if kind == "nonnegative" else a


_MATRICES = st.integers(1, 4).flatmap(lambda n: st.builds(
    _shaped, st.lists(st.lists(st.floats(-2.0, 2.0).map(lambda v: round(v, 2)),
                               min_size=n, max_size=n), min_size=n, max_size=n),
    st.sampled_from(["raw", "symmetric", "psd", "nonnegative"])))
_BAD_CELLS = st.sampled_from(["nan", "inf", "-inf", "x", "", "1e400", "0x1"])


def _csv_text(a, damage=None, cell=None):
    rows = [[format(v, "g") for v in row] for row in a]
    if damage == "cell":
        rows[-1][0] = cell
    elif damage == "ragged":
        rows[0] = rows[0] + ["1"]
    return "\n".join(",".join(r) for r in rows) + "\n"


def _json_text(a, dim="none", sym=None):
    obj = {"entries": a.tolist()}
    if dim != "none":
        obj["dim"] = dim
    if sym is not None:
        obj["symmetric"] = sym
    return json.dumps(obj)


_MATRIX_TEXT = st.one_of(
    _MATRICES.map(_csv_text),
    _MATRICES.map(_json_text),
    st.builds(_csv_text, _MATRICES, st.sampled_from(["cell", "ragged"]), _BAD_CELLS),
    st.builds(_json_text, _MATRICES,
              st.sampled_from([1, 2, 3, 4, -1, "x", None, 2.5, [2], 1e300]),
              st.sampled_from([None, True, False])),
    st.sampled_from(["", "\n", "   ", "{", "[]", "{}", '{"entries": 3}',
                     '{"entries": [[1, "a"], [0, 1]]}', '{"entries": [[1, 2], [3]]}',
                     "1,2\n3\n"]),
    st.text(max_size=12))
_GRIDS = st.one_of(
    st.builds(lambda a, b, c: f"{a}:{b}:{c}", st.sampled_from(["0", "0.5", "1"]),
              st.sampled_from(["1", "2", "3"]), st.sampled_from(["0.5", "1"])),
    st.lists(st.sampled_from(["0", "0.5", "1", "2"]), min_size=1, max_size=3).map(",".join),
    st.builds(lambda a, b, c: f"{a}:{b}:{c}", st.sampled_from(["0", "x", "-1", "2"]),
              st.sampled_from(["1", "0", "nan"]), st.sampled_from(["0.5", "0", "-1"])),
    st.lists(st.sampled_from(["0", "1", "-1", "nan", "x", ""]),
             min_size=1, max_size=3).map(",".join),
    st.text(alphabet="0123456789.,:-x", max_size=6))
_R_PAIRS = st.one_of(
    st.lists(st.sampled_from(["1,0.5", "2,1", "0.5,0"]), min_size=1, max_size=2).map(";".join),
    st.lists(st.builds(lambda r, q: f"{r},{q}", st.sampled_from(["0", "0.5", "1", "x"]),
                       st.sampled_from(["0.5", "1", "-1", "nan"])),
             min_size=1, max_size=2).map(";".join),
    st.text(alphabet="0123456789.,;x", max_size=6))
_COUNTS = st.sampled_from(["10", "2.5", "nan", "1e1", "0", "-5", "x", "12"])
_KEEPS = st.sampled_from(["0", "0,1", "1,0", "0,0", "5", "-1", "a", ""])
_COMMANDS = st.one_of(
    st.just(["check-id", "--input", "{m}"]),
    st.builds(lambda g: ["scan", "--input", "{m}", "--betas", g, "--m-max", "2"], _GRIDS),
    st.builds(lambda b: ["perm", "--input", "{m}", "--beta", b],
              st.sampled_from(["1", "-1", "0.5", "nan", "x"])),
    st.just(["green", "gen", "--chain", "{m}"]),
    st.just(["green", "check", "--input", "{m}"]),
    st.builds(lambda b: ["green", "power", "--input", "{m}", "--beta", b],
              st.sampled_from(["1", "2", "0.5", "nan"])),
    st.builds(lambda g: ["green", "plus-c", "--input", "{m}", "--grid", g], _GRIDS),
    st.builds(lambda k: ["green", "restrict", "--input", "{m}", "--keep", k], _KEEPS),
    st.builds(lambda n: ["sample", "--kernel", "{m}", "--n", n, "--out", "{dir}/x.bin"],
              _COUNTS),
    st.builds(lambda g, s: ["scan-monotone", "--kernel", "{m}", "--alphas", g,
                            "--scalings", s], _GRIDS,
              st.sampled_from(["identity", "random:3", "random:0", "random:x", "1,2", "0.5"])),
    st.builds(lambda r: ["shifted-order", "--kernel", "{m}", "--r-pairs", r], _R_PAIRS),
    st.builds(lambda r: ["check-fkg", "--kernel", "{m}", "--shift", r],
              st.sampled_from(["0", "0.5", "-1", "nan"])),
)


# strategies that draw inputs each command accepts, so that the contract
# is also checked where the commands compute: matrices are written as
# JSON, which keeps every bit, and options are well formed
_SQUARE = _MATRICES.map(_json_text)
_PSD = _MATRICES.map(lambda a: _json_text(a @ a.T))
_PD2 = st.builds(
    lambda vx, vy, rho: _json_text(np.array(
        [[vx, rho * math.sqrt(vx * vy)], [rho * math.sqrt(vx * vy), vy]])),
    st.floats(0.1, 4.0), st.floats(0.1, 4.0), st.floats(-0.95, 0.95))
_GOOD_GRIDS = st.sampled_from(["0:1:0.5", "0,0.5,1", "0.5", "0:2:1"])
_VALID = st.one_of(
    st.tuples(st.just(["check-id", "--input", "{m}"]), _SQUARE),
    st.tuples(st.builds(lambda g, m: ["scan", "--input", "{m}", "--betas", g,
                                      "--m-max", m],
                        st.sampled_from(["0.1:0.5:0.2", "0.5,1", "2"]),
                        st.sampled_from(["2", "3"])), _SQUARE),
    st.tuples(st.builds(lambda b: ["perm", "--input", "{m}", "--beta", b],
                        st.sampled_from(["1", "-1", "0.5", "2"])), _SQUARE),
    st.tuples(st.builds(lambda k, n: ["sample", "--kernel", "{m}", "--k", k, "--n", n,
                                      "--out", "{dir}/x.bin"],
                        st.sampled_from(["1", "2"]), st.sampled_from(["10", "1e2"])), _PSD),
    st.tuples(st.builds(lambda k: ["check-assoc", "--kernel", "{m}", "--k", k,
                                   "--n", "200"], st.sampled_from(["1", "2"])), _PSD),
    st.tuples(st.builds(lambda g, s: ["scan-monotone", "--kernel", "{m}", "--alphas", g,
                                      "--scalings", s], _GOOD_GRIDS,
                        st.sampled_from(["identity", "random:3"])), _PSD),
    st.tuples(st.builds(lambda r: ["shifted-order", "--kernel", "{m}", "--r-pairs", r],
                        st.sampled_from(["1,0.5", "2,1", "0.5,0", "1,0.5;2,1"])), _PD2),
    st.tuples(st.builds(lambda r: ["check-fkg", "--kernel", "{m}", "--shift", r],
                        st.sampled_from(["0", "0.5", "1"])), _PD2),
)


def _contract_exit_code(tmp_path, capsys, argv, text) -> tuple:
    """Runs argv on a matrix file holding text and checks the CLI contract.

    Returns the exit code and the JSON error object, or None."""
    (tmp_path / "m.txt").write_text(text)
    report = tmp_path / "report.json"
    report.unlink(missing_ok=True)
    argv = [a.format(m=tmp_path / "m.txt", dir=tmp_path) for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(argv + ["--report", report], capsys)
    # a warning would reach a real run's stderr beside the JSON error
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2, 3, 4)
    if code in (2, 3):
        return code, _one_json_error(err)
    assert err == ""
    verdict = json.loads(report.read_text())["result"].get("verdict", {})
    if code == 1:
        assert verdict["status"] == "fails" and verdict["witness"]
    else:
        assert verdict.get("status") != "fails"
    return code, None


class TestContract:
    @settings(max_examples=250, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(_COMMANDS, _MATRIX_TEXT)
    def test_exit_code_report_and_stderr(self, tmp_path, capsys, argv, text):
        event(f"exit {_contract_exit_code(tmp_path, capsys, argv, text)[0]}")

    def test_valid_inputs_reach_a_verdict(self, tmp_path, capsys):
        codes = []

        @settings(max_examples=150, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(_VALID)
        def check(case):
            codes.append(_contract_exit_code(tmp_path, capsys, *case)[0])
            event(f"exit {codes[-1]}")

        check()
        assert codes.count(2) <= len(codes) / 3, codes

    @pytest.mark.parametrize("argv, entries", [
        (["perm", "--input", "{m}", "--beta", "1e200"], [[2, 1, 0.5], [1, 2, 1], [0.5, 1, 2]]),
        (["perm", "--input", "{m}", "--beta", "1"], 1e300 * np.array(MIX3)),
        (["green", "power", "--input", "{m}", "--beta", "1000", "--out", "{dir}/p.csv"],
         [[3, 1], [1, 3]]),
        (["check-id", "--input", "{m}"], 1e110 * np.array(PSD_SINGULAR3)),
        (["check-id", "--input", "{m}"], 1e160 * np.array(PSD_SINGULAR3)),
        # no certificate, so the battery's scale^3 floor decides, and overflows
        (["check-id", "--input", "{m}"], 1e160 * np.array(NONSYM3_OPEN)),
        (["scan", "--input", "{m}"], 1e300 * np.array(MIX3)),
        (["sample", "--kernel", "{m}", "--n", "10", "--out", "{dir}/x.bin"],
         1e308 * np.eye(2)),
        (["check-assoc", "--kernel", "{m}", "--n", "100"], 1e308 * np.eye(2)),
        (["check-assoc", "--kernel", "{m}", "--n", "20000", "--seed", "1"],
         1e160 * np.array([[1.0, 0.5], [0.5, 1.0]])),
        # three row blocks, which run on the worker pool
        (["sample", "--kernel", "{m}", "--n", "20000", "--out", "{dir}/x.bin"],
         1e308 * np.eye(2)),
        (["check-assoc", "--kernel", "{m}", "--n", "20000"], 1e308 * np.eye(2)),
    ], ids=["perm-big-beta", "perm-huge", "power", "psd-1e110", "psd-1e160",
            "nonsym-1e160", "scan-huge", "sample-1e308", "assoc-1e308", "assoc-1e160",
            "sample-1e308-blocks", "assoc-1e308-blocks"])
    def test_value_that_is_not_finite_is_three(self, argv, entries, tmp_path, capsys,
                                               monkeypatch):
        # each once exited 0 with inf or NaN, or 2 or 3 with the wrong error
        # and an overflow warning on stderr; row blocks run on the pool, on
        # two workers whatever the host's CPU count
        import permacheck.sampler

        monkeypatch.setattr(permacheck.sampler, "_WORKERS", 2)
        code, error = _contract_exit_code(tmp_path, capsys, argv,
                                          _json_text(np.array(entries, dtype=float)))
        assert (code, error["error"]) == (3, "NonFiniteError")

    @pytest.mark.parametrize("scale", [1e103, 1e160, 1e300])
    def test_certified_kernel_holds_at_any_scale(self, scale, tmp_path, capsys):
        # the inverse certificate comes before the battery, whose scale^3
        # floor overflowed from about 1e103 and exited 3
        results = []
        for c in (1.0, scale):
            code, _ = _contract_exit_code(tmp_path, capsys, ["check-id", "--input", "{m}"],
                                          _json_text(c * np.array(NONSYM3)))
            result = json.loads((tmp_path / "report.json").read_text())["result"]
            results.append((code, result["verdict"]["status"], result["method"],
                            result["signature"]))
        assert results[0] == results[1] == (0, "holds", "inverse-M-sufficient", [1, 1, 1])

    def test_report_that_is_not_json_is_three(self, monkeypatch, capsys):
        # json.dumps wrote Infinity, which no JSON parser reads
        import permacheck.cli as cli

        monkeypatch.setattr(cli, "shifted_pair_id_test",
                            lambda *args: cli.Verdict.fail({"c": math.inf}, "stub"))
        code, out, err = run_cli(["check-shifted-pair", "--vx", "1", "--c", "0",
                                  "--vy", "1"], capsys)
        assert (code, out) == (3, "")
        assert _one_json_error(err)["error"] == "NonFiniteError"


_IMPORT_PROBE = """
import sys
import permacheck.cli
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""

_SCIPY_PROBE = """
import sys
if sys.argv.pop(1) == "blocked":
    sys.modules["scipy"] = None  # any scipy import raises ImportError
from permacheck.cli import parse_and_dispatch
code = parse_and_dispatch(sys.argv[1:])
print(sorted(m for m, mod in sys.modules.items()
             if mod is not None and m.partition(".")[0] == "scipy"), code)
"""

_RUN_PROBE = """
import sys
from permacheck.cli import parse_and_dispatch
code = parse_and_dispatch(sys.argv[1:])
print(code, "scipy.stats" in sys.modules, "scipy.special" in sys.modules)
"""

_NO_SCIPY_PROBE = """
import sys
sys.modules["scipy"] = None  # any scipy import raises ImportError
from permacheck.cli import parse_and_dispatch
print(parse_and_dispatch(sys.argv[1:]))
"""

_SCIPY_ROUTE_PROBE = """
import sys
import scipy.special  # noqa: F401  (once made the sampler take scipy's ndtri)
from permacheck.cli import parse_and_dispatch
print(parse_and_dispatch(sys.argv[1:]), "scipy.special" in sys.modules)
"""


# each command, with its exit code
_EVERY_COMMAND = pytest.mark.parametrize("argv, code", [
    (["check-id", "--input", "{tri}"], 1),
    # check-id and green check read G^-1's signs through one routine
    (["check-id", "--input", "{g2}"], 0),
    (["green", "check", "--input", "{g2}"], 0),
    (["perm", "--input", "{perm2}", "--beta", "1"], 0),
    (["scan", "--input", "{tri}", "--m-max", "4"], 1),
    (["green", "gen", "--chain", "{chain2}", "--out", "g.csv"], 0),
    (["green", "power", "--input", "{green2}", "--beta", "2", "--out", "p.csv"], 0),
    (["green", "plus-c", "--input", "{green2}"], 0),
    (["green", "restrict", "--input", "{tri}", "--keep", "0,1", "--out", "r.csv"], 0),
    (["sample", "--kernel", "{g2}", "--n", "1e4", "--seed", "5", "--out", "s.bin"], 0),
    # 1.2e6 normals in 74 row blocks, on the pool
    (["sample", "--kernel", "{g2}", "--n", "6e5", "--seed", "3", "--out", "s.bin"], 0),
    (["check-assoc", "--kernel", "{g2}", "--n", "2e4", "--seed", "5"], 0),
    (["scan-monotone", "--kernel", "{tri}", "--scalings", "random:5"], 0),
    (["check-fkg", "--kernel", "{g2}", "--shift", "0.5"], 0),
    (["check-fkg", "--kernel", "{neg2}", "--shift", "0.5"], 1),
    (["check-fkg", "--kernel", "{g2}", "--shift", "1e10"], 3),
    (["shifted-order", "--kernel", "{green2}", "--r-pairs", "1,0.5;2,1"], 0),
    (["shifted-order", "--kernel", "{neg2}", "--r-pairs", "1,0.5"], 1),
    (["check-shifted-pair", "--vx", "1", "--c", "0.5", "--vy", "1"], 0),
    (["render", "--input", "{g2}"], 2),
], ids=["check-id", "check-id-holds", "green-check", "perm", "scan", "green-gen",
        "green-power", "green-plus-c", "green-restrict", "sample", "sample-large",
        "check-assoc", "scan-monotone", "check-fkg", "check-fkg-fails", "check-fkg-range",
        "shifted-order", "shifted-order-fails", "check-shifted-pair", "render"])


class TestStartup:
    def test_every_import_is_the_stdlib_numpy_or_permacheck(self):
        # numpy is the only runtime dependency on every code path, the
        # function-level imports included, where running commands without
        # scipy shows it only for the paths those commands take
        allowed = set(sys.stdlib_module_names) | {"numpy", "permacheck"}
        seen, outside = set(), []
        for path in sorted(Path(permacheck.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue  # a relative import is permacheck itself
                seen.update(names)
                outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                            if name.partition(".")[0] not in allowed]
        assert "concurrent.futures" in seen  # sampler._in_pool's, inside the function
        assert outside == []

    def test_import_loads_no_scipy(self):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv, special", [
        (["check-id", "--input", "{tri}"], False),
        (["check-fkg", "--kernel", "{g2}", "--shift", "0.5"], False),
        (["sample", "--kernel", "{g2}", "--n", "100", "--seed", "3",
          "--out", "{dir}/s.bin"], False),
        (["check-fkg", "--kernel", "{g2}", "--shift", "0"], False),
        (["shifted-order", "--kernel", "{green2}", "--r-pairs", "1,0.5;2,1"], False),
        # 2 * 6e5 normals, on the pool
        (["sample", "--kernel", "{g2}", "--n", "6e5", "--seed", "3",
          "--out", "{dir}/s.bin"], False),
    ])
    def test_commands_never_load_scipy_stats(self, argv, special, matrices, tmp_path):
        argv = [a.format(**matrices) for a in argv]
        argv += ["--report", str(tmp_path / "r.json")]
        proc = subprocess.run([sys.executable, "-c", _RUN_PROBE] + argv,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        code, stats, special_loaded = proc.stdout.split()
        assert code in ("0", "1")
        assert stats == "False"
        assert special_loaded == str(special)

    @pytest.mark.parametrize("argv, code", [
        (["check-fkg", "--kernel", "{g2}", "--shift", "0.5"], 0),
        (["check-fkg", "--kernel", "{neg2}", "--shift", "0.5"], 1),
        (["check-fkg", "--kernel", "{g2}", "--shift", "1e10"], 3),
        (["shifted-order", "--kernel", "{green2}", "--r-pairs", "1,0.5;2,1"], 0),
        (["shifted-order", "--kernel", "{neg2}", "--r-pairs", "1,0.5"], 1),
    ])
    def test_lattice_commands_run_without_scipy(self, argv, code, matrices, tmp_path):
        argv = [a.format(**matrices) for a in argv]
        argv += ["--report", str(tmp_path / "r.json")]
        proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE] + argv,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(code)]

    def test_sample_without_scipy_writes_the_scipy_route_bytes(self, matrices, tmp_path):
        # the sampler once took scipy's ndtri whenever scipy.special was
        # loaded; a batch must not depend on whether it is
        argv = ["sample", "--kernel", matrices["g2"], "--n", "1e4", "--seed", "5",
                "--out", str(tmp_path / "s.bin"), "--report", str(tmp_path / "r.json")]
        runs = []
        for probe, printed in ((_NO_SCIPY_PROBE, ["0"]), (_SCIPY_ROUTE_PROBE, ["0", "True"])):
            proc = subprocess.run([sys.executable, "-c", probe] + argv,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.split() == printed
            runs.append((proc.stderr, (tmp_path / "s.bin").read_bytes(),
                         (tmp_path / "r.json").read_bytes()))
        assert runs[0] == runs[1]

    @_EVERY_COMMAND
    def test_commands_write_the_same_bytes_without_scipy(self, argv, code, matrices,
                                                         tmp_path):
        # relative output paths, since reports echo them, and a package path
        # that holds in each run's own directory
        argv = [a.format(**matrices) for a in argv]
        if argv[0] != "render":
            argv += ["--report", "report.json"]
        package_root = str(Path(permacheck.__file__).parents[1])
        runs = []
        for mode in ("normal", "blocked"):
            out = tmp_path / mode
            out.mkdir()
            proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, mode, *argv],
                                  capture_output=True, text=True, cwd=out,
                                  env=dict(os.environ, PYTHONPATH=package_root))
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines()[-1] == f"[] {code}", proc.stdout
            runs.append((proc.stdout, proc.stderr,
                         {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
        assert runs[0] == runs[1]


_THREAD_PROBE = """
import sys
import threading
import permacheck.sampler
permacheck.sampler._WORKERS = 2  # the pool, on any CPU count
from permacheck.cli import parse_and_dispatch
code = parse_and_dispatch(sys.argv[1:])
print(code, "concurrent.futures" in sys.modules, threading.active_count())
"""


class TestProcessExit:
    """main() flushes stdout and stderr and ends the process with os._exit;
    parse_and_dispatch, the in-process entry point, returns.  Each child
    runs in its own directory, with a package path that holds there."""

    ROUTES = {"main": ["-m", "permacheck.cli"],
              "in-process": ["-c", _SCIPY_PROBE, "normal"],
              "threads": ["-c", _THREAD_PROBE]}

    def _run(self, route, argv, cwd, buffered=True, **streams):
        # stdout buffered, as by default, so that main's flush writes its tail
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(permacheck.__file__).parents[1])
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        cwd.mkdir()
        return subprocess.run([sys.executable, *self.ROUTES[route], *argv], cwd=cwd,
                              env=env, **streams)

    def _both_routes(self, argv, tmp_path) -> list:
        """[exit code, stdout, stderr, files] of main and of parse_and_dispatch;
        the probe exits 0 and prints the code on its own last line."""
        runs = []
        for route in ("main", "in-process"):
            proc = self._run(route, argv, tmp_path / route, capture_output=True)
            runs.append([proc.returncode, proc.stdout, proc.stderr,
                         {p.name: p.read_bytes() for p in sorted((tmp_path / route).iterdir())}])
        main, probe = runs
        last = f"[] {main[0]}\n".encode()
        assert probe[0] == 0 and probe[1].endswith(last), (probe[1][-200:], probe[2])
        probe[:2] = [main[0], probe[1][:-len(last)]]
        return runs

    @_EVERY_COMMAND
    def test_main_writes_the_in_process_bytes(self, argv, code, matrices, tmp_path):
        argv = [a.format(**matrices) for a in argv]
        if argv[0] != "render":
            argv += ["--report", "report.json"]
        main, in_process = self._both_routes(argv, tmp_path)
        assert main[0] == code
        assert main == in_process

    def test_stdout_past_a_pipe_buffer_arrives_whole(self, tmp_path):
        # 22500 entries, about 490 KB, more than a pipe buffer holds
        chain = tmp_path / "chain.csv"
        save_matrix(kernel(np.full((150, 150), 0.5 / 150)), chain)
        main, in_process = self._both_routes(["green", "gen", "--chain", str(chain)],
                                             tmp_path)
        assert main[0] == 0 and len(main[1]) > 400_000
        assert main[1].count(b"\n") == 150
        assert main == in_process

    @pytest.mark.parametrize("argv, text, code", [
        (["check-id", "--input", "/dev/stdin"], "1,0.5\n0.5,1\n", 0),
        # eigenvalue -5e-11 lies within the PSD floor, and the scan refutes it
        (["check-id", "--input", "/dev/stdin"], "1,0.5\n0,-5e-11\n", 1),
        (["render", "--input", "/dev/stdin"], '{"schema": true}', 2),
    ], ids=["check-id-holds", "check-id-floor", "render-schema-true"])
    def test_piped_input_gives_a_whole_report_or_one_error(self, argv, text, code,
                                                          tmp_path):
        proc = self._run("main", argv, tmp_path / "main", input=text,
                         capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        if code == 2:
            assert proc.stdout == ""
            _one_json_error(proc.stderr)
        else:
            assert proc.stderr == ""
            assert json.loads(proc.stdout)["result"]["verdict"]["status"] == (
                "holds" if code == 0 else "fails")

    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    def test_closed_stdout_exits_as_before(self, buffered, matrices, tmp_path):
        # unbuffered, the write in dispatch raises; buffered, main's flush
        # does, where the usual exit gave 120 and two lines of traceback.
        # Either way: one JSON error, exit 2
        read, write = os.pipe()
        os.close(read)
        try:
            proc = self._run("main", ["check-id", "--input", matrices["tri"]],
                             tmp_path / "main", buffered, stdout=write,
                             stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write)
        assert proc.returncode == 2
        assert _one_json_error(proc.stderr)["error"] == "BrokenPipeError"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv, buffered", [
        (["check-id", "--input", "{tri}"], True),
        (["perm", "--input", "{perm2}", "--beta", "1"], True),
        (["--help"], True),
        # unbuffered, argparse's own _print_message would drop the write's OSError
        (["--help"], False),
        (["check-id", "--help"], False),
    ], ids=["check-id", "perm", "help", "help-unbuffered", "check-id-help-unbuffered"])
    def test_full_stdout_is_one_json_error(self, argv, buffered, matrices, tmp_path):
        argv = [a.format(**matrices) for a in argv]
        with open("/dev/full", "w") as full:
            proc = self._run("main", argv, tmp_path / "main", buffered, stdout=full,
                             stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 2
        error = _one_json_error(proc.stderr)
        assert (error["error"], "No space left" in error["message"]) == ("OSError", True)

    @pytest.mark.parametrize("argv", [
        ["sample", "--kernel", "{g2}", "--n", "6e5", "--seed", "3", "--out", "s.bin"],
        ["check-assoc", "--kernel", "{g2}", "--n", "2e4", "--seed", "5"],
    ], ids=["sample", "check-assoc"])
    def test_pooled_commands_join_their_threads(self, argv, matrices, tmp_path):
        # os._exit would cut off a pool thread still writing
        argv = [a.format(**matrices) for a in argv] + ["--report", "r.json"]
        proc = self._run("threads", argv, tmp_path / "threads", capture_output=True,
                         text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "True", "1"]


class TestPerm:
    def test_bare_value_on_stdout(self, matrices, capsys):
        code, out, _ = run_cli(
            ["perm", "--input", matrices["perm2"], "--beta", "1"], capsys)
        assert code == 0
        assert float(out.strip()) == 10.0

    def test_report_file_with_value(self, matrices, capsys, tmp_path):
        rpt = tmp_path / "perm.json"
        code, out, _ = run_cli(
            ["perm", "--input", matrices["perm2"], "--beta", "-1",
             "--report", str(rpt)], capsys)
        assert code == 0
        assert float(out.strip()) == -2.0
        saved = json.loads(rpt.read_text())
        assert saved["result"]["value"] == -2.0
        assert saved["inputs"] == {"input": matrices["perm2"], "beta": -1.0}


class TestScan:
    def test_witness_and_exit_one(self, matrices, capsys):
        code, out, _ = run_cli(["scan", "--input", matrices["tri"],
                                "--m-max", "4"], capsys)
        assert code == 1
        rep = json.loads(out)
        assert rep["result"]["verdict"]["witness"]["value"] < 0

    def test_reports_identical_across_threads(self, matrices, capsys):
        # --threads is parsed and ignored, so that old command lines keep
        # running; real thread and CPU counts are criterion 9's and
        # TestThreadCount's
        argv = ["scan", "--input", matrices["tri"], "--m-max", "4"]
        runs = [run_cli(threads + argv, capsys) for threads in ([], ["--threads", "2"])]
        assert runs[0][0] == 1
        assert runs[0] == runs[1]

    def test_huge_kernel_scans_like_unit_kernel(self, matrices, capsys):
        # the scan's threshold scale**m was a Python power that overflowed
        reports = []
        for name in ("g2", "huge2"):
            code, out, err = run_cli(["scan", "--input", matrices[name]], capsys)
            assert (code, err) == (0, "")
            reports.append(json.loads(out)["result"])
        assert reports[1]["verdict"]["status"] == "holds"
        assert reports[1]["scanned"] == reports[0]["scanned"] == 11 * 20 * 20

    def test_huge_kernel_keeps_the_witness_bits(self, matrices, capsys):
        # 2**332 * MIX3: every per_beta on a 3-set is MIX3's times 2**996
        code, out, _ = run_cli(["scan", "--input", matrices["mix3"]], capsys)
        assert code == 1
        base = json.loads(out)["result"]
        code, out, _ = run_cli(["scan", "--input", matrices["mix3_huge"]], capsys)
        assert code == 1
        result = json.loads(out)["result"]
        witness = result["verdict"]["witness"]
        assert result["scanned"] == base["scanned"] == 14
        assert (witness["alpha"], witness["beta"], witness["indices"]) == (0.0, 0.1, [0, 1, 2])
        assert base["verdict"]["witness"]["value"] == -0.012167799999999998
        assert witness["value"] == math.ldexp(-0.012167799999999998, 996)

    def test_custom_grids(self, matrices, capsys):
        code, out, _ = run_cli(
            ["scan", "--input", matrices["g2"], "--betas", "0.5,1.0",
             "--alphas", "0:2:1", "--m-max", "2"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["inputs"]["alphas"] == [0.0, 1.0, 2.0]
        # 2 betas x 3 alphas x 5 multisets of sizes 1 and 2 over 2 indices
        assert rep["result"]["scanned"] == 2 * 3 * 5


class TestEigenvalueFloor:
    # check-id reads a spectrum against psd_eigh's floor, as scan, sample
    # and check-assoc do, so no two of them contradict each other

    def test_id_and_scan_both_fail_below_the_floor(self, capsys, tmp_path):
        # eigenvalue -5e-11 is within the floor, so no certificate may hold;
        # the scan's witness at alpha 0 is E psi_1 = -5e-12
        path = tmp_path / "upper.csv"
        path.write_text("1,0.5\n0,-5e-11\n")
        for argv in (["check-id", "--input", path], ["scan", "--input", path]):
            code, out, _ = run_cli(argv, capsys)
            assert code == 1, argv
            assert json.loads(out)["result"]["verdict"]["witness"]["indices"] == [1], argv

    def test_id_is_open_where_sample_accepts(self, capsys, tmp_path):
        path = tmp_path / "near.csv"
        path.write_text("1,1.0000000005\n1.0000000005,1\n")
        assert run_cli(["check-id", "--input", path], capsys)[0] == 4
        assert run_cli(["sample", "--kernel", path, "--n", "10",
                        "--out", tmp_path / "x.bin"], capsys)[0] == 0


class TestGreen:
    def test_gen_writes_potential(self, matrices, capsys, tmp_path):
        out_csv = tmp_path / "green.csv"
        code, _, _ = run_cli(["green", "gen", "--chain", matrices["chain2"],
                              "--out", str(out_csv)], capsys)
        assert code == 0
        g = load_matrix(out_csv)
        np.testing.assert_allclose(g.entries,
                                   [[4 / 3, 2 / 3], [2 / 3, 4 / 3]],
                                   rtol=1e-14)

    def test_gen_stdout_csv(self, matrices, capsys):
        code, out, _ = run_cli(["green", "gen", "--chain",
                                matrices["chain2"]], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 2  # bare CSV, two rows

    def test_check_verdicts(self, matrices, capsys):
        code, _, _ = run_cli(["green", "check", "--input",
                              matrices["green2"]], capsys)
        assert code == 0
        code, out, _ = run_cli(["green", "check", "--input",
                                matrices["tri"]], capsys)
        assert code == 1
        rep = json.loads(out)
        assert rep["result"]["verdict"]["witness"]["entry"] == [0, 2]

    @pytest.mark.parametrize("scale", [1.0, 1e11])
    def test_tridiagonal_exits_one_at_any_scale(self, scale, capsys, tmp_path):
        path = tmp_path / "tri.csv"
        save_matrix(kernel(scale * np.array(TRI3)), path)
        for argv in (["green", "check", "--input", path],
                     ["green", "power", "--input", path, "--beta", "2",
                      "--out", tmp_path / "power.csv"],
                     ["check-id", "--input", path]):
            assert run_cli(argv, capsys)[0] == 1, argv

    def test_green_and_id_both_fail_on_an_inverse_entry_just_above_zero(
            self, capsys, tmp_path):
        # condition number about 2: h(1,2) = 5e-11 closes an odd sign cycle,
        # so G is not ID and so not Green, and both verdicts must say so
        h = np.array([[1, -.3, -.3], [-.3, 1, 5e-11], [-.3, 5e-11, 1]])
        g = np.linalg.inv(h)
        path = tmp_path / "f7.csv"
        save_matrix(kernel(0.5 * (g + g.T)), path)
        for argv in (["green", "check", "--input", path], ["check-id", "--input", path]):
            assert run_cli(argv, capsys)[0] == 1, argv

    def test_near_recurrent_walk_is_open_not_refuted(self, capsys, tmp_path):
        # the walk's potential has cond 1.5e9, and invert refuses it: a Green
        # kernel that neither green gen nor check-id may refute or crash on
        chain = tmp_path / "walk.csv"
        save_matrix(kernel(0.5 * (1 - 1e-9) * (np.ones((3, 3)) - np.eye(3))), chain)
        out_csv = tmp_path / "walk-green.csv"
        assert run_cli(["green", "gen", "--chain", chain, "--out", out_csv], capsys)[0] == 4
        assert run_cli(["check-id", "--input", out_csv], capsys)[0] == 4

    def test_power(self, matrices, capsys, tmp_path):
        out_csv = tmp_path / "pow.csv"
        code, _, _ = run_cli(["green", "power", "--input", matrices["green2"],
                              "--beta", "2", "--out", str(out_csv)], capsys)
        assert code == 0
        g = load_matrix(out_csv)
        np.testing.assert_allclose(g.entries,
                                   [[16 / 9, 4 / 9], [4 / 9, 16 / 9]],
                                   rtol=1e-14)

    def test_plus_c(self, matrices, capsys):
        code, _, _ = run_cli(["green", "plus-c", "--input",
                              matrices["id2"]], capsys)
        assert code == 0
        code, out, _ = run_cli(["green", "plus-c", "--input",
                                matrices["tri"]], capsys)
        assert code == 1
        rep = json.loads(out)
        assert rep["result"]["verdict"]["witness"]["c"] == 0.5

    def test_restrict(self, matrices, capsys, tmp_path):
        out_csv = tmp_path / "sub.csv"
        code, _, _ = run_cli(["green", "restrict", "--input", matrices["tri"],
                              "--keep", "0,2", "--out", str(out_csv)], capsys)
        assert code == 0
        g = load_matrix(out_csv)
        np.testing.assert_allclose(g.entries, np.eye(2))

    def test_restrict_bad_index(self, matrices, capsys):
        code, _, err = run_cli(["green", "restrict", "--input",
                                matrices["tri"], "--keep", "0,7"], capsys)
        assert code == 2


class TestSample:
    def test_batch_file_round_trip(self, matrices, capsys, tmp_path):
        out = tmp_path / "batch.bin"
        code, _, _ = run_cli(["sample", "--kernel", matrices["g2"],
                              "--k", "2", "--n", "250", "--seed", "5",
                              "--out", str(out)], capsys)
        assert code == 0
        batch = load_batch(out)
        assert batch.draws.shape == (250, 2)
        assert batch.kind == "permanental"

    @pytest.mark.parametrize("n", ["10", "20000"], ids=["one-block", "pooled-blocks"])
    def test_overflow_exits_three_and_leaves_out_alone(self, n, tmp_path, capsys,
                                                        monkeypatch):
        # the batch is streamed to a temporary file beside --out, which an
        # overflowing block removes; --out itself is never opened
        import permacheck.sampler

        monkeypatch.setattr(permacheck.sampler, "_WORKERS", 2)
        huge = tmp_path / "huge.csv"
        save_matrix(kernel(1e308 * np.eye(2)), huge)
        work = tmp_path / "work"
        work.mkdir()
        out = work / "x.bin"
        for before in (None, b"an earlier batch"):
            if before is not None:
                out.write_bytes(before)
            code, stdout, err = run_cli(["sample", "--kernel", huge, "--n", n,
                                         "--out", out], capsys)
            assert (code, stdout) == (3, "")
            assert json.loads(err)["error"] == "NonFiniteError"
            assert (out.read_bytes() if out.exists() else None) == before
            assert [p.name for p in work.iterdir()] == ([] if before is None else ["x.bin"])

    @pytest.mark.parametrize("n", [1, 10, 8193])
    def test_ess_is_the_batch_ess(self, n, matrices, tmp_path, capsys):
        spec = permacheck.PermanentalSpec(load_matrix(matrices["g2"]), 2.0)
        batch = permacheck.sample_permanental(spec, n, 1)
        report = tmp_path / "r.json"
        code, _, _ = run_cli(["sample", "--kernel", matrices["g2"], "--n", str(n),
                              "--seed", "1", "--out", tmp_path / "s.bin",
                              "--report", report], capsys)
        assert code == 0
        assert json.loads(report.read_text())["result"]["ess"] == batch.ess
        assert load_batch(tmp_path / "s.bin").ess == batch.ess

    def test_fifo_out_is_written_in_place(self, matrices, tmp_path, capsys):
        # a FIFO, like a device, cannot be replaced by a new file: sample
        # writes through it, as it writes through a symlink
        work = tmp_path / "work"
        work.mkdir()
        fifo = work / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code, _, _ = run_cli(["sample", "--kernel", matrices["g2"], "--n", "20000",
                              "--seed", "4", "--out", fifo], capsys)
        reader.join(timeout=60)
        assert code == 0
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert [p.name for p in work.iterdir()] == ["pipe"]
        want = tmp_path / "want.bin"
        spec = permacheck.PermanentalSpec(load_matrix(matrices["g2"]), 2.0)
        save_batch(permacheck.sample_permanental(spec, 20000, 4), want)
        assert got == [want.read_bytes()]

    def test_device_out_is_written_in_place(self, matrices, tmp_path, capsys, monkeypatch):
        # /dev/null cannot be replaced by a new file: the batch is sampled in
        # memory and written through the device, and no file is left anywhere
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        before = set(os.listdir("/dev"))
        code, _, _ = run_cli(["sample", "--kernel", matrices["g2"], "--n", "20000",
                              "--seed", "4", "--out", "/dev/null", "--report", "r.json"],
                             capsys)
        assert code == 0
        assert json.loads((work / "r.json").read_text())["result"]["n_draws"] == 20000
        assert set(os.listdir("/dev")) - before == set()
        assert [p.name for p in work.iterdir()] == ["r.json"]

    def test_seed_comes_only_from_the_option(self, matrices, tmp_path):
        # --seed is the only way in: its default is the defaults table's
        # seed, and an environment variable that once took its place is ignored
        files = []
        for tag, seed_args in (("env", []), ("option", ["--seed", "20260814"])):
            out, report = tmp_path / f"{tag}.bin", tmp_path / f"{tag}.json"
            cmd = [sys.executable, "-m", "permacheck.cli", "sample",
                   "--kernel", matrices["g2"], "--k", "1", "--n", "100",
                   "--out", str(out), "--report", str(report)] + seed_args
            proc = subprocess.run(cmd, capture_output=True,
                                  env=dict(os.environ, PERMACHECK_SEED="777"))
            assert proc.returncode == 0, proc.stderr
            files.append(out.read_bytes())
            assert json.loads(report.read_text())["inputs"]["seed"] == 20260814
        assert files[0] == files[1]


_COMMANDS_PROBE = """
import json
import os
import sys
if len(sys.argv) > 2:  # pinned to this one CPU before permacheck counts its workers
    os.sched_setaffinity(0, {int(sys.argv[2])})
import permacheck.sampler
from permacheck.cli import parse_and_dispatch
for argv in json.loads(sys.argv[1]):
    assert parse_and_dispatch(argv) == 0, argv
print(permacheck.sampler._WORKERS)
"""


class TestThreadCount:
    def test_reports_do_not_depend_on_blas_threads(self, matrices, tmp_path):
        # a BLAS dot over all N draws splits its sum across threads, so
        # covariances once moved in the last bits with OPENBLAS_NUM_THREADS;
        # a child pinned to one CPU runs the sampler and the association
        # statistics on one worker, the others on one per CPU they may use
        g4 = tmp_path / "g4.csv"
        save_matrix(kernel(np.linalg.inv(2.3 * np.eye(4) - 0.3)), g4)
        # the probe runs in each output directory, so it needs an absolute path
        package_root = str(Path(permacheck.__file__).parents[1])
        cpu = min(os.sched_getaffinity(0))
        outputs = []
        for threads, pin in ((1, []), (2, []), (2, [str(cpu)])):
            out = tmp_path / f"threads{threads}{'-pinned' if pin else ''}"
            out.mkdir()
            # relative output paths, since reports echo them
            argvs = [["check-assoc", "--kernel", str(g), "--k", "1", "--n", "2e4",
                      "--seed", "7", "--report", f"assoc{n}.json"]
                     for n, g in ((2, matrices["g2"]), (4, g4))]
            argvs.append(["sample", "--kernel", str(g4), "--k", "2", "--n", "2e4",
                          "--seed", "7", "--out", "s.bin", "--report", "sample.json"])
            # 25 row blocks, on the pool
            argvs.append(["sample", "--kernel", str(g4), "--k", "2", "--n", "2e5",
                          "--seed", "7", "--out", "big.bin", "--report", "big.json"])
            proc = subprocess.run([sys.executable, "-c", _COMMANDS_PROBE, json.dumps(argvs),
                                   *pin],
                                  capture_output=True, text=True, cwd=out,
                                  env=dict(os.environ, PYTHONPATH=package_root,
                                           OPENBLAS_NUM_THREADS=str(threads)))
            assert proc.returncode == 0, proc.stderr
            if pin:
                assert proc.stdout.split() == ["1"]
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) == 6
        assert outputs[0] == outputs[1] == outputs[2]


class TestChecks:
    def test_assoc_small_run(self, matrices, capsys):
        code, out, _ = run_cli(["check-assoc", "--kernel", matrices["g2"],
                                "--k", "1", "--n", "20000", "--seed", "6"],
                               capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["result"]["seed"] == 6
        assert rep["result"]["n_draws"] == 20000

    def test_assoc_jackknife_is_finite_at_large_scale(self, tmp_path, capsys):
        # the squared deviations of the delete-block covariances once
        # overflowed at 1e150 and left se = inf, z = 0 and a RuntimeWarning
        worst = []
        for c in (1.0, 1e150):
            path = tmp_path / "g.csv"
            save_matrix(kernel(c * np.array([[1.0, 0.5], [0.5, 1.0]])), path)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(["check-assoc", "--kernel", path,
                                          "--n", "20000", "--seed", "1"], capsys)
            assert (code, err) == (0, "")
            worst.append(min(row["z"] for row in json.loads(out)["result"]["pairs"]))
        assert worst[1] == pytest.approx(worst[0], rel=1e-14)

    @pytest.mark.parametrize("unit, scaled", [
        (math.ldexp(1e150, -498), 1e150), (1.0, math.ldexp(1.0, 498))])
    def test_assoc_soft_orthant_follows_the_kernel_scale(self, unit, scaled, tmp_path,
                                                         capsys):
        # the soft orthant's slope is divided by the 4^j of _pair_lattice, so
        # 4^249 c G, whose largest variance c lies in [0.5, 2), gets c G's z
        # for every pair.  With the absolute slope the soft orthant pairs'
        # z moved by up to 46% (1e150 = 4^249 * 1.222) and 54% (4^249).
        z = []
        for c in (unit, scaled):
            path = tmp_path / "g.csv"
            save_matrix(kernel(c * np.array([[1.0, 0.5], [0.5, 1.0]])), path)
            code, out, _ = run_cli(["check-assoc", "--kernel", path,
                                    "--n", "20000", "--seed", "1"], capsys)
            assert code == 0
            z.append({(row["f"], row["h"]): row["z"]
                      for row in json.loads(out)["result"]["pairs"]})
        assert len(z[0]) == 28 and z[0].keys() == z[1].keys()
        for pair, value in z[0].items():
            assert z[1][pair] == pytest.approx(value, rel=1e-12), pair

    def test_scan_monotone(self, matrices, capsys):
        code, out, _ = run_cli(["scan-monotone", "--kernel", matrices["g2"],
                                "--alphas", "0:2:0.5"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["verdict"]["status"] == "holds"

    def test_scan_monotone_default_grid_is_the_library_grid(self, matrices, capsys):
        code, out, _ = run_cli(["scan-monotone", "--kernel", matrices["tri"]], capsys)
        rep = json.loads(out)
        assert rep["inputs"]["alphas"] is None
        want = resolvent_monotonicity_scan(load_matrix(matrices["tri"]))
        assert (code, rep["result"]["verdict"]) == (0, want.to_dict())
        assert want.detail.endswith("over 25 grid points")

    # PSD kernels with a zero-variance coordinate, or with a correlation
    # rounded just past 1: the screen accepts them, so the scan answers
    @pytest.mark.parametrize("g", [
        [[1.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]],
        [[1.0, 1 + 1e-10], [1 + 1e-10, 1.0]],
    ], ids=["zero-last", "zero-first", "rho-past-one"])
    def test_scan_monotone_psd_edge_kernels_hold(self, g, capsys, tmp_path):
        path = tmp_path / "g.csv"
        save_matrix(kernel(g), path)
        code, out, err = run_cli(["scan-monotone", "--kernel", path], capsys)
        assert code == 0, err
        assert json.loads(out)["result"]["verdict"]["status"] == "holds"

    def test_scan_monotone_random_scalings(self, matrices, capsys):
        code, out, _ = run_cli(["scan-monotone", "--kernel", matrices["g2"],
                                "--alphas", "0:1:0.5",
                                "--scalings", "random:3", "--seed", "7"],
                               capsys)
        assert code == 0

    def test_shifted_order(self, matrices, capsys):
        code, out, _ = run_cli(["shifted-order", "--kernel",
                                matrices["green2"],
                                "--r-pairs", "1,0.5;2,1"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert len(rep["result"]["per_pair"]) == 2
        code, _, _ = run_cli(["shifted-order", "--kernel", matrices["neg2"],
                              "--r-pairs", "1,0.5"], capsys)
        assert code == 1

    def test_check_fkg(self, matrices, capsys):
        code, _, _ = run_cli(["check-fkg", "--kernel", matrices["g2"]], capsys)
        assert code == 0
        code, _, _ = run_cli(["check-fkg", "--kernel", matrices["g2"],
                              "--shift", "0.5"], capsys)
        assert code == 0

    @pytest.mark.parametrize("j", [-150, -80, 80, 150])
    def test_pair_lattices_do_not_depend_on_scale(self, j, tmp_path, capsys):
        # 4^j G with shifts 2^j r is the same pair in other units: the same
        # status and witness, its points multiplied by 4^j.  Computed on the
        # unscaled pair, the densities overflowed or underflowed, or moved
        # in their last bits.
        def verdict(g, argv):
            save_matrix(kernel(g), tmp_path / "g.csv")
            code, out, _ = run_cli(argv + ["--kernel", tmp_path / "g.csv"], capsys)
            return code, json.loads(out)["result"]["verdict"]

        def shifts(rs, k):
            return ",".join(repr(math.ldexp(r, k)) for r in rs)

        neg, pos = [[1.0, -0.5], [-0.5, 1.0]], [[1.0, 0.3], [0.3, 1.5]]
        for g, argv in ((neg, lambda k: ["check-fkg", "--shift", shifts([0.5], k)]),
                        (pos, lambda k: ["check-fkg", "--shift", shifts([0.0], k)]),
                        (neg, lambda k: ["shifted-order", "--r-pairs", shifts([1.0, 0.5], k)]),
                        (pos, lambda k: ["shifted-order", "--r-pairs", shifts([2.0, 1.0], k)])):
            code, unit = verdict(g, argv(0))
            scaled_code, scaled = verdict(np.ldexp(g, 2 * j), argv(j))
            assert (scaled_code, scaled["status"]) == (code, unit["status"])
            if code == 1:
                expected = dict(unit["witness"])
                for key in ("x", "y"):
                    expected[key] = [math.ldexp(t, 2 * j) for t in expected[key]]
                if "r" in expected:
                    expected.update(r=math.ldexp(1.0, j), r_prime=math.ldexp(0.5, j))
                assert scaled["witness"] == expected

    @pytest.mark.parametrize("k", range(16))
    def test_large_shifts_follow_the_sign_rule_or_exit_three(self, k, matrices, capsys):
        # for a large shift (eta + r)^2 is an increasing transform of eta,
        # so the lattice holds for c > 0 and fails for c < 0 (Pitt); past
        # the grid's range, |r| / sqrt(variance) = 2^33, the answer is 3.
        # Uncapped, shift 1e14 once made [[1,.5],[.5,1]] fail.
        for name, sign_rule in (("g2", 0), ("neg2", 1)):
            code, _, err = run_cli(["check-fkg", "--kernel", matrices[name],
                                    "--shift", f"1e{k}"], capsys)
            assert code == (sign_rule if 10 ** k <= 2 ** 33 else 3), (name, err)

    def test_check_shifted_pair(self, capsys):
        code, _, _ = run_cli(["check-shifted-pair", "--vx", "1", "--c", "0",
                              "--vy", "1"], capsys)
        assert code == 0
        code, out, _ = run_cli(["check-shifted-pair", "--vx", "1",
                                "--c", "-0.5", "--vy", "1"], capsys)
        assert code == 1
        code, _, err = run_cli(["check-shifted-pair", "--vx", "1",
                                "--c", "1.5", "--vy", "1"], capsys)
        assert code == 3


class TestRender:
    def test_json_round_trip(self, matrices, capsys, tmp_path):
        rpt = tmp_path / "r.json"
        run_cli(["check-id", "--input", matrices["id2"],
                 "--report", str(rpt)], capsys)
        code, out, _ = run_cli(["render", "--input", str(rpt)], capsys)
        assert code == 0
        assert out == rpt.read_text()

    def test_table_contains_verdict(self, matrices, capsys, tmp_path):
        rpt = tmp_path / "r.json"
        run_cli(["check-id", "--input", matrices["tri"],
                 "--report", str(rpt)], capsys)
        code, out, _ = run_cli(["render", "--input", str(rpt),
                                "--format", "table"], capsys)
        assert code == 0
        assert "command: check-id" in out
        assert "fails" in out

    def test_table_lists_the_association_pairs(self, matrices, capsys, tmp_path):
        rpt = tmp_path / "assoc.json"
        run_cli(["check-assoc", "--kernel", matrices["g2"], "--n", "2e4",
                 "--report", rpt], capsys)
        pairs = json.loads(rpt.read_text())["result"]["pairs"]
        code, out, _ = run_cli(["render", "--input", rpt, "--format", "table"], capsys)
        assert code == 0 and pairs
        rows = out.split("f\th\tcov\tse\tz\n", 1)[1].splitlines()[:len(pairs)]
        assert rows == [f"{p['f']}\t{p['h']}\t{p['cov']:.6g}\t{p['se']:.6g}\t{p['z']:.3f}"
                        for p in pairs]

    def test_schema_mismatch_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 99, "command": "x", "result": {}}')
        code, _, err = run_cli(["render", "--input", str(bad)], capsys)
        assert code == 2

    # true and 1.0 equal the schema 1 in Python, and the table renderer
    # indexed the next four, each a bare Python error (exit 3); the JSON
    # renderer once passed any object with schema 1, the table one any
    # command and a missing result
    @pytest.mark.parametrize("text, fmt, field", [
        ('{"schema": true, "command": "x", "result": {}}', "json", "schema"),
        ('{"schema": 1.0, "command": "x", "result": {}}', "json", "schema"),
        ('{"schema": 1, "command": "x", "result": []}', "table", "'result'"),
        ('{"schema": 1, "command": "x", "result": {"verdict": '
         '{"status": "fails", "witness": [1, 2]}}}', "table", "'result.verdict.witness'"),
        ('{"schema": 1, "command": "x", "result": {"pairs": [{"f": "a"}]}}', "table",
         "'result.pairs[0]'"),
        ('{"schema": 1, "command": "x", "result": {"pairs": [1]}}', "table",
         "'result.pairs[0]'"),
        ('{"schema": 1, "command": "x", "result": []}', "json", "'result'"),
        ('{"schema": 1}', "json", "'command'"),
        ('{"schema": 1}', "table", "'command'"),
        ('{"schema": 1, "command": 5, "result": {}}', "json", "'command'"),
        ('{"schema": 1, "command": 5, "result": {}}', "table", "'command'"),
        ('{"schema": 1, "command": "x"}', "json", "'result'"),
        ('{"schema": 1, "command": "x"}', "table", "'result'"),
    ], ids=["schema true", "schema 1.0", "result list", "witness list",
            "row without h", "row not an object", "json result list",
            "json no command", "table no command", "json command number",
            "table command number", "json no result", "table no result"])
    def test_malformed_report_exits_two_naming_the_field(self, text, fmt, field,
                                                         capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = run_cli(["render", "--input", str(bad), "--format", fmt], capsys)
        assert (code, out) == (2, ""), err
        assert field in _one_json_error(err)["message"]

    def test_render_function_rejects_unknown_format(self):
        from permacheck import InputFormatError
        with pytest.raises(InputFormatError):
            report_render({"schema": 1, "command": "x", "result": {}}, fmt="yaml")


# one run of every reporting leaf, keyed by its subcommand path
REPORTING = {
    "check-id": ["check-id", "--input", "{g2}"],
    "perm": ["perm", "--input", "{perm2}", "--beta", "1"],
    "scan": ["scan", "--input", "{g2}", "--m-max", "2"],
    "green gen": ["green", "gen", "--chain", "{chain2}", "--out", "{dir}/gen.csv"],
    "green check": ["green", "check", "--input", "{green2}"],
    "green power": ["green", "power", "--input", "{green2}", "--beta", "2",
                    "--out", "{dir}/power.csv"],
    "green plus-c": ["green", "plus-c", "--input", "{green2}"],
    "green restrict": ["green", "restrict", "--input", "{tri}", "--keep", "0,2",
                       "--out", "{dir}/sub.csv"],
    "sample": ["sample", "--kernel", "{g2}", "--n", "10", "--out", "{dir}/x.bin"],
    "check-assoc": ["check-assoc", "--kernel", "{g2}", "--n", "200"],
    "scan-monotone": ["scan-monotone", "--kernel", "{g2}"],
    "shifted-order": ["shifted-order", "--kernel", "{green2}", "--r-pairs", "1,0.5"],
    "check-fkg": ["check-fkg", "--kernel", "{g2}"],
    "check-shifted-pair": ["check-shifted-pair", "--vx", "1", "--c", "0.5", "--vy", "1"],
}


def _leaf_paths(parser, path=()):
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [" ".join(path)]
    return [leaf for a in subs for name, child in a.choices.items()
            for leaf in _leaf_paths(child, path + (name,))]


class TestWiring:
    def test_leaves_are_the_reporting_commands_and_render(self):
        assert sorted(_leaf_paths(_build_parser())) == sorted([*REPORTING, "render"])
        assert len(REPORTING) + 1 == 15

    @pytest.mark.parametrize("path", sorted([*REPORTING, "render"]))
    def test_help_lists_report_except_for_render(self, path, capsys):
        code, out, err = run_cli(path.split() + ["--help"], capsys)
        assert (code, err) == (0, "")
        assert ("--report" in out) == (path != "render")

    @pytest.mark.parametrize("path", sorted(REPORTING))
    def test_report_names_the_subcommand_path(self, path, matrices, capsys, tmp_path):
        report = tmp_path / "report.json"
        argv = [a.format(**matrices) for a in REPORTING[path]]
        code, _, err = run_cli(argv + ["--report", report], capsys)
        assert (code, err) == (0, "")
        assert json.loads(report.read_text())["command"] == path

    def test_readme_cli_table_matches_the_parser(self):
        # each row of the README's CLI reference names a leaf and its options
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("## CLI reference", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `([^`]*)` \|", table, flags=re.MULTILINE)
        documented = {}
        for usage in rows:
            path = " ".join(re.match(r"[a-z -]*?(?= --|$)", usage).group(0).split())
            documented[path] = set(re.findall(r"--[a-z][a-z-]*", usage))
        leaves = {}
        for path in _leaf_paths(_build_parser()):
            leaf = _build_parser()
            for name in path.split():
                sub = next(a for a in leaf._actions
                           if isinstance(a, argparse._SubParsersAction))
                leaf = sub.choices[name]
            leaves[path] = {o for a in leaf._actions for o in a.option_strings
                            if o.startswith("--")} - {"--help", "--report"}
        assert len(rows) == len(documented) == 15
        assert documented == leaves

    def test_plus_c_default_grid_is_the_library_grid(self, matrices, capsys):
        results = []
        for grid in ([], ["--grid", "0.5,1.0,2.0"]):
            code, out, _ = run_cli(["green", "plus-c", "--input", matrices["tri"]] + grid,
                                   capsys)
            assert code == 1
            results.append(json.loads(out))
        assert results[0]["inputs"]["grid"] is None
        assert results[1]["inputs"]["grid"] == "0.5,1.0,2.0"
        assert results[0]["result"]["per_c"] == results[1]["result"]["per_c"]
        assert [row["c"] for row in results[0]["result"]["per_c"]] == [0.5, 1.0, 2.0]


class TestReportShape:
    def test_defaults_echoed(self, matrices, capsys):
        _, out, _ = run_cli(["check-id", "--input", matrices["id2"]], capsys)
        rep = json.loads(out)
        assert rep["schema"] == 1
        assert "defaults" in rep and "default_seed" in rep["defaults"]
        assert "threads" not in json.dumps(rep)

    def test_defaults_table_lists_every_constant(self):
        from permacheck import defaults

        table = defaults.defaults_table()
        constants = {name.lower() for name in vars(defaults) if name.isupper()}
        assert set(table) == constants - {"schema_version"}
        assert json.loads(json.dumps(table)) == table  # tuples became lists
        assert table["beta_grid"] == list(defaults.BETA_GRID)

    def test_sorted_keys(self, matrices, capsys):
        _, out, _ = run_cli(["check-id", "--input", matrices["id2"]], capsys)
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
