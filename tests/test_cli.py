import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from permacheck import (
    TransientChain,
    green_from_chain,
    load_batch,
    load_matrix,
    resolvent_monotonicity_scan,
    save_matrix,
    kernel,
)
from permacheck.cli import _build_parser, parse_and_dispatch, report_render

TRI3 = [[1.0, 0.6, 0.0], [0.6, 1.0, 0.6], [0.0, 0.6, 1.0]]
MIX3 = [[1.0, -0.31, 0.58], [-0.31, 1.0, 0.58], [0.58, 0.58, 1.0]]
PSD_SINGULAR3 = [[2.0, 1.0, 1.0], [1.0, 2.0, -1.0], [1.0, -1.0, 2.0]]
NONSYM3 = [[2.0, 0.5, 0.2], [0.3, 2.0, 0.4], [0.1, 0.6, 2.0]]


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
    "scan betas nan": (["scan", "--input", "{g2}", "--betas", "0.5,nan"], 2),
    "check-fkg shift inf": (["check-fkg", "--kernel", "{g2}", "--shift", "inf"], 2),
    "restrict keep a": (["green", "restrict", "--input", "{tri}", "--keep", "0,a"], 2),
    "render JSON list": (["render", "--input", "{list_report}"], 2),
    "matrix entry a": (["check-id", "--input", "{text_entry}"], 2),
    "matrix dim x": (["check-id", "--input", "{text_dim}"], 2),
    "matrix not UTF-8": (["check-id", "--input", "{not_utf8}"], 2),
    "report not UTF-8": (["render", "--input", "{not_utf8}"], 2),
    "missing option": (["check-id"], 2),
    # kernels that are not PSD have no Gaussian moments to scan
    "scan-monotone negative diagonal": (["scan-monotone", "--kernel", "{negdiag2}"], 3),
    "scan-monotone indefinite": (["scan-monotone", "--kernel", "{indefinite2}"], 3),
    # a malformed pairs row raises KeyError inside the table renderer
    "render row KeyError": (["render", "--input", "{bad_rows}",
                             "--format", "table"], 3),
}


class TestBadInputs:
    @pytest.fixture
    def files(self, matrices, tmp_path):
        extra = {
            "list_report": "[1, 2]",
            "text_entry": '{"entries": [["a"]]}',
            "text_dim": '{"dim": "x", "entries": [[1.0]]}',
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
        ["check-fkg", "--kernel", "{neg2}", "--shift", "1e6"],
        ["shifted-order", "--kernel", "{neg2}", "--r-pairs", "1e6,0"],
    ])
    def test_nan_lattice_grid_is_three(self, argv, matrices, capsys):
        # the noncentral chi-square quantiles are NaN at noncentrality 1e12;
        # a lattice of NaN points has no violation, so this once said holds
        code, out, err = run_cli([a.format(**matrices) for a in argv], capsys)
        assert (code, out) == (3, "")
        assert _one_json_error(err)["error"] == "NonFiniteError"

    @pytest.mark.parametrize("argv", [
        ["check-fkg", "--kernel", "{g2}", "--shift", "1e9"],
        ["shifted-order", "--kernel", "{g2}", "--r-pairs", "1e9,0"],
    ])
    def test_huge_shift_is_three_at_once(self, argv, matrices, capsys):
        # chndtrix took about a minute at noncentrality 1e18 to return NaN
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
        # the determinant -3 was once reported as the smallest eigenvalue
        code, out, err = run_cli(argv + ["--kernel", matrices["indefinite2"]], capsys)
        assert (code, out) == (3, "")
        error = _one_json_error(err)
        assert error["error"] == "NotPositiveDefiniteError"
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
        (["check-id", "--input", "{m}"], 1e160 * np.array(NONSYM3)),
        (["scan", "--input", "{m}"], 1e300 * np.array(MIX3)),
        (["sample", "--kernel", "{m}", "--n", "10", "--out", "{dir}/x.bin"],
         1e308 * np.eye(2)),
        (["check-assoc", "--kernel", "{m}", "--n", "100"], 1e308 * np.eye(2)),
    ], ids=["perm-big-beta", "perm-huge", "power", "psd-1e110", "psd-1e160",
            "nonsym-1e160", "scan-huge", "sample-1e308", "assoc-1e308"])
    def test_value_that_is_not_finite_is_three(self, argv, entries, tmp_path, capsys):
        # each once exited 0 with inf or NaN, or 2 or 3 with the wrong error
        # and an overflow warning on stderr
        code, error = _contract_exit_code(tmp_path, capsys, argv,
                                          _json_text(np.array(entries, dtype=float)))
        assert (code, error["error"]) == (3, "NonFiniteError")

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

_RUN_PROBE = """
import sys
from permacheck.cli import parse_and_dispatch
code = parse_and_dispatch(sys.argv[1:])
print(code, "scipy.stats" in sys.modules, "scipy.special" in sys.modules)
"""


class TestStartup:
    def test_import_loads_no_scipy(self):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv, special", [
        (["check-id", "--input", "{tri}"], False),
        (["check-fkg", "--kernel", "{g2}", "--shift", "0.5"], True),
        (["sample", "--kernel", "{g2}", "--n", "100", "--seed", "3",
          "--out", "{dir}/s.bin"], True),
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

    def test_reports_identical_across_threads(self, matrices, tmp_path):
        outs = []
        for threads in (1, 2, 4):
            rpt = tmp_path / f"scan-{threads}.json"
            cmd = [sys.executable, "-m", "permacheck.cli",
                   "--threads", str(threads),
                   "scan", "--input", matrices["tri"], "--m-max", "4",
                   "--report", str(rpt)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            assert proc.returncode == 1, proc.stderr
            outs.append(rpt.read_bytes())
        assert outs[0] == outs[1] == outs[2]

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


class TestChecks:
    def test_assoc_small_run(self, matrices, capsys):
        code, out, _ = run_cli(["check-assoc", "--kernel", matrices["g2"],
                                "--k", "1", "--n", "20000", "--seed", "6"],
                               capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["result"]["seed"] == 6
        assert rep["result"]["n_draws"] == 20000

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

    def test_schema_mismatch_is_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 99, "command": "x", "result": {}}')
        code, _, err = run_cli(["render", "--input", str(bad)], capsys)
        assert code == 2

    def test_render_function_rejects_unknown_format(self):
        from permacheck import InputFormatError
        with pytest.raises(InputFormatError):
            report_render({"schema": 1}, fmt="yaml")


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
