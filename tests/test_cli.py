import json
import os
import subprocess
import sys

import numpy as np
import pytest

from permacheck import (
    TransientChain,
    green_from_chain,
    load_batch,
    load_matrix,
    save_matrix,
    kernel,
)
from permacheck.cli import parse_and_dispatch, report_render

TRI3 = [[1.0, 0.6, 0.0], [0.6, 1.0, 0.6], [0.0, 0.6, 1.0]]


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
    "check-id beta nan": (["check-id", "--input", "{g2}", "--beta", "nan"], 2),
    "perm beta nan": (["perm", "--input", "{perm2}", "--beta", "nan"], 2),
    "perm beta inf": (["perm", "--input", "{perm2}", "--beta", "inf"], 2),
    "sample n nan": (["sample", "--kernel", "{g2}", "--n", "nan",
                      "--out", "{dir}/x.bin"], 2),
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

    @pytest.mark.parametrize("beta", ["-1", "0"])
    def test_check_id_beta_must_be_positive(self, beta, matrices, capsys):
        code, out, err = run_cli(["check-id", "--input", matrices["tri"],
                                  "--beta", beta], capsys)
        assert (code, out) == (2, "")
        assert err == ('{"error": "InputFormatError", '
                       '"message": "index beta must be positive"}\n')

    @pytest.mark.parametrize("name", ["negdiag2", "indefinite2"])
    def test_scan_monotone_non_psd_kernel_is_not_psd_error(self, name, matrices, capsys):
        code, out, err = run_cli(["scan-monotone", "--kernel", matrices[name]], capsys)
        assert (code, out) == (3, "")
        assert _one_json_error(err)["error"] == "NotPSDError"

    def test_unexpected_exception_is_three(self, monkeypatch, capsys):
        import permacheck.cli as cli

        def broken(args):
            raise AttributeError("boom")

        monkeypatch.setitem(cli._HANDLERS, "check-shifted-pair", broken)
        code, _, err = run_cli(["check-shifted-pair", "--vx", "1", "--c", "0",
                                "--vy", "1"], capsys)
        assert code == 3
        assert _one_json_error(err) == {"error": "AttributeError", "message": "boom"}

    @pytest.mark.parametrize("value", ["-3", "x", str(2 ** 64)])
    def test_bad_env_seed_is_two(self, value, matrices, monkeypatch, capsys, tmp_path):
        monkeypatch.setenv("PERMACHECK_SEED", value)
        code, _, err = run_cli(["sample", "--kernel", matrices["g2"], "--n", "10",
                                "--out", str(tmp_path / "x.bin")], capsys)
        assert code == 2
        assert "PERMACHECK_SEED" in _one_json_error(err)["message"]

    def test_largest_seed_accepted(self, matrices, capsys, tmp_path):
        code, out, _ = run_cli(["sample", "--kernel", matrices["g2"], "--n", "10",
                                "--seed", str(2 ** 64 - 1),
                                "--out", str(tmp_path / "x.bin")], capsys)
        assert code == 0
        assert json.loads(out)["result"]["seed"] == 2 ** 64 - 1


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
        assert saved["inputs"]["exponent"] == "cycles"

    def test_signature_exponent_flag(self, matrices, capsys):
        code, out, _ = run_cli(
            ["perm", "--input", matrices["perm2"], "--beta", "2",
             "--exponent", "signature"], capsys)
        assert code == 0
        # even-cycle part 4, odd part 6: 2*4 + 6/2
        assert float(out.strip()) == pytest.approx(11.0)


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

    def test_env_seed_reproducible(self, matrices, tmp_path):
        files = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.bin"
            env = dict(os.environ, PERMACHECK_SEED="777")
            cmd = [sys.executable, "-m", "permacheck.cli", "sample",
                   "--kernel", matrices["g2"], "--k", "1", "--n", "100",
                   "--out", str(out)]
            proc = subprocess.run(cmd, capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_explicit_seed_beats_env(self, matrices, tmp_path):
        outs = []
        for seed_args, tag in ((["--seed", "1"], "x"), ([], "y")):
            out = tmp_path / f"{tag}.bin"
            env = dict(os.environ, PERMACHECK_SEED="2")
            cmd = [sys.executable, "-m", "permacheck.cli", "sample",
                   "--kernel", matrices["g2"], "--k", "1", "--n", "100",
                   "--out", str(out)] + seed_args
            proc = subprocess.run(cmd, capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] != outs[1]


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


class TestReportShape:
    def test_defaults_echoed(self, matrices, capsys):
        _, out, _ = run_cli(["check-id", "--input", matrices["id2"]], capsys)
        rep = json.loads(out)
        assert rep["schema"] == 1
        assert "defaults" in rep and "default_seed" in rep["defaults"]
        assert "threads" not in json.dumps(rep)

    def test_sorted_keys(self, matrices, capsys):
        _, out, _ = run_cli(["check-id", "--input", matrices["id2"]], capsys)
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
