import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))

from compare_outputs import file_differences, json_paths  # noqa: E402


def test_json_paths_name_each_differing_key():
    a = {"inputs": {"grid": "0.5,1.0,2.0", "input": "g.csv"},
         "result": {"per_c": [{"c": 0.5}, {"c": 1.0}], "old": 1}}
    b = {"inputs": {"grid": None, "input": "g.csv"},
         "result": {"per_c": [{"c": 0.5}, {"c": 2.0}], "new": 1}}
    assert json_paths(a, b) == [
        'inputs.grid: "0.5,1.0,2.0" -> null',
        "result.new: only in the change",
        "result.old: only in the parent",
        "result.per_c[1].c: 1.0 -> 2.0",
    ]
    assert json_paths(a, a) == []
    assert json_paths([1, 2], [1, 2, 3]) == ["(top): [1, 2] -> [1, 2, 3]"]
    assert json_paths(float("nan"), float("nan")) == []


def test_file_differences():
    assert file_differences("a.out", b"x\ny\n", b"x\ny\n") == []
    assert file_differences("a.out", b"x\ny\n", b"x\nz\n") == ["a.out: differs at line 2"]
    assert file_differences("a.err", b"x\n", b"x\ny\n") == ["a.err: 1 lines -> 2 lines"]
    assert file_differences("r.json", b'{"k": 1}', b'{"k": 2}') == ["r.json: k: 1 -> 2"]
    assert file_differences("r.json", b"{", b"}") == ["r.json: differs at line 1"]
