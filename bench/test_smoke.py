"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_smoke.py

Runs ``bench/run.py --smoke``: every workload at tiny sizes, untraced and
traced.  It fails unless every metric named in BENCHMARK.json is emitted
with its unit, every output check ran at least once, and no check failed.
Takes about three minutes, almost all of it interpreter start-up.
"""

import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))


def test_smoke():
    out = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--smoke"],
                         cwd=os.path.dirname(BENCH), capture_output=True, text=True,
                         timeout=900)
    assert out.returncode == 0, out.stdout[-4000:] + out.stderr[-4000:]
    assert "smoke ok" in out.stdout
