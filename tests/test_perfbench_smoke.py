"""Smoke test of the benchmark harness, so that it cannot rot unnoticed.

One short closed-loop run of ``perfbench/run.py`` on the smallest listed
workload: every simulate, fuse and eval child must exit 0 and pass the
reference checks.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_harness_runs_clean():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curve-160", "--seed", "42",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] > 0
