"""Smoke test of the benchmark harness, so that it cannot rot unnoticed.

One short run of ``perfbench/run.py`` on the smallest listed workload,
closed-loop (``--trace 0``) and traced in-process (``--trace 1``): every
simulate, fuse and eval run must exit 0 and pass the reference checks. The
traced run also fails when a function the spans wrap or read is renamed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_harness_runs_clean(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curve-160", "--seed", "42",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] > 0
