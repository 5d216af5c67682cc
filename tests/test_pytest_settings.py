"""The repository's pytest settings: a failing property test ends as one
failure, and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x != x


def test_a_passing_test():
    pass
'''


def test_a_failing_given_test_does_not_end_the_session(tmp_path):
    """With ``filterwarnings = ["error"]`` alone, the warning that the
    hypothesis plugin raises while reporting a failure turned into an
    INTERNALERROR (exit code 3), and no later test ran."""
    (tmp_path / "test_two.py").write_text(TESTS)
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode == 1, child.stdout + child.stderr
    assert "1 failed, 1 passed" in child.stdout, child.stdout
