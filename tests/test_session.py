"""The test session itself: a failing test fails alone, without ending the run."""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

MARKED_FAILING_PROPERTY = '''
import pytest
from hypothesis import given, strategies as st


@pytest.mark.filterwarnings("error")
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_property_test_marked_warnings_as_errors_fails_alone(tmp_path):
    # Hypothesis reports the failing example from inside pytest's report hook.
    # A warning raised as an error there ends the session with INTERNALERROR
    # (exit 3) unless this suite's conftest has already loaded what it imports.
    (tmp_path / "test_marked.py").write_text(MARKED_FAILING_PROPERTY, encoding="utf-8")
    path = [str(ROOT / "src"), str(TESTS), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "conftest",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_marked.py"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
