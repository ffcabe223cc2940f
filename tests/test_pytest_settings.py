"""The repo's pytest settings keep a failing property test readable."""

import subprocess
import sys
from pathlib import Path

_FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    # filterwarnings starts with "error"; a warning raised while hypothesis
    # writes its report must not turn the failure into an INTERNALERROR
    (tmp_path / "test_prop.py").write_text(_FAILING_PROPERTY)
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example: test_fails(" in proc.stdout
    assert "x=5," in proc.stdout
