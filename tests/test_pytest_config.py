"""The suite's pytest settings report a failing property instead of aborting."""

import os
import subprocess
import sys

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, deadline=None, database=None)
@given(st.integers())
def test_fails(x):
    assert x != x
"""


def test_a_failing_hypothesis_property_is_reported_as_a_failure(tmp_path):
    # On a failure hypothesis's plugin imports libcst, which warns. Unless
    # pyproject.toml ignores that warning, filterwarnings = ["error"] turns it
    # into an INTERNALERROR (exit code 3) that hides the failure.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", PYPROJECT, "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
