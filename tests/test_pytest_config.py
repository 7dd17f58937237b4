"""The repository's pytest settings: a failing property test must not end the session."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 10


def test_a_passing_test_after_it():
    assert True


def test_other_warnings_are_still_errors():
    warnings.warn("still an error", DeprecationWarning)
'''


def test_a_failing_property_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr, done.stdout
    assert done.returncode == 1
    assert done.stdout.splitlines()[-1].startswith("2 failed, 1 passed"), done.stdout
    assert "FAILED test_probe.py::test_other_warnings_are_still_errors" in done.stdout
