"""The pytest settings in ``pyproject.toml`` turn every warning into an error
but one: the ``DeprecationWarning`` that Hypothesis's report hook raises
through ``mypy_extensions`` while it prints a falsifying example. Without that
filter a failing property test ends the session with an ``INTERNALERROR``
and no example."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_runs_after_the_failure():
    pass


def test_other_deprecation():
    warnings.warn("some other deprecation", DeprecationWarning)
'''


def test_failing_property_test_prints_its_example_and_the_session_runs_on(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "Falsifying example: test_fails(" in result.stdout
    assert "FAILED test_probe.py::test_other_deprecation - DeprecationWarning" in result.stdout
    assert result.stdout.splitlines()[-1].startswith("2 failed, 1 passed")
