"""The suite's own pytest configuration lets every failure report normally."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_reports_and_session_continues(tmp_path):
    """A falsified Hypothesis test is reported as failed, and later tests still run.

    Hypothesis's failure report imports modules that raise a
    ``DeprecationWarning`` on import; under ``filterwarnings = ["error"]``
    that used to end the session with INTERNALERROR at the first failure.
    """
    (tmp_path / "test_throwaway.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, strategies as st

            @given(st.integers())
            def test_falsified(x):
                assert x < 5

            def test_after():
                pass
            """
        )
    )
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_throwaway.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out
    assert result.returncode == 1, out
    assert "FAILED test_throwaway.py::test_falsified" in out
    assert "1 failed, 1 passed" in out
