"""Package-level checks: the public names each module exports, and the test settings."""

import importlib
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

MODULES = ["channel", "cli", "estimator", "harness", "planner", "spatial", "uncertainty"]


@pytest.mark.parametrize("name", ["aerosurvey"] + [f"aerosurvey.{m}" for m in MODULES])
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_failing_hypothesis_test_is_an_ordinary_failure(tmp_path):
    # The project turns warnings into errors. Hypothesis's failure report
    # imports code that warns, which must not abort the session: the failure
    # is reported and the tests after it still run.
    (tmp_path / "test_sample.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, strategies as st

            @given(st.integers())
            def test_fails(x):
                assert x < 5

            def test_after():
                pass
            """
        )
    )
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject)]
    proc = subprocess.run(
        argv + ["--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output, output
