"""Package-level checks: exported names, what importing loads, and the test settings."""

import ast
import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import aerosurvey

MODULES = ["channel", "cli", "estimator", "harness", "planner", "spatial", "uncertainty"]


@pytest.mark.parametrize("name", ["aerosurvey"] + [f"aerosurvey.{m}" for m in MODULES])
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def _names_read_in_the_package() -> set[str]:
    """Every bare name and attribute name that code under the package reads."""
    read = set()
    for path in Path(aerosurvey.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


@pytest.mark.parametrize("name", [f"aerosurvey.{m}" for m in MODULES])
def test_every_exported_name_is_read_in_the_package(name):
    # A name that no code in the package reads has only tests for callers,
    # and code whose only callers are tests belongs in tests/. This is a
    # floor, not a proof: names are matched bare, so reading any variable or
    # attribute of the same name counts, and a field read such as
    # MetricsRow.service_error_rate would hide a function of that name.
    read = _names_read_in_the_package()
    unread = [n for n in importlib.import_module(name).__all__ if n not in read]
    assert unread == []


# The scipy subpackages the program may load: ndtr and xlogy, dsyrk, and the
# version module scipy imports itself. Anything more (scipy.signal pulls in
# stats, optimize, sparse, ...) costs hundreds of modules and tens of MB.
SCIPY_SUBPACKAGES = {"special", "linalg", "version"}


def test_import_loads_only_the_scipy_subpackages_it_uses():
    # A fresh interpreter, so that modules the test run imported do not count.
    code = (
        "import sys, aerosurvey.cli, aerosurvey.harness\n"
        "names = {m.split('.')[1] for m in sys.modules if m.startswith('scipy.')}\n"
        "print(' '.join(sorted(n for n in names if not n.startswith('_'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aerosurvey.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) <= SCIPY_SUBPACKAGES


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


def test_hypothesis_examples_have_no_deadline():
    # A stall of a shared machine must not fail an example; the profile that
    # conftest.py loads sets this once for every test.
    from hypothesis import settings

    assert settings.default.deadline is None
