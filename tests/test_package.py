"""Package-level checks: the public names each module exports."""

import importlib

import pytest

MODULES = ["channel", "cli", "estimator", "harness", "planner", "spatial", "uncertainty"]


@pytest.mark.parametrize("name", ["aerosurvey"] + [f"aerosurvey.{m}" for m in MODULES])
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
