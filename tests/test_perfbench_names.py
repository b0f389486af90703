"""The benchmark's tracer wraps package functions by name; each must exist.

perfbench/tracing.py records a missing name and leaves out every per-layer
metric computed from it, so a renamed function silently drops metrics from
the benchmark.  The module is loaded by path: perfbench is not a package.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(entry[0], entry[1]) for entry in module.WRAPPED]


@pytest.mark.parametrize("module_name,attr", _wrapped())
def test_wrapped_name_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"{module_name}.{attr} is missing"
    assert callable(owner)
