"""The benchmark's tracer wraps spdtraj names it looks up by string.

A rename in ``src/`` would make ``perfbench/run.py --trace 1`` fail with an
AttributeError, so every name it wraps must resolve.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _crossings():
    # tracer.py imports only the standard library, so it loads on its own
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.CROSSINGS


@pytest.mark.parametrize("module, name, key", _crossings())
def test_traced_name_resolves(module, name, key):
    assert callable(getattr(importlib.import_module(f"spdtraj.{module}"), name)), key
