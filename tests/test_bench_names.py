"""The benchmark tracer wraps afmgate functions by name; every name it
lists must still exist, or ``bench/run.py --trace 1`` breaks."""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
LAYER_FUNCTIONS = runpy.run_path(str(TRACING))["LAYER_FUNCTIONS"]


@pytest.mark.parametrize(
    "layer,name", [(layer, name) for layer, names in LAYER_FUNCTIONS.items() for name in names]
)
def test_traced_name_resolves_to_a_callable(layer, name):
    assert callable(getattr(importlib.import_module(f"afmgate.{layer}"), name, None))
