"""The benchmark's span tracer wraps functions by (module, attribute); a
change that renames or drops one of them must fail here, not only when the
benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,attr", [
    (module_name, attr) for module_name, attr, _, _ in load_tracing().BOUNDARIES
])
def test_every_traced_boundary_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None)), \
        f"{module_name}.{attr} is gone; benchmarks/tracing.py wraps it"
