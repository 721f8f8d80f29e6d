"""The benchmark's tracer rebinds pealab functions by module and name; a
renamed or deleted function would only show up when the benchmark runs."""

import ast
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_layers():
    """LAYERS as written in the tracer, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {TRACING}")


def test_each_traced_layer_names_a_function_of_its_module():
    layers = traced_layers()
    assert layers
    for module, name in layers:
        mod = importlib.import_module(f"pealab.{module}")
        fn = getattr(mod, name, None)
        assert inspect.isfunction(fn), f"pealab.{module}.{name} is no function"
        assert fn.__module__ == mod.__name__, (
            f"pealab.{module}.{name} is defined in {fn.__module__}"
        )
