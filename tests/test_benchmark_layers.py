"""The benchmark's tracer rebinds pealab functions by module and name and
counts the length of what some of them return; a renamed or deleted
function, or one that stops returning a list, would only show up when the
benchmark runs."""

import ast
import importlib
import inspect
from pathlib import Path

from pealab import catalog_pdps, enumerate_bounded_posets

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def tracer_constant(name: str):
    """The literal assigned to ``name`` in the tracer, read without
    importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} assignment in {TRACING}")


def layer_function(module: str, name: str):
    return getattr(importlib.import_module(f"pealab.{module}"), name, None)


def test_each_traced_layer_names_a_function_of_its_module():
    layers = tracer_constant("LAYERS")
    assert layers
    for module, name in layers:
        fn = layer_function(module, name)
        assert inspect.isfunction(fn), f"pealab.{module}.{name} is no function"
        assert fn.__module__ == f"pealab.{module}", (
            f"pealab.{module}.{name} is defined in {fn.__module__}"
        )


def test_each_counted_layer_returns_a_list():
    # the tracer adds len(result) of every call to a counted layer
    c2 = enumerate_bounded_posets(2)[-1]
    X = catalog_pdps(2)[-1]
    tiny = {
        "catalog.enumerate_posets": (2,),
        "catalog.enumerate_pea_structures": (c2,),
        "pdp.enumerate_pdp_morphisms": (X, X),
        "posets.enumerate_morphisms": (c2, c2),
    }
    counted = tracer_constant("COUNTED")
    assert set(counted) == set(tiny)
    for label, args in tiny.items():
        result = layer_function(*label.split("."))(*args)
        assert isinstance(result, list) and result, label
