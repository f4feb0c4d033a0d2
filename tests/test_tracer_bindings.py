"""Every function binding the benchmark's tracer patches still exists.

perfbench/tracer.py wraps qfactor functions by "module:attr" name.  A
refactor that drops or renames one of those bindings breaks the traced
benchmark run; this test reads the tracer's TARGETS table (without
importing the tracer) and resolves each binding against the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _bindings():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return sorted({
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str) and ":" in c.value
            })
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


BINDINGS = _bindings()


def test_tracer_lists_bindings():
    assert len(BINDINGS) > 20
    assert "qfactor.pipeline:hom_image" in BINDINGS


@pytest.mark.parametrize("binding", BINDINGS)
def test_tracer_binding_resolves(binding):
    module_name, attr = binding.split(":")
    assert callable(getattr(importlib.import_module(module_name), attr, None)), binding
