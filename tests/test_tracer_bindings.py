"""Every function binding the benchmark's tracer patches still exists.

perfbench/tracer.py wraps qfactor functions by "module:attr" name.  A
refactor that drops or renames one of those bindings breaks the traced
benchmark run; these tests read the tracer's TARGETS table (without
importing the tracer) and resolve each binding against the package.  The
count hooks read arguments by position or name (`_arg(args, kwargs, pos,
"name")`), so each function a hook is bound to must keep that parameter at
that position, or the traced run fails.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
TREE = ast.parse(TRACER.read_text())


def _targets() -> ast.Tuple:
    for node in TREE.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return node.value
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def _bindings():
    return sorted({
        c.value for c in ast.walk(_targets())
        if isinstance(c, ast.Constant) and isinstance(c.value, str) and ":" in c.value
    })


def _hook_arguments():
    """(binding, pos, name) for every _arg read of a count hook in TARGETS."""
    reads = {
        node.name: [(call.args[2].value, call.args[3].value) for call in ast.walk(node)
                    if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg"]
        for node in TREE.body if isinstance(node, ast.FunctionDef)
    }
    out = []
    for entry in _targets().elts:  # (layer.function, bindings, span?, count hook)
        bindings, hook = entry.elts[1], entry.elts[3]
        if isinstance(hook, ast.Name):
            out += [(b.value, pos, name) for b in bindings.elts for pos, name in reads[hook.id]]
    return sorted(out)


BINDINGS = _bindings()
HOOK_ARGUMENTS = _hook_arguments()


def test_tracer_lists_bindings():
    assert len(BINDINGS) > 20
    assert "qfactor.pipeline:hom_image" in BINDINGS
    assert ("qfactor.gauss:coordinate_masses", 1, "params") in HOOK_ARGUMENTS


@pytest.mark.parametrize("binding", BINDINGS)
def test_tracer_binding_resolves(binding):
    module_name, attr = binding.split(":")
    assert callable(getattr(importlib.import_module(module_name), attr, None)), binding


@pytest.mark.parametrize("binding, pos, name", HOOK_ARGUMENTS)
def test_tracer_hook_argument_keeps_its_position(binding, pos, name):
    module_name, attr = binding.split(":")
    params = list(inspect.signature(getattr(importlib.import_module(module_name), attr)).parameters)
    assert params[pos:pos + 1] == [name], f"{binding} parameters {params}"
