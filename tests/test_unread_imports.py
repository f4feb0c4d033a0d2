"""Every name a qfactor module imports is read somewhere in that module.

No linter ships with the project, so this test does the one check that
catches what a refactor leaves behind: an import whose last reader was
deleted.  A binding that perfbench/tracer.py patches by "module:name" in
its TARGETS table is kept on purpose (the tracer wraps the function where
it is looked up), so such a binding may go unread.  TARGETS is read from
the tracer's source, as tests/test_tracer_bindings.py does, without
importing the tracer.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "qfactor").glob("*.py") if p.name != "__init__.py")


def _tracer_bindings() -> set[str]:
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return {
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str) and ":" in c.value
            }
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


TRACER_BINDINGS = _tracer_bindings()


def unread_imports(source: str) -> list[str]:
    """The names bound by the imports of `source` that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(set(imported) - read)


def test_unread_imports_finds_a_leftover():
    source = "from __future__ import annotations\nimport os.path\nfrom fractions import Fraction as F\nx: int = 1\n"
    assert unread_imports(source) == ["F", "os"]
    assert unread_imports("import math\nprint(math.pi)\n") == []


def test_tracer_keeps_some_unread_bindings():
    assert "qfactor.cli:certify_assumption" in TRACER_BINDINGS


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_reads_every_name_it_imports(path):
    unread = [
        name for name in unread_imports(path.read_text())
        if f"qfactor.{path.stem}:{name}" not in TRACER_BINDINGS
    ]
    assert unread == [], f"{path.name} imports names it never reads: {unread}"
