"""Every function, class, method and module-level constant qfactor defines
is read somewhere.

The companion of tests/test_unread_imports.py, one level up: a refactor
that deletes the last caller of a helper leaves the helper behind, and no
import check sees it.  A definition counts as read when its name is loaded,
or taken as an attribute, in src/qfactor/*.py or perfbench/*.py outside its
own body, or when perfbench/tracer.py patches that name, in any module, by
"module:name" in its TARGETS table.  A read from tests/ does not count: a
helper that only its own test calls is code the CLI and the benchmark do
without.  The check goes by name, not by binding, so a name read anywhere
counts for every definition of that name.  Dunder names, which Python
itself reads, are exempt; importing a name does not read it.
"""

import ast
from pathlib import Path

import pytest

from test_unread_imports import TRACER_BINDINGS

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "qfactor").glob("*.py"))
SOURCES = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


def definitions(tree: ast.Module) -> list[str]:
    """The module's top-level functions, classes and constants, and the
    methods of its classes."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [m.name for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def reads(node: ast.AST, inside: frozenset = frozenset()) -> set[str]:
    """The names `node` loads or takes as attributes, leaving out those
    read only inside a definition of the same name (a recursive call)."""
    found = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add(node.attr)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    for child in ast.iter_child_nodes(node):
        found |= reads(child, inside)
    return found - inside


def read_names(sources: list[str]) -> set[str]:
    """The names any of `sources` reads, plus every name the tracer patches."""
    traced = {binding.split(":")[1] for binding in TRACER_BINDINGS}
    return traced.union(*(reads(ast.parse(source)) for source in sources))


def unread(source: str, read: set[str]) -> list[str]:
    """The names `source` defines that are not in `read`."""
    return [name for name in definitions(ast.parse(source)) if name not in read]


READ = read_names([p.read_text() for p in SOURCES])


def test_reads_skip_a_recursive_call_and_imports():
    tree = ast.parse("from os import sep\nLIMIT = 3\ndef f(n):\n    return f(n - 1)\nclass C:\n"
                     "    def g(self):\n        return self.h()\n    def h(self):\n        return LIMIT\n")
    assert definitions(tree) == ["LIMIT", "f", "C", "g", "h"]
    assert reads(tree) >= {"LIMIT", "h"} and not reads(tree) & {"f", "sep", "g", "C"}


def test_a_name_read_only_from_tests_is_reported():
    module = "def kept():\n    return 1\ndef only_tested():\n    return 2\n"
    caller = "from qfactor.m import kept\nprint(kept())\n"
    test = "from qfactor.m import only_tested\nassert only_tested() == 2\n"
    assert unread(module, read_names([module, caller])) == ["only_tested"]
    assert unread(module, read_names([module, caller, test])) == []  # what counting tests/ would hide
    assert {p.parent.name for p in SOURCES} == {"qfactor", "perfbench"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_defines_nothing_unread(path):
    names = unread(path.read_text(), READ)
    assert names == [], f"{path.name} defines names nothing reads: {names}"
