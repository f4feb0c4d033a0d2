"""No qfactor module holds an epsilon: a float literal x with 0 < |x| < 1e-6.

Every bound that decides a run is compared exactly, in integers or
Fractions, so no tiny constant nudges a float comparison across its edge.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "qfactor").glob("*.py"))


def epsilons(source: str) -> list[float]:
    """The float literals x of `source` with 0 < |x| < 1e-6."""
    return [
        node.value for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0 < abs(node.value) < 1e-6
    ]


def test_epsilons_finds_a_fudge():
    source = "x = math.ceil(math.log2(y) - 1e-9)\nz = 2.0 ** -64 + 0.5 * w\n"
    assert epsilons(source) == [1e-9]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_holds_no_epsilon(path):
    assert epsilons(path.read_text()) == [], f"{path.name} holds an epsilon"
