"""Rules on the package source that hold independently of behaviour."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quadsums"


def _nodes():
    """(file name, node) for every node of every module of the package."""
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_no_assert_statements():
    # `python -O` strips asserts; invariants raise InternalInconsistency
    found = [f"{name}:{node.lineno}" for name, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_array_conversions_name_a_dtype():
    # left to itself, numpy makes float64 of a sequence holding a residue
    # >= 2^63, so every np.array and np.asarray names its dtype
    calls = [
        (name, node)
        for name, node in _nodes()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("array", "asarray")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
    ]
    assert calls
    found = [f"{name}:{node.lineno}" for name, node in calls if not any(k.arg == "dtype" for k in node.keywords)]
    assert found == []
