"""Rules on the package source that hold independently of behaviour."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quadsums"


def test_no_assert_statements():
    # `python -O` strips asserts; invariants raise InternalInconsistency
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
