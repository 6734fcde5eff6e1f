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


def test_only_the_table_store_touches_the_cache():
    # FieldCtx.table is the one get-or-build of per-field tables: only
    # FieldCtx.__init__ and FieldCtx.table name _cache, and quadform keeps
    # no lru_cache keyed by a context
    allowed, uses = set(), []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in ast.walk(tree):
            if path.name == "fieldcore.py" and isinstance(cls, ast.ClassDef) and cls.name == "FieldCtx":
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name in ("__init__", "table"):
                        allowed |= {id(node) for node in ast.walk(fn)}
        uses += [(path.name, node) for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "_cache"]
    assert uses
    assert [f"{name}:{node.lineno}" for name, node in uses if id(node) not in allowed] == []
    lru = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if name == "quadform.py"
        and (isinstance(node, ast.Attribute) and node.attr == "lru_cache" or isinstance(node, ast.Name) and node.id == "lru_cache")
    ]
    assert lru == []
