"""Rules on the package source that hold independently of behaviour."""

import ast
from pathlib import Path

import pytest

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


def _occurrences(text: str) -> list[str]:
    return [
        f"{path.name}:{i}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if text in line
    ]


@pytest.mark.parametrize("text", ["get_int_max_str_digits", "raise NotMultipleOfBase(", "{valuation(a, 2) for", "in (l_N, p * l_N)"])
def test_each_rule_has_one_owner(text):
    # the output-size limit, the base-degree check, the balanced condition
    # and the p-power step rule are each written once
    assert len(_occurrences(text)) == 1, _occurrences(text)


def test_main_catches_exception_families_only():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    main = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = {ast.unparse(name) for h in ast.walk(main) if isinstance(h, ast.ExceptHandler)
              for name in (h.type.elts if isinstance(h.type, ast.Tuple) else [h.type])}
    assert caught == {"errors.Unsupported", "errors.InternalInconsistency", "errors.QuadsumsError", "ValueError", "OSError"}
