"""Static checks of the package source."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polyshannon"


def _unused_imports(source: str) -> list[str]:
    """Names the module imports but neither reads nor lists in its __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(
                alias.asname or alias.name.split(".")[0] for alias in node.names
            )
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_no_unused_imports():
    assert _unused_imports("import os, sys\nfrom math import pi\nprint(sys)\n") == [
        "os", "pi",
    ]
    assert _unused_imports("from x import a\n__all__ = ['a']\n") == []
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := _unused_imports(path.read_text()))
    }
    assert unused == {}


def _unshared_caches(source: str) -> list[int]:
    """Lines using functools' lru_cache or cache other than as the decorator
    of a module-level function, whose cache_clear a cold run can reach."""
    tree = ast.parse(source)
    names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names if alias.name in ("lru_cache", "cache")
    }
    allowed = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                allowed.add(id(dec.func if isinstance(dec, ast.Call) else dec))
    lines = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Name) and node.id in names or (
            isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
            and isinstance(node.value, ast.Name) and node.value.id == "functools"
        ):
            lines.append(node.lineno)
    return lines


def test_every_lru_cache_is_module_level():
    assert _unshared_caches(
        "from functools import lru_cache\nimport functools\n"
        "@lru_cache(maxsize=None)\ndef f(x): pass\n@functools.cache\ndef g(): pass\n"
        "cache = {}\n"
    ) == []
    assert _unshared_caches(
        "from functools import lru_cache\nimport functools\n"
        "class A:\n    @lru_cache\n    def m(self): pass\n"
        "def f():\n    @functools.lru_cache(maxsize=None)\n    def g(): pass\n"
        "h = lru_cache(maxsize=None)(len)\n"
    ) == [4, 7, 9]
    misplaced = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := _unshared_caches(path.read_text()))
    }
    assert misplaced == {}
