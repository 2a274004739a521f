"""Every module of the package uses each name it imports, every private
module-level name is read, and every name the benchmark traces exists."""

import ast
import importlib
from pathlib import Path

import pytest

import bksgeom

PACKAGE = Path(bksgeom.__file__).resolve().parent
# __init__.py imports names to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read elsewhere."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = "import os\nfrom typing import Dict, List\n\nx: List[int] = os.sep\n"
    assert unused_imports(source) == [(2, "Dict")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unread_private_names(sources: dict) -> list:
    """(module, name) pairs of private names bound at module level by a
    def, class or assignment that no module of ``sources`` ever reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            else:
                targets = []
            defined += [(module, name) for name in targets if _is_private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted((module, name) for module, name in defined if name not in read)


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a.py": "_USED = 1\n_unused = 2\n__dunder__ = 3\ndef _helper():\n    return _USED\n",
        "b.py": "from a import _helper\nx = _helper()\nclass _Orphan:\n    pass\n",
    }
    assert unread_private_names(sources) == [("a.py", "_unused"), ("b.py", "_Orphan")]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def traced_names() -> list:
    """The (module, function) pairs the benchmark's tracer wraps, read
    from ``perfbench/tracing.py`` without importing it."""
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WRAPPED" for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError("perfbench/tracing.py defines no WRAPPED")


def test_every_traced_name_resolves():
    """A traced name that no longer exists makes the benchmark report it
    as absent, so each must stay importable under its module."""
    names = traced_names()
    assert ("_kernels", "valuation_scan") in names
    for module, function in names:
        assert callable(getattr(importlib.import_module(f"bksgeom.{module}"), function))
