"""Every module of the package uses each name it imports, and every name
the benchmark traces exists."""

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
