"""Every module of the package, ``__init__.py`` included, uses each name
it imports, every private module-level name is read, every public one is
read, traced or documented, every name the benchmark traces exists, the
README's library example runs, the package resolves its public names on
first use, and importing the package or running a command that does not
search stays light."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bksgeom

PACKAGE = Path(bksgeom.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


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


def _bound_and_read(source: str) -> tuple:
    """The names a module binds at module level by a def, class or
    assignment, and the set of names it reads anywhere."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [t.id for t in nodes if isinstance(t, ast.Name)]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound, read | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _unread(sources: dict, keep, shown=frozenset()) -> list:
    """(module, name) pairs of names bound at module level that ``keep``
    selects and that neither a module of ``sources`` nor ``shown`` reads."""
    scanned = {module: _bound_and_read(source) for module, source in sources.items()}
    read = set(shown).union(*(names for _, names in scanned.values()))
    return sorted((m, name) for m, (bound, _) in scanned.items() for name in bound if keep(name) and name not in read)


def unread_private_names(sources: dict) -> list:
    """(module, name) pairs of private names bound at module level by a
    def, class or assignment that no module of ``sources`` ever reads."""
    return _unread(sources, _is_private)


def unread_public_names(sources: dict, shown: set) -> list:
    """The same for public names, read by a module other than
    ``__init__.py`` (its name table only re-exports) or named in ``shown``."""
    rest = {module: source for module, source in sources.items() if module != "__init__.py"}
    return _unread(rest, lambda name: not name.startswith("_"), shown)


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a.py": "_USED = 1\n_unused = 2\n__dunder__ = 3\ndef _helper():\n    return _USED\n",
        "b.py": "from a import _helper\nx = _helper()\nclass _Orphan:\n    pass\n",
    }
    assert unread_private_names(sources) == [("a.py", "_unused"), ("b.py", "_Orphan")]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def test_the_check_finds_an_unread_public_name():
    sources = {
        "__init__.py": "import a\nTABLE = {'orphan': a.orphan}\n",
        "a.py": "LIMIT = 1\ndef helper():\n    return LIMIT\ndef orphan():\n    pass\ndef shown():\n    pass\n",
        "b.py": "from a import helper\n_x = helper()\n",
    }
    assert unread_public_names(sources, {"shown"}) == [("a.py", "orphan")]


def test_every_public_name_is_read_traced_or_documented():
    """A public name that no module reads is kept only for the benchmark's
    tracer or for README "Library", which shows it in its example or in
    backticks; anything else is library surface that nothing runs."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    quoted = " ".join(re.findall(r"`+([^`]+)`+", library_section()))  # spans and the example
    shown = {function for _, function in traced_names()} | set(re.findall(r"\w+", quoted))
    assert unread_public_names(sources, shown) == []


def traced_names() -> list:
    """The (module, function) pairs the benchmark's tracer wraps, read
    from ``perfbench/tracing.py`` without importing it."""
    source = (ROOT / "perfbench" / "tracing.py").read_text()
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


def library_section() -> str:
    """README "Library", up to the next section."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_example_runs():
    """The fenced ``python`` block of README "Library" runs as written."""
    code = library_section().split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def test_cli_import_leaves_out_dataclasses_and_inspect(child_env):
    """Each CLI command runs in a fresh interpreter, so what importing
    the CLI pulls in is paid on every call.  ``-S`` keeps the host's
    ``site`` from importing these modules first and hiding a regression."""
    code = "import sys, bksgeom.cli; print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=child_env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def test_cli_import_builds_no_search_table(child_env):
    """The Lagrangian listing and its per-qubit-count tables are built on
    the first rectangle search, not at import, so light commands skip them."""
    code = (
        "import bksgeom.cli; from bksgeom import search; "
        "print(search._perp_tables.cache_info().currsize, search._lagrangians.cache_info().currsize)"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=child_env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "0 0\n"


def child_run(child_env, code: str, cwd=None) -> str:
    """Stdout of ``code`` run by a fresh ``python -S``."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=child_env, cwd=cwd, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_package_import_loads_no_submodule(child_env):
    code = "import sys, bksgeom; print(sorted(m for m in sys.modules if m.startswith('bksgeom.')))"
    assert child_run(child_env, code) == "[]\n"


@pytest.mark.parametrize(
    "command",
    ["reproduce", "reproduce --json", "verify rect.txt", "classify rect.txt", "complement rect.txt --point IXII"],
)
def test_command_without_search_leaves_search_and_json_unloaded(command, child_env, tmp_path):
    """A command that does not search never compiles the search module,
    and only ``--json`` loads ``json``."""
    from bksgeom.rectangle import CONTEXT_WORDS

    config = "\n\n".join("\n".join(words) for words in CONTEXT_WORDS) + "\n"
    (tmp_path / "rect.txt").write_text(config, encoding="utf-8")
    code = (
        "import io, sys, contextlib\n"
        "from bksgeom.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({command.split()!r})\n"
        "print(code, 'bksgeom.search' in sys.modules, 'json' in sys.modules)\n"
    )
    assert child_run(child_env, code, cwd=tmp_path) == f"0 False {'--json' in command}\n"


def test_every_public_name_resolves_and_is_listed(child_env):
    """``dir`` lists each name of ``__all__`` before any submodule is
    loaded, each resolves on first access, and a star import binds them
    all to the same objects."""
    code = (
        "import sys, bksgeom\n"
        "names = set(bksgeom.__all__)\n"
        "print(sorted(names - set(dir(bksgeom))), any(m.startswith('bksgeom.') for m in sys.modules))\n"
        "star = {}\n"
        "exec('from bksgeom import *', star)\n"
        "print(sorted(names - set(star)))\n"
        "print(sorted(n for n in names if getattr(bksgeom, n) is not star[n]))\n"
    )
    assert child_run(child_env, code) == "[] False\n[]\n[]\n"


def test_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="module 'bksgeom' has no attribute 'no_such_name'"):
        bksgeom.no_such_name
