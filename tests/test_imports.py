"""Every library module and every script uses each name it imports.

An AST scan: a name bound by an import must appear as a name somewhere else
in the module, or be listed in its ``__all__``.  ``__init__.py`` only
re-exports, so it is exempt; instead, each name it takes from a module must
be in that module's ``__all__`` (a module without one, such as ``errors``,
exports every name it binds that has no leading underscore).  No module
imports numpy when it is loaded: only the float ascent uses it, and imports
it inside its own functions.  Only ``hypercore._require_int`` uses
``operator.index``, so every count is read by that one function.
"""

import ast
import importlib
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "turanlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((REPO / "scripts").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


def test_scan_finds_an_unused_name():
    source = (
        "import numpy as np\nfrom math import comb, factorial\n"
        "__all__ = ['factorial']\nnp.zeros(3)\n"
    )
    assert unused_imports(source) == ["comb"]


def load_time_imports(source: str) -> list[str]:
    """Top-level packages imported when the module is loaded: outside any
    function body, class bodies and conditional blocks included."""
    found = []
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append(node.module.split(".")[0])
        pending.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_scan_finds_a_load_time_import():
    source = (
        "try:\n    import numpy.linalg\nexcept ImportError:\n    pass\n"
        "from scipy import optimize\nfrom . import errors\n"
        "class A:\n    import json\n"
        "def f():\n    import numpy as np\n    return np\n"
    )
    assert load_time_imports(source) == ["json", "numpy", "scipy"]


def index_readers(source: str) -> list[str]:
    """The enclosing function of each use of ``operator.index``, or
    ``<module>`` for a use, or a ``from operator import index``, outside any."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Attribute) and child.attr == "index"
                and isinstance(child.value, ast.Name) and child.value.id == "operator"
            ) or (
                isinstance(child, ast.ImportFrom) and child.module == "operator"
                and any(alias.name == "index" for alias in child.names)
            ):
                found.append(where)
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_finds_an_index_reader():
    source = (
        "import operator\nfrom operator import index\n"
        "def f(x):\n    return operator.index(x)\n"
        "class A:\n    def g(self, x):\n        return operator.index(x)\n"
    )
    assert index_readers(source) == ["<module>", "f", "g"]


def test_counts_are_read_only_by_require_int():
    readers = {
        p.name: index_readers(p.read_text(encoding="utf-8"))
        for p in sorted(SRC.glob("*.py"))
    }
    assert {name: r for name, r in readers.items() if r} == {
        "hypercore.py": ["_require_int"]
    }


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_numpy_is_imported_only_where_it_is_used(path):
    assert "numpy" not in load_time_imports(path.read_text(encoding="utf-8"))


def test_package_reexports_only_listed_names():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"turanlab.{node.module}")
            listed = getattr(module, "__all__", None) or [
                name for name in vars(module) if not name.startswith("_")
            ]
            unlisted += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if alias.name not in listed
            ]
    assert unlisted == []
