"""Every library module and every script uses each name it imports.

An AST scan: a name bound by an import must appear as a name somewhere else
in the module, or be listed in its ``__all__``.  No module under ``src``
imports numpy, at load time or inside a function: the float ascent runs on
Python floats.  Only ``hypercore._require_int`` uses ``operator.index``, so
every count is read by that one function, and only it raises
``UnsupportedSizeError``, so every size cap is read there too.  Only
``hypercore`` defines a ``_require_*`` reader, so every rational is read by
``hypercore._require_rational``; likewise only ``hypercore`` defines the
orbit helpers ``_orbit_firsts`` and ``_twin_swaps``.  ``object.__new__``, which
builds an instance without its checks, appears only in the two unchecked
constructors ``Hypergraph._from_normalized`` and
``PolynomialForm._from_terms``.  ``__init__.py`` imports no
submodule: its table ``_HOME`` maps each public name to its home module,
whose ``__all__`` must list it.
"""

import ast
import importlib
from pathlib import Path

import pytest

import turanlab

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


def imported_packages(source: str) -> list[str]:
    """Top-level packages of every absolute import in the module, at any
    depth: function and class bodies and conditional blocks included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append(node.module.split(".")[0])
    return sorted(found)


def test_scan_finds_a_load_time_import():
    source = (
        "try:\n    import numpy.linalg\nexcept ImportError:\n    pass\n"
        "from scipy import optimize\nfrom . import errors\n"
        "class A:\n    import json\n"
    )
    assert imported_packages(source) == ["json", "numpy", "scipy"]


def test_scan_finds_an_import_inside_a_function():
    source = (
        "def f():\n    import numpy as np\n    return np\n"
        "class A:\n    def g(self):\n        if self:\n"
        "            from numpy.random import default_rng\n"
    )
    assert imported_packages(source) == ["numpy", "numpy"]


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


def function_definitions(source: str) -> set[str]:
    """Names of the functions the module defines, at any depth."""
    return {
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def reader_definitions(source: str) -> list[str]:
    """Names of the functions named ``_require_*`` the module defines, at
    any depth."""
    return sorted(n for n in function_definitions(source) if n.startswith("_require_"))


def test_scan_finds_a_reader_definition():
    source = (
        "def _require_fraction(x):\n    return x\n"
        "class A:\n    def _require_b(self):\n        pass\n"
        "def require_c():\n    pass\n"
    )
    assert reader_definitions(source) == ["_require_b", "_require_fraction"]


def test_readers_are_defined_only_in_hypercore():
    defining = {
        p.name for p in SRC.glob("*.py")
        if reader_definitions(p.read_text(encoding="utf-8"))
    }
    assert defining == {"hypercore.py"}


def test_orbit_helpers_are_defined_only_in_hypercore():
    # one source of symmetry pruning: _grow and _search_plan share them
    from turanlab import hypercore, turansearch

    helpers = {"_orbit_firsts", "_twin_swaps"}
    defining = {
        p.name for p in SRC.glob("*.py")
        if helpers & function_definitions(p.read_text(encoding="utf-8"))
    }
    assert defining == {"hypercore.py"}
    assert helpers <= function_definitions(
        (SRC / "hypercore.py").read_text(encoding="utf-8")
    )
    assert turansearch._orbit_firsts is hypercore._orbit_firsts
    assert turansearch._twin_swaps is hypercore._twin_swaps


def enclosing_scopes(source: str, matches) -> list[str]:
    """The qualified name of the enclosing function or class of each node
    for which ``matches`` is true, or ``<module>`` for one outside any."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if matches(child):
                found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def unchecked_builders(source: str) -> list[str]:
    """The qualified name of the enclosing function of each use of
    ``object.__new__``, or ``<module>`` for a use outside any."""
    return enclosing_scopes(source, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "__new__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    ))


def test_scan_finds_an_unchecked_builder():
    source = (
        "x = object.__new__(int)\n"
        "class A:\n    def f(cls):\n        return object.__new__(cls)\n"
        "def g():\n    new = object.__new__\n    return new(A)\n"
        "def h():\n    return A.__new__(A)\n"
    )
    assert unchecked_builders(source) == ["<module>", "A.f", "g"]


def test_unchecked_construction_stays_in_two_builders():
    # every other instance is built, and checked, by its constructor
    found = {
        p.name: unchecked_builders(p.read_text(encoding="utf-8"))
        for p in sorted(SRC.glob("*.py"))
    }
    assert {name: f for name, f in found.items() if f} == {
        "hypercore.py": ["Hypergraph._from_normalized"],
        "lagrangian.py": ["PolynomialForm._from_terms"],
    }


def size_refusals(source: str) -> list[str]:
    """The qualified name of the enclosing function of each
    ``raise UnsupportedSizeError``, called or not, or ``<module>`` for one
    outside any."""
    def refuses(node):
        if not isinstance(node, ast.Raise):
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "UnsupportedSizeError"

    return enclosing_scopes(source, refuses)


def test_scan_finds_a_size_refusal():
    source = (
        "raise UnsupportedSizeError\n"
        "class A:\n    def f(self, n):\n"
        "        if n > 8:\n            raise UnsupportedSizeError(f'{n}')\n"
        "def g():\n    raise InvalidArgumentError('x')\n"
        "def h():\n    return UnsupportedSizeError('not raised')\n"
    )
    assert size_refusals(source) == ["<module>", "A.f"]


def test_caps_are_read_only_by_require_int():
    found = {
        p.name: size_refusals(p.read_text(encoding="utf-8"))
        for p in sorted(SRC.glob("*.py"))
    }
    assert {name: f for name, f in found.items() if f} == {
        "hypercore.py": ["_require_int"]
    }


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "path", sorted((REPO / "src").rglob("*.py")), ids=lambda p: p.name
)
def test_numpy_is_imported_only_where_it_is_used(path):
    # it is used nowhere: no module under src imports it at any depth
    assert "numpy" not in imported_packages(path.read_text(encoding="utf-8"))


# the 58 names ``turanlab`` exported when it imported them eagerly
PACKAGE_NAMES = {
    "CertificateError", "InvalidArgumentError", "InvalidHypergraphError",
    "OptimizerFailureError", "OutOfRangeError", "ParseError", "TuranLabError",
    "UnsupportedSizeError",
    "EdgeTypeSet", "Hypergraph", "Pattern", "SimplexPoint", "blow_up",
    "canonical_form", "canonical_graph", "chain_graph", "complete",
    "contains_induced", "contains_subgraph", "disjoint_type_union",
    "empty_graph", "equivalence_classes", "find_embedding",
    "find_induced_embedding", "induced_subgraph", "is_isomorphic", "lubell",
    "marked_clique", "realize",
    "ClassifyResult", "JumpCertificate", "LambdaWitness", "PiEvidence",
    "WeakJumpWitness", "build_certificate", "classify12",
    "known_turan_density", "weak_jump_witness",
    "LagrangianResult", "OptimizerConfig", "PolynomialForm", "certify_at",
    "evaluate", "gradient", "maximize", "polynomial_form",
    "DensityTrend", "SequenceGenerator", "UpperDensityReport",
    "density_estimate", "proportional_sizes", "sigma_t",
    "DensityBound", "ForbiddenFamily", "PiRecord", "density_sequence",
    "enumerate_graphs", "pi_n",
}


def test_package_reexports_only_listed_names():
    assert len(PACKAGE_NAMES) == 58
    assert sorted(turanlab.__all__) == sorted(PACKAGE_NAMES)
    assert PACKAGE_NAMES <= set(dir(turanlab))
    unlisted = []
    for name, home in turanlab._HOME.items():
        module = importlib.import_module(f"turanlab.{home}")
        if name not in module.__all__:
            unlisted.append(f"{home}.{name}")
        assert getattr(turanlab, name) is getattr(module, name), name
        # bound on first use, so hot loops over ``turanlab.X`` skip the hook
        assert vars(turanlab)[name] is getattr(module, name), name
    assert unlisted == []


def test_package_refuses_unknown_names():
    with pytest.raises(AttributeError, match="no attribute 'count_embeddings'"):
        turanlab.count_embeddings  # noqa: B018
