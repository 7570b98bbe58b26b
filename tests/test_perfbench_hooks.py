"""The benchmark's trace hooks still find every name they wrap.

``perfbench/spans.py`` rebinds public turanlab functions by name, so deleting
or renaming one of them breaks ``perfbench/run.py --trace 1``.  This test
installs the tracer on a tiny pass and checks that the layer spans are
recorded and that uninstalling restores the original objects.  The
workloads call the rest of the API by attribute (``tl.maximize``,
``ser.result_to_obj``, ...); an AST scan checks that each of those resolves.
"""

import ast
import importlib
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "perfbench"))

import spans  # noqa: E402
import turanlab.hypercore as hypercore  # noqa: E402
import turanlab.lagrangian as lagrangian  # noqa: E402
import turanlab.seqdensity as seqdensity  # noqa: E402
import turanlab.turansearch as turansearch  # noqa: E402

LAYERS = (
    "hypercore.canonical_form",
    "hypercore.contains_subgraph",
    "hypercore.contains_induced",
    "turansearch.pi_n",
    "lagrangian.maximize",
    "seqdensity.sigma_t",
)


def _bindings(module):
    return {
        name: value for name, value in vars(module).items()
        if callable(value) and not name.startswith("__")
    }


def test_tracer_records_every_layer_and_uninstalls():
    before = {m: _bindings(m) for m in (hypercore, turansearch)}
    tracer = spans.Tracer()
    tracer.install()
    try:
        pairs = hypercore.EdgeTypeSet((2,))
        path3 = hypercore.Hypergraph(3, ((0, 1), (1, 2)))
        triangle = hypercore.complete(3, (2,))
        turansearch.pi_n(turansearch.ForbiddenFamily(pairs, (triangle,)), 4)
        turansearch.pi_n(
            turansearch.ForbiddenFamily(pairs, (path3,), mode="induced"), 4
        )
        result = lagrangian.maximize(hypercore.chain_graph())
        gen = seqdensity.SequenceGenerator.turan_generator(2, n_start=4, n_step=2)
        seqdensity.sigma_t(gen, 3, (0, 3))
    finally:
        tracer.uninstall()
    assert result.value_exact == Fraction(9, 8)
    calls, _ = tracer.self_times()
    for name in LAYERS:
        assert calls[name] > 0, name
    for module, bindings in before.items():
        after = _bindings(module)
        for name, value in bindings.items():
            assert after[name] is value, f"{module.__name__}.{name}"


def test_canonical_form_keeps_its_cache_hooks():
    # perfbench/run.py clears the cache before each pass and reads its hit
    # ratio after it
    assert callable(hypercore.canonical_form.cache_clear)
    info = hypercore.canonical_form.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def module_attributes(source: str) -> set[tuple[str, str]]:
    """(module, attribute) for each ``alias.name`` whose alias is bound by
    ``import module as alias``; an AST scan, so text such as
    ``parser.add_argument`` or a string is not read as a use."""
    tree = ast.parse(source)
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.asname
    }
    return {
        (aliases[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id in aliases
    }


def test_scan_reads_only_aliased_modules():
    source = (
        "import json as js\nimport turanlab.serialize as ser\n"
        "parser.add_argument('--ser.x')\nser.dumps_canonical(js.dumps)\n"
        "other.ser.y\n"
    )
    assert module_attributes(source) == {
        ("json", "dumps"), ("turanlab.serialize", "dumps_canonical"),
    }


def test_workloads_call_only_existing_names():
    source = (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")
    used = {
        (module, name) for module, name in module_attributes(source)
        if module.split(".")[0] == "turanlab"
    }
    assert ("turanlab.serialize", "result_to_obj") in used
    assert ("turanlab.lagrangian", "stationarity_residual") in used
    missing = [
        f"{module}.{name}" for module, name in sorted(used)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
