"""The benchmark's trace hooks still find every name they wrap.

``perfbench/spans.py`` rebinds public turanlab functions by name, so deleting
or renaming one of them breaks ``perfbench/run.py --trace 1``.  This test
installs the tracer on a tiny pass and checks that the layer spans are
recorded and that uninstalling restores the original objects.
"""

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
