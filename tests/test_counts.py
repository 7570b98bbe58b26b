"""Every count at a public entry point is read by one reader.

A float, a bool and a value one below the count's least allowed value each
raise InvalidArgumentError naming the count, never a TypeError or
ValueError from deeper down.
"""

import pytest

from turanlab.errors import InvalidArgumentError
from turanlab.hypercore import (
    EdgeTypeSet,
    Hypergraph,
    Pattern,
    SimplexPoint,
    blow_up,
    complete,
    marked_clique,
    realize,
)
from turanlab.jumpcert import PiEvidence
from turanlab.lagrangian import OptimizerConfig
from turanlab.seqdensity import (
    SequenceGenerator,
    density_estimate,
    proportional_sizes,
    sigma_t,
)
from turanlab.turansearch import (
    ForbiddenFamily,
    density_sequence,
    enumerate_graphs,
    pi_n,
)

GEN = SequenceGenerator.turan_generator(2, ns=(4, 6))
TRIANGLE_FREE = ForbiddenFamily(EdgeTypeSet((2,)), (complete(3, (2,)),))

# (name of the count, its least value, a call that reads it)
ENTRY_POINTS = [
    ("edge size", 1, lambda v: EdgeTypeSet((2, v))),
    ("n", 1, SimplexPoint.uniform),
    ("t", 2, marked_clique),
    ("class size", 0, lambda v: blow_up(Hypergraph(2, ((0, 1),)), (2, v))),
    ("class size", 0, lambda v: realize(Pattern(1, ((2,),)), (v,))),
    ("restarts", 0, lambda v: OptimizerConfig(restarts=v)),
    ("max_iters", 1, lambda v: OptimizerConfig(max_iters=v)),
    ("seed", 0, lambda v: OptimizerConfig(seed=v)),
    ("total", 0, lambda v: proportional_sizes((1,), v)),
    ("ns entry", 1, lambda v: SequenceGenerator.turan_generator(2, ns=(4, v))),
    ("n_start", 1,
     lambda v: SequenceGenerator.turan_generator(2, n_start=v, n_step=1)),
    ("n_step", 1,
     lambda v: SequenceGenerator.turan_generator(2, n_start=2, n_step=v)),
    ("parts", 2, lambda v: SequenceGenerator.turan_generator(v, ns=(4,))),
    ("member index", 0, GEN.size),
    ("i_max", 0, lambda v: density_estimate(GEN, v)),
    ("t", 1, lambda v: sigma_t(GEN, v)),
    ("member range end", 0, lambda v: sigma_t(GEN, 2, (v, 1))),
    ("member range end", 0, lambda v: sigma_t(GEN, 2, (0, v))),
    ("n", 1, lambda v: next(enumerate_graphs(v, EdgeTypeSet((2,))))),
    ("n", 1, lambda v: pi_n(TRIANGLE_FREE, v)),
    ("n_max", 2, lambda v: density_sequence(TRIANGLE_FREE, v)),
    ("n", 1, lambda v: PiEvidence("exhaustive", 1, "x", n=v)),
]


@pytest.mark.parametrize("kind", ["float", "bool", "below"])
@pytest.mark.parametrize(
    "what,least,call", ENTRY_POINTS,
    ids=[f"{i}-{what}" for i, (what, _, _) in enumerate(ENTRY_POINTS)],
)
def test_counts_refuse_non_integers_and_small_values(what, least, call, kind):
    value, text = {
        "float": (2.5, "must be an integer, not 2.5"),
        "bool": (True, "must be an integer, not True"),
        "below": (least - 1, f"must be >= {least}, not {least - 1}"),
    }[kind]
    with pytest.raises(InvalidArgumentError, match=f"^{what} {text}$"):
        call(value)
