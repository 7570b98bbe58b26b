"""Every count, every rational and every sequence at a public entry point
is read by one reader of its kind.

A float, a bool and a value one below the count's least allowed value each
raise InvalidArgumentError naming the count, never a TypeError or
ValueError from deeper down, and a value one above a size cap raises
UnsupportedSizeError naming the count; so do a non-iterable where a sequence belongs,
a sequence of the wrong length, and an entry of the wrong type.  A rational
argument takes an int or a Fraction; a float, a bool and a string each raise
InvalidArgumentError naming it.
"""

from fractions import Fraction as F

import pytest

from turanlab.errors import InvalidArgumentError, UnsupportedSizeError
from turanlab.hypercore import (
    MAX_EDGE_SIZE,
    MAX_LABELING_VERTICES,
    EdgeTypeSet,
    Hypergraph,
    Pattern,
    SimplexPoint,
    blow_up,
    canonical_form,
    chain_graph,
    complete,
    lubell,
    marked_clique,
    realize,
)
from turanlab.jumpcert import (
    MAX_WITNESS_VERTICES,
    JumpCertificate,
    LambdaWitness,
    PiEvidence,
    build_certificate,
    classify12,
    known_turan_density,
    weak_jump_witness,
)
from turanlab.lagrangian import (
    OptimizerConfig,
    PolynomialForm,
    certify_at,
    evaluate,
    gradient,
    maximize,
    stationarity_residual,
)
from turanlab.seqdensity import (
    MAX_SUBSET_SIZE,
    SequenceGenerator,
    density_estimate,
    proportional_sizes,
    sigma_t,
)
from turanlab.serialize import certificate_to_obj, dumps_canonical
from turanlab.turansearch import (
    ENUMERATION_CAP,
    ForbiddenFamily,
    density_sequence,
    enumerate_graphs,
    pi_n,
)

GEN = SequenceGenerator.turan_generator(2, ns=(4, 6))
K3_12 = complete(3, (1, 2))
TRIANGLE_FREE = ForbiddenFamily(EdgeTypeSet((2,)), (complete(3, (2,)),))
CHAIN_FAMILY = ForbiddenFamily(EdgeTypeSet((1, 2)), (chain_graph(),))
CHAIN_WITNESS = LambdaWitness(chain_graph(), SimplexPoint((F(3, 4), F(1, 4))))
NO_DENSITY = PiEvidence("asserted", 0, "x")  # lies below every alpha in [0, 2]

# new rows go last: ids are row indices, so an inserted row renames later tests
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
    ("variable count", 1, lambda v: PolynomialForm(v, ())),
    ("vertex", 0, K3_12.degree),
    ("edge size", 1, lambda v: K3_12.degree(0, v)),
    ("edge size", 1, K3_12.edges_of_size),
    ("exhaustive_n", 1,
     lambda v: build_certificate(F(11, 10), CHAIN_FAMILY, exhaustive_n=v)),
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


@pytest.mark.parametrize("v", [3, 9])
def test_degree_refuses_a_vertex_outside_the_graph(v):
    with pytest.raises(InvalidArgumentError, match=f"^vertex {v} not inside 0..2$"):
        K3_12.degree(v)


# new rows go last: ids are row indices, so an inserted row renames later tests
# (name of the count, its cap, a call that reads it): every size cap
CAPS = [
    ("edge size", MAX_EDGE_SIZE, lambda v: EdgeTypeSet((2, v))),
    ("edge size", MAX_EDGE_SIZE, lambda v: Hypergraph(v, (range(v),))),
    ("pattern edge size", MAX_EDGE_SIZE, lambda v: Pattern(1, ((v,),))),
    ("canonical form vertex count", MAX_LABELING_VERTICES,
     lambda v: canonical_form(Hypergraph(v))),
    ("lambda witness vertex count", MAX_WITNESS_VERTICES,
     lambda v: weak_jump_witness(F(v - 1, v))),
    ("witness family vertex count", MAX_LABELING_VERTICES,  # row 2, t = k + 2
     lambda v: weak_jump_witness(1 + F(v - 2, 4 * (v - 1)))),
    ("t", MAX_SUBSET_SIZE, lambda v: sigma_t(GEN, v)),
    ("n", ENUMERATION_CAP, lambda v: next(enumerate_graphs(v, EdgeTypeSet((2,))))),
    ("n", ENUMERATION_CAP, lambda v: pi_n(TRIANGLE_FREE, v)),
    ("n_max", ENUMERATION_CAP, lambda v: density_sequence(TRIANGLE_FREE, v)),
    ("exhaustive_n", ENUMERATION_CAP,
     lambda v: build_certificate(F(11, 10), CHAIN_FAMILY, exhaustive_n=v)),
]


@pytest.mark.parametrize(
    "what,cap,call", CAPS,
    ids=[f"{i}-{what}" for i, (what, _, _) in enumerate(CAPS)],
)
def test_counts_refuse_values_above_their_cap(what, cap, call):
    with pytest.raises(UnsupportedSizeError,
                       match=f"^{what} must be <= {cap}, not {cap + 1}$"):
        call(cap + 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: EdgeTypeSet((MAX_EDGE_SIZE,)),
        lambda: next(enumerate_graphs(ENUMERATION_CAP, (2,))),
        lambda: canonical_form(complete(MAX_LABELING_VERTICES, (2,))),
        lambda: sigma_t(SequenceGenerator.turan_generator(2, ns=(MAX_SUBSET_SIZE,)),
                        MAX_SUBSET_SIZE, (0, 0)),
    ],
    ids=["edge size", "n", "canonical form vertex count", "t"],
)
def test_caps_admit_their_own_value(call):
    call()


# new rows go last: ids are row indices, so an inserted row renames later tests
# (name of the sequence, a call that passes a bad one, the error text)
SEQUENCES = [
    ("member range", lambda: sigma_t(GEN, 2, 5), "must be a sequence, not 5"),
    ("member range", lambda: sigma_t(GEN, 2, (0, 1, 2)),
     "must have 2 entries, not 3"),
    ("edge sizes", lambda: EdgeTypeSet(5), "must be a sequence, not 5"),
    ("edge sizes", lambda: complete(3, 5), "must be a sequence, not 5"),
    ("edges", lambda: Hypergraph(3, 5), "must be a sequence, not 5"),
    ("edge", lambda: Hypergraph(3, (5,)), "must be a sequence, not 5"),
    ("pattern edges", lambda: Pattern(1, 5), "must be a sequence, not 5"),
    ("multiplicity row", lambda: Pattern(1, (5,)), "must be a sequence, not 5"),
    ("simplex weights", lambda: SimplexPoint(5), "must be a sequence, not 5"),
    ("class sizes", lambda: blow_up(Hypergraph(1), 5), "must be a sequence, not 5"),
    ("ns", lambda: SequenceGenerator.turan_generator(2, ns=4),
     "must be a sequence, not 4"),
    ("proportions",
     lambda: SequenceGenerator.blow_up_generator(Hypergraph(1), 5, ns=(2,)),
     "must be a sequence, not 5"),
    ("weights", lambda: proportional_sizes(5, 2), "must be a sequence, not 5"),
    ("members", lambda: ForbiddenFamily(EdgeTypeSet((2,)), 5),
     "must be a sequence, not 5"),
    ("point", lambda: evaluate(Hypergraph(1), 5), "must be a sequence, not 5"),
    ("simplex weights", lambda: certify_at(Hypergraph(1), 5),
     "must be a sequence, not 5"),
    ("lambda_witnesses",
     lambda: JumpCertificate(1, "jump", CHAIN_FAMILY, 5, NO_DENSITY),
     "must be a sequence, not 5"),
]


@pytest.mark.parametrize(
    "what,call,text", SEQUENCES,
    ids=[f"{i}-{what}" for i, (what, _, _) in enumerate(SEQUENCES)],
)
def test_sequences_refuse_non_iterables_and_wrong_lengths(what, call, text):
    with pytest.raises(InvalidArgumentError, match=f"^{what} {text}$"):
        call()


# new rows go last: ids are row indices, so an inserted row renames later tests
# (what names the entry, a call that passes a bad one, the error text)
ENTRIES = [
    ("simplex weights entry", lambda: SimplexPoint(("a",)),
     "must be a number, not 'a'"),
    ("proportions entry",
     lambda: SequenceGenerator.blow_up_generator(Hypergraph(1), ("x",), ns=(2,)),
     "must be a number, not 'x'"),
    ("weights entry", lambda: proportional_sizes((None,), 3),
     "must be a number, not None"),
    ("members entry", lambda: ForbiddenFamily(EdgeTypeSet((2,)), (5,)),
     "must be a Hypergraph, not 5"),
    ("components entry", lambda: SequenceGenerator.union_generator(5),
     "must be a SequenceGenerator, not 5"),
    ("term coefficient", lambda: PolynomialForm(1, [("x", (1,))]),
     "must be a number, not 'x'"),
    ("ambient", lambda: ForbiddenFamily(5, (complete(3, (2,)),)),
     "must be an EdgeTypeSet, not 5"),
    ("ambient", lambda: ForbiddenFamily("x", (complete(3, (2,)),)),
     "must be an EdgeTypeSet, not 'x'"),
    ("ambient", lambda: ForbiddenFamily((2,), (complete(3, (2,)),)),
     r"must be an EdgeTypeSet, not \(2,\)"),
    ("member", lambda: LambdaWitness(5, SimplexPoint.uniform(1)),
     "must be a Hypergraph, not 5"),
    ("point", lambda: LambdaWitness(chain_graph(), (F(3, 4), F(1, 4))),
     r"must be a SimplexPoint, not \(Fraction\(3, 4\), Fraction\(1, 4\)\)"),
    ("family",
     lambda: JumpCertificate(1, "jump", 5, (CHAIN_WITNESS,), NO_DENSITY),
     "must be a ForbiddenFamily, not 5"),
    ("lambda_witnesses entry",
     lambda: JumpCertificate(1, "jump", CHAIN_FAMILY, (5,), NO_DENSITY),
     "must be a LambdaWitness, not 5"),
    ("pi_evidence",
     lambda: JumpCertificate(1, "jump", CHAIN_FAMILY, (CHAIN_WITNESS,), 5),
     "must be a PiEvidence, not 5"),
    ("family", lambda: build_certificate(F(11, 10), 5),
     "must be a ForbiddenFamily, not 5"),
    ("family", lambda: known_turan_density(5), "must be a ForbiddenFamily, not 5"),
    ("family", lambda: pi_n(5, 3), "must be a ForbiddenFamily, not 5"),
    ("family", lambda: density_sequence(5, 3), "must be a ForbiddenFamily, not 5"),
    ("detail", lambda: PiEvidence("asserted", 1, 5), "must be a str, not 5"),
    ("gen", lambda: sigma_t(5, 2), "must be a SequenceGenerator, not 5"),
    ("gen", lambda: density_estimate(5, 2), "must be a SequenceGenerator, not 5"),
    ("config", lambda: maximize(Hypergraph(4, complete(4, (3,)).edges[:3]), 5),
     "must be an OptimizerConfig, not 5"),
    ("config", lambda: maximize(chain_graph(), 5),
     "must be an OptimizerConfig, not 5"),
    ("config", lambda: build_certificate(F(11, 10), CHAIN_FAMILY, config=5),
     "must be an OptimizerConfig, not 5"),
    ("graph", lambda: lubell(5), "must be a Hypergraph, not 5"),
    ("graph", lambda: blow_up(5, (1,)), "must be a Hypergraph, not 5"),
    ("pattern", lambda: realize(chain_graph(), (1, 1)),
     r"must be a Pattern, not Hypergraph\(n=2, edges=\(\(0,\), \(0, 1\)\)\)"),
    ("point entry", lambda: evaluate(chain_graph(), (1, "x")),
     "must be a number, not 'x'"),
    ("point entry", lambda: gradient(chain_graph(), (1, "x")),
     "must be a number, not 'x'"),
    ("point entry", lambda: stationarity_residual(chain_graph(), ("a", "b")),
     "must be a number, not 'a'"),
]


@pytest.mark.parametrize(
    "what,call,text", ENTRIES,
    ids=[f"{i}-{what}" for i, (what, _, _) in enumerate(ENTRIES)],
)
def test_entries_refuse_wrong_types(what, call, text):
    with pytest.raises(InvalidArgumentError, match=f"^{what} {text}$"):
        call()


def test_certificate_stores_a_list_of_witnesses_as_a_tuple():
    cert = JumpCertificate(1, "jump", CHAIN_FAMILY, [CHAIN_WITNESS], NO_DENSITY)
    assert cert.lambda_witnesses == (CHAIN_WITNESS,)
    assert cert == JumpCertificate(
        1, "jump", CHAIN_FAMILY, (CHAIN_WITNESS,), NO_DENSITY
    )
    hash(cert)
    assert '"lambda_witnesses":[{' in dumps_canonical(certificate_to_obj(cert))


# new rows go last: ids are row indices, so an inserted row renames later tests
# (what names the rational, a call that reads it, a Fraction the call
# accepts); every call accepts the int 1 as well
RATIONALS = [
    ("alpha", classify12, F(1, 2)),
    ("alpha", weak_jump_witness, F(1, 2)),
    ("alpha",
     lambda v: build_certificate(v, CHAIN_FAMILY, pi_evidence=NO_DENSITY),
     F(1, 2)),
    ("alpha",
     lambda v: JumpCertificate(v, "jump", CHAIN_FAMILY, (CHAIN_WITNESS,), NO_DENSITY),
     F(1, 2)),
    ("density value", lambda v: PiEvidence("asserted", v, "x"), F(1, 2)),
    ("weights entry", lambda v: proportional_sizes((v,), 4), F(1)),
    ("proportions entry",
     lambda v: SequenceGenerator.blow_up_generator(Hypergraph(1), (v,), ns=(2,)),
     F(1)),
    ("term coefficient", lambda v: PolynomialForm(1, ((v, (1,)),)), F(1, 2)),
]
RATIONAL_IDS = [f"{i}-{what}" for i, (what, _, _) in enumerate(RATIONALS)]


@pytest.mark.parametrize("kind", ["float", "bool", "string"])
@pytest.mark.parametrize("what,call,_", RATIONALS, ids=RATIONAL_IDS)
def test_rationals_refuse_floats_bools_and_strings(what, call, _, kind):
    value, text = {
        "float": (1.5, "must be an exact rational; convert floats explicitly"),
        "bool": (True, "must be a rational, not a bool"),
        "string": ("3/4", "must be a number, not '3/4'"),
    }[kind]
    with pytest.raises(InvalidArgumentError) as info:
        call(value)
    assert str(info.value) == f"{what} {text}"


@pytest.mark.parametrize("_,call,fraction", RATIONALS, ids=RATIONAL_IDS)
def test_rationals_take_ints_and_fractions(_, call, fraction):
    call(1)
    call(fraction)
