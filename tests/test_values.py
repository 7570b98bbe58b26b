"""The value semantics of the library's 18 immutable classes.

Each class names its fields in ``_fields``.  Equality, hashing, repr,
immutability, pickling and the constructor's parameters are those the
classes had as frozen dataclasses: ``DIGESTS`` holds, per class, the sha256
of one instance's repr and field values, and ``FIELDS`` the field names and
constructor parameters, both recorded while they were dataclasses.  A hash
is pinned as the hash of the tuple of field values, the dataclass rule,
because the hash of a str (and, before Python 3.12, of None) differs
between processes.
"""

import hashlib
import inspect
import pickle
from fractions import Fraction as F

import pytest

from turanlab import hypercore, jumpcert, lagrangian, seqdensity, turansearch
from turanlab.hypercore import (
    EdgeTypeSet,
    Hypergraph,
    Pattern,
    SimplexPoint,
    chain_graph,
    complete,
)

REQUIRED = "-"  # a parameter without a default

# class -> (its field names, its constructor's (parameter, default) pairs)
FIELDS = {
    hypercore.EdgeTypeSet: (("sizes",), (("sizes", REQUIRED),)),
    hypercore.Hypergraph: (("n", "edges"), (("n", REQUIRED), ("edges", ()))),
    hypercore.Pattern: (("n", "edges"), (("n", REQUIRED), ("edges", REQUIRED))),
    hypercore.SimplexPoint: (("weights",), (("weights", REQUIRED),)),
    jumpcert._Row: (
        ("limit", "step", "k_min", "form", "lambda_graph", "lambda_text",
         "family", "family_text", "family_form", "limit_family", "limit_note",
         "limit_text", "limit_detail", "terms"),
        tuple((name, REQUIRED) for name in (
            "limit", "step", "k_min", "form", "lambda_graph", "lambda_text",
            "family", "family_text", "family_form", "limit_family",
            "limit_note", "limit_text", "limit_detail",
        )),
    ),
    jumpcert.WeakJumpWitness: (
        ("alpha", "kind", "description", "graph", "point", "family"),
        (("alpha", REQUIRED), ("kind", REQUIRED), ("description", REQUIRED),
         ("graph", None), ("point", None), ("family", None)),
    ),
    jumpcert.LambdaWitness: (
        ("member", "point", "value"), (("member", REQUIRED), ("point", REQUIRED)),
    ),
    jumpcert.PiEvidence: (
        ("grade", "value", "detail", "n"),
        (("grade", REQUIRED), ("value", REQUIRED), ("detail", REQUIRED), ("n", None)),
    ),
    jumpcert.JumpCertificate: (
        ("alpha", "kind", "family", "lambda_witnesses", "pi_evidence"),
        tuple((name, REQUIRED) for name in (
            "alpha", "kind", "family", "lambda_witnesses", "pi_evidence",
        )),
    ),
    lagrangian.PolynomialForm: (
        ("nvars", "terms"), (("nvars", REQUIRED), ("terms", REQUIRED)),
    ),
    lagrangian.OptimizerConfig: (
        ("restarts", "max_iters", "seed"),
        (("restarts", 32), ("max_iters", 10_000), ("seed", 0)),
    ),
    lagrangian.LagrangianResult: (
        ("value", "maximizer", "certified_lower_bound", "certificate_point",
         "stationarity_residual", "value_exact", "method"),
        tuple((name, REQUIRED) for name in (
            "value", "maximizer", "certified_lower_bound", "certificate_point",
            "stationarity_residual", "value_exact", "method",
        )),
    ),
    seqdensity.SequenceGenerator: (
        ("kind", "ns", "n_start", "n_step", "base", "proportions", "components"),
        (("kind", REQUIRED), ("ns", None), ("n_start", None), ("n_step", None),
         ("base", None), ("proportions", None), ("components", ())),
    ),
    seqdensity.DensityTrend: (
        ("sizes", "values"), (("sizes", REQUIRED), ("values", REQUIRED)),
    ),
    seqdensity.UpperDensityReport: (
        ("t", "value", "attaining", "h_values", "i_range"),
        tuple((name, REQUIRED) for name in (
            "t", "value", "attaining", "h_values", "i_range",
        )),
    ),
    turansearch.ForbiddenFamily: (
        ("ambient", "members", "mode"),
        (("ambient", REQUIRED), ("members", ()), ("mode", "subgraph")),
    ),
    turansearch.PiRecord: (
        ("n", "pi_n", "extremal", "graphs_enumerated", "elapsed"),
        tuple((name, REQUIRED) for name in (
            "n", "pi_n", "extremal", "graphs_enumerated", "elapsed",
        )),
    ),
    turansearch.DensityBound: (
        ("family", "records"), (("family", REQUIRED), ("records", REQUIRED)),
    ),
}


def corpus():
    """One instance of each class, built the same way on every run.  The
    row's callables are left out, because a function's repr and hash hold
    its address; the constructor does not check them."""
    chain = chain_graph()
    triangle_free = turansearch.ForbiddenFamily(
        EdgeTypeSet((2,)), (complete(3, (2,)),)
    )
    record = turansearch.PiRecord(
        4, F(1, 2), (Hypergraph(4, ((0, 2), (0, 3), (1, 2), (1, 3))),), 11, 0.25
    )
    gen = seqdensity.SequenceGenerator.turan_generator(2, ns=(4, 6))
    certificate = jumpcert.build_certificate(
        F(11, 10),
        turansearch.ForbiddenFamily(EdgeTypeSet((1, 2)), (chain,)),
        strict=True,
    )
    return [
        EdgeTypeSet((2, 1)),
        Hypergraph(3, [(1, 0), (0,), (2, 1)]),
        Pattern(2, ((1, 1), (2, 0))),
        SimplexPoint((F(3, 4), F(1, 4))),
        jumpcert._Row(
            F(5, 4), F(1, 4), 1, "1+k/(4(k+1))", None, "lambda text", None,
            "family text", "5/4 - 1/(4({t} - 1))", (complete(2, (1, 2)),),
            "limit note", "limit text", "limit detail",
        ),
        jumpcert.weak_jump_witness(F(7, 6)),
        jumpcert.LambdaWitness(chain, SimplexPoint((F(3, 4), F(1, 4)))),
        jumpcert.PiEvidence("exhaustive", 1, "exhaustive search at n = 5", n=5),
        certificate,
        lagrangian.PolynomialForm(2, ((1, (1, 0)), (F(1, 2), (1, 1)), (1, (1, 0)))),
        lagrangian.OptimizerConfig(restarts=2),
        lagrangian.maximize(Hypergraph(3, ((0, 1), (1, 2)))),
        gen,
        seqdensity.density_estimate(gen, 1),
        seqdensity.sigma_t(gen, 3, i_range=(0, 1)),
        triangle_free,
        record,
        turansearch.DensityBound(triangle_free, (record,)),
    ]


def field_values(obj) -> tuple:
    return tuple(getattr(obj, name) for name in FIELDS[type(obj)][0])


def digest(obj) -> str:
    text = f"{obj!r}\n{field_values(obj)!r}"
    return hashlib.sha256(text.encode()).hexdigest()


# recorded while the classes were frozen dataclasses
DIGESTS = {
    "EdgeTypeSet":
        "9bdddccfea3d9eced5411bcc3b66c2e81e0ad272734856db8787314c0c005011",
    "Hypergraph":
        "3e716d953713eeca6a5f71b676664c4b9832a470dae3d6c449754928159c861b",
    "Pattern":
        "911de1e7fc42c564a9556e529b4cb6f34bd3682ddbfde6ef2f5c8d0fa159c8bb",
    "SimplexPoint":
        "18300067ff136e5c7720bab61d65b5c5c84922003914409a3b96fcab7ec85581",
    "_Row":
        "8c468cbc0adf4a66a3e9a66bd81540607004e7b201043b95c935f7843652915a",
    "WeakJumpWitness":
        "d7a6e92293b65de17786c2cd9f599a18515f238595fec9260c570ad270e6a4aa",
    "LambdaWitness":
        "66ee1441c1b240341cd4b9ab94a288162435a49895a18b6ee6f5fa0c41e2b486",
    "PiEvidence":
        "f53b72b5243a95e4e3cb2c3ea4f27dac9906ecf47788b45e3740284dd0cb7094",
    "JumpCertificate":
        "b4418dd4baa26c77a84bba781fdf8bc7c42aebbf6515ca5b7c380d536a5ce99e",
    "PolynomialForm":
        "5ab554a140737ac2c639f401e58e0e86385acacd7b8cfe80546bb6e2ee336b49",
    "OptimizerConfig":
        "ae0385c9b29069b0e0c272337bd9660035c91eb3ff82e3d7be3d0469d6277be6",
    "LagrangianResult":
        "62abe3da091f5154569163cee57eca93e674cd13b944ccc4750799900ff2f080",
    "SequenceGenerator":
        "e0849a3bc41a25ec1bdd5cf50b908324cb6663f8e3fe5f4138ca9c11021ef09d",
    "DensityTrend":
        "7eb8ac6940ba786151d15c09529feaa7b03c61892fddad6e71e1bb332c0fe0e7",
    "UpperDensityReport":
        "168f0c2214daf518ee4eddfef4f686707b14df6c413833e9daf46069d504f042",
    "ForbiddenFamily":
        "5009b272f880ae33ecaf36273eb13b768b3c32a572d9f23965218f77e2912323",
    "PiRecord":
        "e71b6cf162067286f7f4477b861a8e0bee8ac5fc35a412e53a5f72ba3d1e2e05",
    "DensityBound":
        "a3f016c6b6d114ec5bb4338fa47ad8d67ddec93f15ac0c2c6003d05179f09435",
}


@pytest.fixture(scope="module")
def instances():
    return corpus()


def test_the_corpus_covers_every_class(instances):
    assert [type(obj) for obj in instances] == list(FIELDS)
    assert len(FIELDS) == 18


def test_fields_and_parameters():
    for cls, (fields, parameters) in FIELDS.items():
        assert cls._fields == fields, cls.__name__
        found = tuple(
            (p.name, REQUIRED if p.default is p.empty else p.default)
            for p in inspect.signature(cls).parameters.values()
        )
        assert found == parameters, cls.__name__


def test_repr_and_field_values_unchanged(instances):
    assert {type(obj).__name__: digest(obj) for obj in instances} == DIGESTS


def test_hash_is_that_of_the_field_values(instances):
    for obj in instances:
        assert hash(obj) == hash(field_values(obj)), type(obj).__name__


def test_equal_values_compare_equal(instances):
    for obj, again in zip(instances, corpus()):
        assert obj is not again
        assert obj == again and not obj != again, type(obj).__name__
        assert hash(obj) == hash(again)


def test_values_that_differ_in_one_field_differ():
    assert Hypergraph(2) != Hypergraph(3)
    assert Hypergraph(2, [(0,)]) != Hypergraph(2, [(1,)])
    assert EdgeTypeSet((1,)) != EdgeTypeSet((2,))
    assert lagrangian.OptimizerConfig(seed=1) != lagrangian.OptimizerConfig(seed=2)


def test_pickling_keeps_the_value(instances):
    for obj in instances:
        copy = pickle.loads(pickle.dumps(obj))
        assert type(copy) is type(obj)
        assert copy == obj and repr(copy) == repr(obj)
        assert hash(copy) == hash(obj)


def test_no_field_can_be_assigned_or_deleted():
    for obj in corpus():
        before = field_values(obj)
        for name in (*FIELDS[type(obj)][0], "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert field_values(obj) == before
        assert not hasattr(obj, "not_a_field")


def test_classes_with_equal_field_values_differ():
    # (1,) == (Fraction(1),), so the two share their field values and hash
    sizes, weights = EdgeTypeSet((1,)), SimplexPoint((1,))
    assert field_values(sizes) == field_values(weights)
    assert hash(sizes) == hash(weights)
    assert sizes != weights and not sizes == weights
    assert sizes.__eq__(weights) is NotImplemented
    assert len({sizes, weights}) == 2
    graph, pattern = Hypergraph(1), Pattern(1, ())
    assert field_values(graph) == field_values(pattern) and graph != pattern
    assert graph.__eq__((1, ())) is NotImplemented and graph != (1, ())
