import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given

from strategies import hypergraphs, patterns, rational_points
from turanlab import serialize as ser
from turanlab.errors import (
    CertificateError,
    OptimizerFailureError,
    ParseError,
    UnsupportedSizeError,
)
from turanlab.hypercore import (
    EdgeTypeSet,
    Hypergraph,
    SimplexPoint,
    chain_graph,
    complete,
)
from turanlab.jumpcert import (
    JumpCertificate,
    LambdaWitness,
    PiEvidence,
    build_certificate,
    classify12,
    weak_jump_witness,
)
from turanlab.lagrangian import OptimizerConfig, maximize
from turanlab.seqdensity import SequenceGenerator, sigma_t
from turanlab.turansearch import ForbiddenFamily, density_sequence

F = Fraction
FAST = OptimizerConfig(restarts=6, seed=0)
# sha256 of encoding_corpus(), one canonical JSON line per encoded value
CORPUS_DIGEST = "269150cef9f936f4080a7b6115bd69ca849c6a97f9f382d4f12e52d72ad81120"


def encoding_corpus():
    """(encoder name, encoded value) for every encoder on a fixed corpus."""
    rng = random.Random(7)
    size_sets = ((1, 2), (2,), (2, 3), (3,), (1, 2, 3))
    graphs = []
    while len(graphs) < 40:
        n = rng.randint(2, 5)
        sizes = rng.choice(size_sets)
        edges = [
            e for r in sizes for e in itertools.combinations(range(n), r)
            if rng.random() < 0.4
        ]
        if edges:
            graphs.append(Hypergraph(n, edges))
    for g in graphs:
        yield "graph", ser.graph_to_obj(g)
        yield "result", ser.result_to_obj(maximize(g, FAST))
    k4_minus = Hypergraph(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    with pytest.raises(OptimizerFailureError) as failure:
        maximize(k4_minus, OptimizerConfig(restarts=0, max_iters=1))
    yield "result", ser.result_to_obj(failure.value.best_so_far)

    for i in range(481):
        alpha = F(i, 240)
        yield "classify", ser.classify_to_obj(classify12(alpha))
        try:
            witness = weak_jump_witness(alpha)
        except UnsupportedSizeError:  # a family member past the vertex cap
            continue
        if witness is not None:
            yield "weak_witness", ser.weak_witness_to_obj(witness)

    pairs = EdgeTypeSet((2,))
    triangle = complete(3, (2,))
    chain_family = ForbiddenFamily(EdgeTypeSet((1, 2)), (chain_graph(),))
    induced = ForbiddenFamily(pairs, (triangle,), mode="induced")
    certs = (
        build_certificate(F(11, 10), chain_family, strict=True, config=FAST),
        build_certificate(F(1), chain_family, config=FAST),
        build_certificate(F(3, 5), induced, config=FAST, exhaustive_n=5),
    )
    for cert in certs:
        yield "certificate", ser.certificate_to_obj(cert)
        yield "evidence", ser.evidence_to_obj(cert.pi_evidence)
    bound = density_sequence(ForbiddenFamily(pairs, (triangle,)), 5)
    yield "bound", ser.bound_to_obj(bound)
    for record in bound.records:
        yield "record", ser.record_to_obj(record)
    yield "family", ser.family_to_obj(induced)
    yield "family", ser.family_to_obj(chain_family)

    turan2 = SequenceGenerator.turan_generator(2, n_start=4, n_step=2)
    chain_seq = SequenceGenerator.blow_up_generator(
        chain_graph(), (F(3, 4), F(1, 4)), n_start=4, n_step=4
    )
    for gen in (turan2, chain_seq):
        yield "genspec", ser.genspec_to_obj(gen)
        for t in (2, 3, 5):
            yield "report", ser.report_to_obj(sigma_t(gen, t, i_range=(0, 4)))
    yield "point", ser.point_to_obj(SimplexPoint((F(1, 3), F(2, 3))))
    yield "point", ser.point_to_obj(SimplexPoint((0.25, 0.75)))
    yield "point", ser.point_to_obj(SimplexPoint((1,)))

    # built directly with plain int rationals
    evidence = PiEvidence("asserted", 1, "known exactly")
    yield "evidence", ser.evidence_to_obj(evidence)
    witness = LambdaWitness(chain_graph(), SimplexPoint((F(3, 4), F(1, 4))))
    cert = JumpCertificate(1, "jump", chain_family, (witness,), evidence)
    yield "certificate", ser.certificate_to_obj(cert)


class TestFractions:
    def test_always_shows_denominator(self):
        assert ser.format_fraction(F(9, 8)) == "9/8"
        assert ser.format_fraction(F(2)) == "2/1"
        assert ser.format_fraction(F(0)) == "0/1"
        assert ser.format_fraction(F(-1, 3)) == "-1/3"

    def test_lowest_terms(self):
        assert ser.format_fraction(F(6, 8)) == "3/4"

    def test_parse_accepts_integers(self):
        assert ser.parse_fraction("3") == F(3)
        assert ser.parse_fraction(3) == F(3)

    @pytest.mark.parametrize("bad", ["a/b", "1/0", "1.5", "3/4/5", None, 1.5])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ParseError):
            ser.parse_fraction(bad)

    def test_parse_rejects_booleans(self):
        # bool is a subclass of int, but a JSON true is no rational
        for flag in (True, False):
            with pytest.raises(ParseError, match="got bool"):
                ser.parse_fraction(flag)
        obj = {"grade": "asserted", "value": True, "detail": "known exactly"}
        with pytest.raises(ParseError, match="got bool"):
            ser.evidence_from_obj(obj)
        spec = {"kind": "blowup", "params": {
            "base": {"n": 2, "edges": [[0, 1]]},
            "proportions": [True, False], "ns": [4],
        }}
        with pytest.raises(ParseError, match="got bool"):
            ser.genspec_from_obj(spec)

    @given(rational_points(n=3))
    def test_round_trip(self, p):
        for w in p.weights:
            assert ser.parse_fraction(ser.format_fraction(w)) == w


class TestCanonicalDumps:
    def test_sorted_compact(self):
        assert ser.dumps_canonical({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_identical_values_identical_bytes(self):
        a = ser.graph_to_obj(chain_graph())
        b = ser.graph_to_obj(chain_graph())
        assert ser.dumps_canonical(a) == ser.dumps_canonical(b)


class TestGraphObjects:
    @given(hypergraphs())
    def test_round_trip(self, g):
        assert ser.graph_from_obj(ser.graph_to_obj(g)) == g

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ParseError, match="duplicate"):
            ser.graph_from_obj({"n": 2, "edges": [[0, 1], [1, 0]]})

    def test_rejects_unknown_and_missing_keys(self):
        with pytest.raises(ParseError, match="unknown"):
            ser.graph_from_obj({"n": 1, "edges": [], "color": 3})
        with pytest.raises(ParseError, match="missing"):
            ser.graph_from_obj({"n": 1})

    def test_rejects_wrong_types(self):
        with pytest.raises(ParseError):
            ser.graph_from_obj({"n": "2", "edges": []})
        with pytest.raises(ParseError):
            ser.graph_from_obj({"n": 2, "edges": [[0.5]]})
        with pytest.raises(ParseError):
            ser.graph_from_obj({"n": 2, "edges": "01"})
        with pytest.raises(ParseError, match="^family.mode: expected a string$"):
            ser.family_from_obj({"ambient": [2], "members": [], "mode": 3})

    def test_domain_errors_become_parse_errors(self):
        with pytest.raises(ParseError):
            ser.graph_from_obj({"n": 2, "edges": [[0, 5]]})


class TestPatternAndPointObjects:
    @given(patterns())
    def test_pattern_round_trip(self, p):
        assert ser.pattern_from_obj(ser.pattern_to_obj(p)) == p

    def test_pattern_shape(self):
        from turanlab.hypercore import Pattern

        obj = ser.pattern_to_obj(Pattern(2, ((2, 0), (1, 1))))
        assert obj == {"n": 2, "edges": [{"mults": [1, 1]}, {"mults": [2, 0]}]}

    def test_pattern_rejects_bare_edge_lists(self):
        with pytest.raises(ParseError):
            ser.pattern_from_obj({"n": 2, "edges": [[2, 0]]})

    @given(rational_points(max_n=4))
    def test_rational_point_round_trip(self, p):
        assert ser.point_from_obj(ser.point_to_obj(p)) == p

    def test_float_points_stay_floats(self):
        back = ser.point_from_obj([0.5, 0.5])
        assert not back.is_rational

    def test_nan_point_refused(self):
        # Python's json reads the NaN literal as a float
        with pytest.raises(ParseError, match="point: NaN"):
            ser.point_from_obj(json.loads("[NaN, 1.0]"))

    def test_rejects_mixed_points(self):
        with pytest.raises(ParseError, match="mix"):
            ser.point_from_obj(["1/2", 0.5])

    def test_empty_point_refused(self):
        with pytest.raises(ParseError, match="^point: empty weight list$"):
            ser.point_from_obj([])


class TestFamilyAndConfig:
    def test_family_round_trip(self):
        fam = ForbiddenFamily(
            EdgeTypeSet((1, 2)), (chain_graph(),), mode="induced"
        )
        assert ser.family_from_obj(ser.family_to_obj(fam)) == fam

    def test_mode_defaults_to_subgraph(self):
        obj = {"ambient": [2], "members": []}
        assert ser.family_from_obj(obj).mode == "subgraph"


class TestResultAndBound:
    def test_result_fields(self):
        obj = ser.result_to_obj(maximize(chain_graph(), FAST))
        assert set(obj) == {
            "value", "maximizer", "support", "certified_lower_bound",
            "certificate_point", "stationarity_residual", "value_exact", "method",
        }
        assert obj["certified_lower_bound"] == "9/8"
        assert obj["certificate_point"] == ["3/4", "1/4"]
        assert obj["support"] == [0, 1]
        assert obj["value_exact"] == "9/8"
        assert obj["method"] == "exact_kkt"

    def test_bound_json_has_no_timing(self):
        family = ForbiddenFamily(EdgeTypeSet((2,)), (complete(3, (2,)),))
        text = ser.dumps_canonical(ser.bound_to_obj(density_sequence(family, 4)))
        assert "elapsed" not in text and "seconds" not in text

    def test_bound_json_byte_stable(self):
        family = ForbiddenFamily(EdgeTypeSet((2,)), (complete(3, (2,)),))
        a = ser.dumps_canonical(ser.bound_to_obj(density_sequence(family, 4)))
        b = ser.dumps_canonical(ser.bound_to_obj(density_sequence(family, 4)))
        assert a == b

    def test_bound_tsv_table(self):
        family = ForbiddenFamily(EdgeTypeSet((2,)), (complete(3, (2,)),))
        lines = ser.bound_to_tsv(density_sequence(family, 4)).split("\n")
        assert lines[0] == "n\tpi_n\tcount\tseconds"
        row = lines[-1].split("\t")
        assert row[0] == "4" and row[1] == "2/3"
        float(row[3])  # seconds parses as a number


class TestClassifyAndWitness:
    def test_classify_obj(self):
        obj = ser.classify_to_obj(classify12(F(11, 10)))
        assert obj["verdict"] == "strong_jump"
        assert obj["interval"] == ["1/1", "9/8"]

    def test_witness_obj(self):
        obj = ser.weak_witness_to_obj(weak_jump_witness(F(9, 8)))
        assert obj["kind"] == "lambda_graph"
        assert obj["point"] == ["3/4", "1/4"]


class TestCertificateObjects:
    def _cert(self):
        fam = ForbiddenFamily(EdgeTypeSet((1, 2)), (chain_graph(),))
        return build_certificate(F(11, 10), fam, strict=True, config=FAST)

    def test_round_trip_reverifies(self):
        obj = ser.certificate_to_obj(self._cert())
        cert = ser.certificate_from_obj(obj)
        assert cert.gap == F(1, 40)

    def test_exhaustive_evidence_round_trip(self):
        # the only certificate kind whose evidence carries its n
        path3 = Hypergraph(3, [(0, 1), (1, 2)])
        fam = ForbiddenFamily(EdgeTypeSet((2,)), (path3,))
        cert = build_certificate(F(1, 4), fam, exhaustive_n=5)
        assert cert.pi_evidence.value == F(1, 5) and cert.pi_evidence.n == 5
        assert cert.gap == F(1, 4)
        assert ser.certificate_from_obj(ser.certificate_to_obj(cert)) == cert

    def test_tampered_witness_value_rejected(self):
        obj = json.loads(ser.dumps_canonical(ser.certificate_to_obj(self._cert())))
        obj["lambda_witnesses"][0]["value"] = "5/4"
        with pytest.raises(ParseError, match="recomputed"):
            ser.certificate_from_obj(obj)

    def test_tampered_alpha_rejected(self):
        obj = json.loads(ser.dumps_canonical(ser.certificate_to_obj(self._cert())))
        obj["alpha"] = "9/8"
        del obj["gap"]
        with pytest.raises(ParseError):
            ser.certificate_from_obj(obj)

    def test_tampered_gap_rejected(self):
        obj = json.loads(ser.dumps_canonical(ser.certificate_to_obj(self._cert())))
        obj["gap"] = "1/2"
        with pytest.raises(ParseError, match="gap"):
            ser.certificate_from_obj(obj)

    def test_tampered_closed_form_evidence_rejected(self):
        obj = json.loads(ser.dumps_canonical(ser.certificate_to_obj(self._cert())))
        obj["pi_evidence"]["value"] = "1/2"
        with pytest.raises(ParseError, match="catalog"):
            ser.certificate_from_obj(obj)

    def test_raised_evidence_refused_with_the_builder_wording(self):
        # asserted evidence skips the catalog check, so the certificate's
        # own condition check is what refuses it
        fam = ForbiddenFamily(EdgeTypeSet((1, 2)), (chain_graph(),))
        alpha = F(11, 10)
        cert = build_certificate(
            alpha, fam, strict=True, config=FAST,
            pi_evidence=PiEvidence("asserted", F(1), "known exactly"),
        )
        obj = json.loads(ser.dumps_canonical(ser.certificate_to_obj(cert)))
        obj["pi_evidence"]["value"] = ser.format_fraction(alpha)
        with pytest.raises(CertificateError) as built:
            build_certificate(
                alpha, fam, strict=True, config=FAST,
                pi_evidence=PiEvidence("asserted", alpha, "known exactly"),
            )
        (failure,) = built.value.failures
        assert "strict condition fails" in failure
        with pytest.raises(ParseError) as parsed:
            ser.certificate_from_obj(obj)
        assert failure in str(parsed.value)

    def test_float_witness_point_rejected(self):
        obj = json.loads(ser.dumps_canonical(ser.certificate_to_obj(self._cert())))
        obj["lambda_witnesses"][0]["point"] = [0.75, 0.25]
        with pytest.raises(ParseError, match="rational"):
            ser.certificate_from_obj(obj)


class TestGenspecObjects:
    def test_round_trip(self):
        gen = SequenceGenerator.turan_generator(3, n_start=6, n_step=3)
        obj = ser.genspec_to_obj(gen)
        assert obj == {
            "kind": "turan",
            "params": {"parts": 3, "n_start": 6, "n_step": 3},
        }
        assert ser.genspec_from_obj(obj) == gen

    def test_equal_blowup_of_the_pair_clique_is_spelled_turan(self):
        gen = SequenceGenerator.blow_up_generator(
            complete(3, (2,)), (F(1, 3),) * 3, n_start=6, n_step=3
        )
        text = ser.dumps_canonical(ser.genspec_to_obj(gen))
        turan = SequenceGenerator.turan_generator(3, n_start=6, n_step=3)
        assert text == ser.dumps_canonical(ser.genspec_to_obj(turan))
        assert ser.genspec_from_obj(json.loads(text)) == gen

    def test_one_vertex_base_keeps_the_blowup_spelling(self):
        # complete(1, (2,)) is one vertex and no edge; "parts": 1 would not
        # parse back
        for base in (complete(1, (2,)), Hypergraph(1, ((0,),))):
            gen = SequenceGenerator.blow_up_generator(base, (F(1),), ns=(3,))
            obj = ser.genspec_to_obj(gen)
            assert obj["kind"] == "blowup"
            assert ser.genspec_from_obj(obj) == gen

    def test_blowup_round_trip(self):
        gen = SequenceGenerator.blow_up_generator(
            chain_graph(), (F(3, 4), F(1, 4)), ns=(8, 12)
        )
        obj = ser.genspec_to_obj(gen)
        assert obj["kind"] == "blowup"
        assert obj["params"]["proportions"] == ["3/4", "1/4"]
        assert ser.genspec_from_obj(obj) == gen

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="kind"):
            ser.genspec_from_obj({"kind": "spiral", "params": {"ns": [3]}})

    def test_parts_only_for_turan(self):
        with pytest.raises(ParseError):
            ser.genspec_from_obj(
                {"kind": "constant", "params": {"parts": 2, "ns": [3]}}
            )
        with pytest.raises(ParseError):
            ser.genspec_from_obj(
                {"kind": "blowup", "params": {"parts": 2, "ns": [3]}}
            )

    # frozen: the texts, and which of several faults is named first
    @pytest.mark.parametrize("spec,text", [
        ({"kind": "spiral", "params": {"ns": [3]}},
         "generator.kind: expected blowup, turan, union, or constant, got 'spiral'"),
        ({"kind": "blowup", "params": "x"},
         "generator.params: expected an object"),
        ({"kind": "blowup", "params": {"parts": 2, "ns": [3]}},
         "generator.params: missing keys ['base', 'proportions']"),
        ({"kind": "turan", "params": {"parts": 1, "ns": [4]}},
         "generator: parts must be >= 2, not 1"),
        ({"kind": "turan", "params": {"parts": "x", "ns": "bad"}},
         "generator.params.parts: expected an integer"),
        ({"kind": "blowup", "params": {"base": {"n": 2, "edges": [[0]]},
                                       "proportions": ["1/2"], "ns": "bad"}},
         "generator.params.ns: expected a list"),
        ({"kind": "blowup", "params": {"base": {"n": 2, "edges": [[0]]},
                                       "proportions": ["1/2"], "ns": [4]}},
         "generator: one proportion per base vertex"),
        ({"kind": "turan", "params": {"parts": 2, "ns": [4], "n_start": 2}},
         "generator: give either ns or a start/step rule"),
        ({"kind": "constant", "params": {"graph": {"n": 2, "edges": []},
                                         "n_start": "4", "n_step": 1}},
         "generator.params.n_start: expected an integer"),
        ({"kind": "turan", "params": {"parts": 2, "ns": None,
                                      "n_start": 3, "n_step": 0}},
         "generator: n_step must be >= 1, not 0"),
        ({"kind": "union", "params": {"components": [
            {"kind": "turan", "params": {"parts": 2, "ns": [4]}}], "ns": [4]}},
         "generator.params: unknown keys ['ns']"),
        ({"kind": "union", "params": {"components": [
            {"kind": "turan", "params": {"parts": "x", "ns": [4]}},
            {"kind": "turan", "params": {"parts": 2, "ns": [4]}}]}},
         "generator.params.components[0].params.parts: expected an integer"),
        ({"kind": "union", "params": {"components": [
            {"kind": "turan", "params": {"parts": 2, "ns": [4]}}]}},
         "generator: union needs at least two components"),
    ])
    def test_error_texts(self, spec, text):
        with pytest.raises(ParseError) as err:
            ser.genspec_from_obj(spec)
        assert str(err.value) == text

    def test_flat_keys_rejected(self):
        with pytest.raises(ParseError):
            ser.genspec_from_obj({"kind": "turan", "parts": 2, "ns": [4]})

    def test_union_round_trip(self):
        u = SequenceGenerator.union_generator(
            SequenceGenerator.constant_generator(
                Hypergraph(3, ((0,),)), ns=(3, 4)
            ),
            SequenceGenerator.constant_generator(
                Hypergraph(3, ((0, 1),)), ns=(3, 4)
            ),
        )
        assert ser.genspec_from_obj(ser.genspec_to_obj(u)) == u

    def test_report_obj(self):
        gen = SequenceGenerator.turan_generator(2, ns=(4, 6))
        obj = ser.report_to_obj(sigma_t(gen, 3, i_range=(0, 1)))
        assert obj["value"] == "2/3"
        assert obj["exhaustive"] is True
        assert "samples" not in obj
        assert set(obj["attaining"]) == {"member", "subset"}


@pytest.fixture(scope="module")
def corpus():
    return list(encoding_corpus())


class TestEncoderCorpus:
    KEYS = {
        "graph": {"n", "edges"},
        "result": {
            "value", "maximizer", "support", "certified_lower_bound",
            "certificate_point", "stationarity_residual", "value_exact", "method",
        },
        "classify": {"alpha", "verdict", "matched_form", "k", "interval", "note"},
        "weak_witness": {
            "alpha", "kind", "description", "graph", "point", "family", "pi_value",
        },
        "certificate": {
            "alpha", "kind", "family", "lambda_witnesses", "pi_evidence", "gap",
        },
        "evidence": {"grade", "value", "detail", "n"},
        "bound": {"family", "mode", "records"},
        "record": {"n", "pi_n", "extremal", "count", "exhaustive"},
        "family": {"ambient", "members", "mode"},
        "genspec": {"kind", "params"},
        "report": {"t", "value", "attaining", "h_values", "exhaustive", "i_range"},
    }

    def test_bytes_are_pinned(self, corpus):
        digest = hashlib.sha256()
        for _, obj in corpus:
            digest.update(ser.dumps_canonical(obj).encode() + b"\n")
        assert digest.hexdigest() == CORPUS_DIGEST

    def test_key_sets(self, corpus):
        seen = set()
        for name, obj in corpus:
            seen.add(name)
            if name == "point":
                assert isinstance(obj, list)
                continue
            assert set(obj) == self.KEYS[name], name
            if name == "certificate":
                for w in obj["lambda_witnesses"]:
                    assert set(w) == {"member", "point", "value"}
        assert seen == set(self.KEYS) | {"point"}

    def test_plain_int_rationals_print_as_fractions(self, corpus):
        *_, (_, evidence), (_, cert) = corpus
        assert evidence["value"] == "1/1"
        assert cert["alpha"] == "1/1" and cert["pi_evidence"]["value"] == "1/1"
        assert cert["gap"] == "1/8"
