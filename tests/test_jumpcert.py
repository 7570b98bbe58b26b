import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from turanlab import jumpcert
from turanlab import serialize as ser
from turanlab.errors import (
    CertificateError,
    InvalidArgumentError,
    OutOfRangeError,
    UnsupportedSizeError,
)
from turanlab.hypercore import (
    EdgeTypeSet,
    Hypergraph,
    SimplexPoint,
    chain_graph,
    complete,
    marked_clique,
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
from turanlab.lagrangian import OptimizerConfig, certify_at
from turanlab.turansearch import ForbiddenFamily, pi_n

F = Fraction
AMBIENT = EdgeTypeSet((1, 2))
FAST = OptimizerConfig(restarts=8, seed=0)
WEAK_GRID = oracles.weak_jump_values(5000)
# matched_form -> (L, s): the weak values of a row are L - s/(k+1)
_WEAK_ROWS = {
    "k/(k+1)": (F(1), F(1)),
    "1+k/(4(k+1))": (F(5, 4), F(1, 4)),
    "(2k+1)/(k+1)": (F(2), F(1)),
}


def _fractions_in_range(q_max):
    """p/q in [0, 2] with 1 <= q <= q_max."""
    return st.integers(min_value=1, max_value=q_max).flatmap(
        lambda q: st.builds(F, st.integers(min_value=0, max_value=2 * q), st.just(q))
    )


def _assert_on_its_row(result):
    """A weak result is a limit or satisfies L - s/(k+1) = alpha."""
    assert result.verdict == "weak_jump"
    if result.k is None:
        assert result.alpha in (1, F(5, 4), 2)
        assert result.matched_form == str(result.alpha)
    else:
        limit, step = _WEAK_ROWS[result.matched_form]
        assert limit - step / (result.k + 1) == result.alpha


class TestClassify12:
    def test_every_closed_form_value_is_weak(self):
        for alpha in oracles.weak_jump_values(100):
            assert classify12(alpha).verdict == "weak_jump", alpha

    def test_grid_agrees_with_oracle_set(self):
        for i in range(10001):
            alpha = F(i, 5000)
            expect = "weak_jump" if alpha in WEAK_GRID else "strong_jump"
            assert classify12(alpha).verdict == expect, alpha

    # frozen: hand-solved interval endpoints
    @pytest.mark.parametrize(
        "alpha,interval",
        [
            (F(17, 19), (F(8, 9), F(9, 10))),
            (F(11, 10), (F(1), F(9, 8))),
            (F(23, 20), (F(9, 8), F(7, 6))),
            (F(13, 10), (F(5, 4), F(3, 2))),
            (F(16, 9), (F(7, 4), F(9, 5))),
            (F(1, 3), (F(0), F(1, 2))),
        ],
    )
    def test_strong_intervals(self, alpha, interval):
        result = classify12(alpha)
        assert result.verdict == "strong_jump"
        assert result.interval == interval
        # the surrounding endpoints are themselves weak
        assert classify12(interval[0]).verdict == "weak_jump"
        assert classify12(interval[1]).verdict == "weak_jump"
        assert interval[0] < alpha < interval[1]

    def test_interval_ends_are_memoised_per_row_and_k(self, monkeypatch):
        # the 9 950 strong alpha on i/5000 share 324 (row, k) intervals, and
        # each interval's two ends are built once
        calls = 0
        value = jumpcert._Row.value

        def counted(row, k):
            nonlocal calls
            calls += 1
            return value(row, k)

        monkeypatch.setattr(jumpcert._Row, "value", counted)
        jumpcert._interval.cache_clear()
        for i in range(10001):
            classify12(F(i, 5000))
        assert calls <= 2 * 324
        # below a row's first weak value the interval starts at the limit of
        # the row before, whether the memo is cold or warm
        jumpcert._interval.cache_clear()
        for _ in ("cold", "warm"):
            assert classify12(F(17, 16)).interval == (1, F(9, 8))
            assert classify12(F(11, 8)).interval == (F(5, 4), F(3, 2))

    @pytest.mark.parametrize(
        "alpha,form,k",
        [
            (F(0), "k/(k+1)", 0),
            (F(9, 10), "k/(k+1)", 9),
            (F(9, 8), "1+k/(4(k+1))", 1),
            (F(7, 4), "(2k+1)/(k+1)", 3),
        ],
    )
    def test_matched_forms(self, alpha, form, k):
        result = classify12(alpha)
        assert result.matched_form == form
        assert result.k == k

    def test_endpoints_have_notes(self):
        assert classify12(F(0)).note
        assert classify12(F(2)).note
        assert classify12(F(1)).note
        assert classify12(F(5, 4)).note

    def test_result_is_an_immutable_record(self):
        # a limit, a weak value on its row, a strong value
        keys = ["alpha", "verdict", "matched_form", "k", "interval", "note"]
        for alpha in (F(5, 4), F(9, 8), F(17, 19)):
            result = classify12(alpha)
            with pytest.raises(AttributeError):
                result.verdict = "strong_jump"
            again = classify12(F(alpha.numerator * 3, alpha.denominator * 3))
            assert again == result and hash(again) == hash(result)
            assert repr(result).startswith("ClassifyResult(alpha=Fraction(")
            assert all(f"{key}=" in repr(result) for key in keys)
            obj = ser.classify_to_obj(result)
            assert sorted(obj) == sorted(keys)
            assert obj["alpha"] == f"{alpha.numerator}/{alpha.denominator}"
        assert classify12(F(17, 19)).interval == (F(8, 9), F(9, 10))

    def test_rejects_floats_and_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            classify12(1.1)
        with pytest.raises(OutOfRangeError):
            classify12(F(21, 10))
        with pytest.raises(OutOfRangeError):
            classify12(F(-1, 10))

    def test_rejects_bools(self):
        # a JSON true is no rational either (serialize.parse_fraction)
        for read in (classify12, weak_jump_witness):
            with pytest.raises(InvalidArgumentError, match="bool"):
                read(True)
        with pytest.raises(InvalidArgumentError, match="bool"):
            build_certificate(
                True, ForbiddenFamily(AMBIENT, (chain_graph(),)), config=FAST
            )

    def test_zero_denominator_is_an_invalid_argument(self):
        # text is parsed only by serialize.parse_fraction; the library
        # refuses a string before reading it
        for read in (classify12, weak_jump_witness):
            with pytest.raises(InvalidArgumentError) as info:
                read("1/0")
            assert str(info.value) == "alpha must be a number, not '1/0'"
        with pytest.raises(InvalidArgumentError):
            build_certificate(
                "1/0", ForbiddenFamily(AMBIENT, (chain_graph(),)), config=FAST
            )

    @settings(max_examples=100)
    @given(_fractions_in_range(q_max=500))
    def test_agrees_with_the_referee(self, alpha):
        result = classify12(alpha)
        got = (
            result.verdict, result.matched_form, result.k, result.interval,
            result.note,
        )
        assert got == oracles.brute_classify12(alpha)
        assert result.alpha == alpha

    @given(_fractions_in_range(q_max=10**30))
    def test_large_denominators(self, alpha):
        result = classify12(alpha)
        if result.verdict == "weak_jump":
            _assert_on_its_row(result)
            return
        lo, hi = result.interval
        assert lo < alpha < hi
        for end in (lo, hi):
            _assert_on_its_row(classify12(end))

    @given(
        st.sampled_from(list(_WEAK_ROWS)),
        st.integers(min_value=1, max_value=10**30),
    )
    def test_large_k_weak_values(self, form, k):
        limit, step = _WEAK_ROWS[form]
        result = classify12(limit - step / (k + 1))
        assert (result.verdict, result.matched_form, result.k) == (
            "weak_jump", form, k
        )

    def test_solves_membership_without_fraction_arithmetic(self, monkeypatch):
        # the row, k and the interval ends come from integer arithmetic:
        # Fraction subtraction, division and comparison were most of the
        # time of a call
        grid = [F(i, 5000) for i in range(10001)]
        calls = []
        for name in (
            "__sub__", "__rsub__", "__truediv__", "__rtruediv__", "__lt__",
            "__le__",
        ):
            method = getattr(F, name)
            monkeypatch.setattr(
                F, name,
                lambda a, b, name=name, method=method: calls.append(name)
                or method(a, b),
            )
        for alpha in grid:
            classify12(alpha)
        assert calls == []


class TestWeakJumpWitness:
    def test_strong_jumps_have_no_witness(self):
        assert weak_jump_witness(F(11, 10)) is None

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_pair_clique_witnesses_attain_alpha(self, k):
        alpha = F(k, k + 1)
        w = weak_jump_witness(alpha)
        assert w.kind == "lambda_graph"
        assert certify_at(w.graph, w.point) == alpha

    def test_chain_witness_at_nine_eighths(self):
        w = weak_jump_witness(F(9, 8))
        assert certify_at(w.graph, w.point) == F(9, 8)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_marked_clique_family_witnesses(self, k):
        alpha = 1 + F(k, 4 * (k + 1))
        w = weak_jump_witness(alpha)
        assert w.kind == "pi_family"
        assert w.pi_value == alpha
        value, _ = known_turan_density(w.family)
        assert value == alpha

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_mixed_clique_witnesses(self, k):
        alpha = F(2 * k + 1, k + 1)
        w = weak_jump_witness(alpha)
        assert certify_at(w.graph, w.point) == alpha

    @pytest.mark.parametrize("alpha", [F(4999, 5000), F(9999, 5000)])
    def test_huge_lambda_graph_refused_before_it_is_built(self, monkeypatch, alpha):
        def no_build(*args):
            raise AssertionError("witness graph built")

        monkeypatch.setattr(jumpcert, "complete", no_build)
        assert classify12(alpha).k == 4999
        with pytest.raises(UnsupportedSizeError) as info:
            weak_jump_witness(alpha)
        assert str(info.value) == (
            f"lambda witness vertex count must be <= {MAX_WITNESS_VERTICES}, not 5000"
        )

    def test_cap_admits_its_own_size(self, monkeypatch):
        # an edgeless stand-in keeps the test fast
        monkeypatch.setattr(jumpcert, "complete", lambda t, sizes: Hypergraph(t, ()))
        w = weak_jump_witness(F(MAX_WITNESS_VERTICES - 1, MAX_WITNESS_VERTICES))
        assert w.graph.n == MAX_WITNESS_VERTICES

    def test_marked_clique_families_keep_the_labeling_cap(self):
        # a row-2 value far past the witness cap goes to its pi-family
        with pytest.raises(UnsupportedSizeError) as info:
            weak_jump_witness(1 + F(4999, 4 * 5000))
        assert str(info.value) == "witness family vertex count must be <= 16, not 5001"

    def test_unit_density_family(self):
        w = weak_jump_witness(F(1))
        assert w.kind == "pi_family"
        value, _ = known_turan_density(w.family)
        assert value == F(1)


class TestKnownTuranDensity:
    # frozen: the closed-form catalog, cross-checked at small n by search
    @pytest.mark.parametrize(
        "family,value",
        [
            (ForbiddenFamily(AMBIENT, (chain_graph(),)), F(1)),
            (ForbiddenFamily(AMBIENT, (complete(2, (1, 2)),)), F(5, 4)),
            (ForbiddenFamily(AMBIENT, (complete(4, (1, 2)),)), F(5, 3)),
            (ForbiddenFamily(EdgeTypeSet((2,)), (complete(3, (2,)),)), F(1, 2)),
            (
                ForbiddenFamily(
                    AMBIENT, (Hypergraph(1, ((0,),)), complete(3, (2,)))
                ),
                F(1, 2),
            ),
            (
                ForbiddenFamily(AMBIENT, (marked_clique(4), complete(2, (1, 2)))),
                F(7, 6),
            ),
            (ForbiddenFamily(AMBIENT, ()), F(2)),
        ],
    )
    def test_catalog(self, family, value):
        got = known_turan_density(family)
        assert got is not None and got[0] == value

    def test_unrecognized_family(self):
        path3 = Hypergraph(3, ((0, 1), (1, 2)))
        assert known_turan_density(
            ForbiddenFamily(EdgeTypeSet((2,)), (path3,))
        ) is None
        assert known_turan_density(
            ForbiddenFamily(AMBIENT, (chain_graph(),), mode="induced")
        ) is None

    def test_recognizes_relabeled_members(self):
        relabeled = Hypergraph(2, ((1,), (0, 1)))
        got = known_turan_density(ForbiddenFamily(AMBIENT, (relabeled,)))
        assert got is not None and got[0] == F(1)

    # every catalogue family with members on at most 4 vertices
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize(
        "members,value",
        [
            ((Hypergraph(1, ((0,),)), complete(2, (2,))), F(0)),
            ((Hypergraph(1, ((0,),)), complete(3, (2,))), F(1, 2)),
            ((Hypergraph(1, ((0,),)), complete(4, (2,))), F(2, 3)),
            ((chain_graph(),), F(1)),
            ((marked_clique(3), complete(2, (1, 2))), F(9, 8)),
            ((marked_clique(4), complete(2, (1, 2))), F(7, 6)),
            ((complete(2, (1, 2)),), F(5, 4)),
            ((complete(3, (1, 2)),), F(3, 2)),
            ((complete(4, (1, 2)),), F(5, 3)),
            ((), F(2)),
        ],
        ids=[
            "k1_k2", "k1_k3", "k1_k4", "chain", "mc3_k2_12", "mc4_k2_12",
            "k2_12", "k3_12", "k4_12", "empty",
        ],
    )
    def test_catalog_upper_bounds_search(self, members, value, n):
        # pi_n decreases toward the closed form, never below it
        family = ForbiddenFamily(AMBIENT, members)
        assert known_turan_density(family)[0] == value
        assert pi_n(family, n).pi_n >= value


# frozen: sha256 over the classify12 and weak_jump_witness JSON on the grids
# i/240 and i/1001 of [0, 2], and over known_turan_density on _digest_families
GRID_DIGEST = "784dcf66a4cd866bbbf5b03b316ad2839d121aa71e124fa84bfac4201c0ab2fa"
CATALOGUE_DIGEST = "599cc278535c968841926e62efce79f40c933de8066f6c0fff0ae435f02e812d"
# weak values 1 + k/(4(k+1)) on those grids whose marked-clique family has a
# member on t = k + 2 > 16 vertices: canonical labeling refuses it, so the
# witness fails
CAPPED_WITNESSES = [F(99, 80), F(149, 120), F(299, 240), F(96, 77), F(1251, 1001)]


def _digest_families():
    """Catalogue families for t = 1..16, near misses and induced variants."""
    k1 = Hypergraph(1, ((0,),))
    k2 = complete(2, (1, 2))
    chain = chain_graph()
    pairs_only = EdgeTypeSet((2,))
    wide = EdgeTypeSet((1, 2, 3))
    families = [
        ForbiddenFamily(EdgeTypeSet(sizes), ())
        for sizes in ((1, 2), (2,), (1,), (1, 2, 3))
    ]
    families += [
        ForbiddenFamily(AMBIENT, members)
        for members in ((chain,), (k2,), (chain, k2), (k1,), (k1, chain), (k1, k2))
    ]
    for t in range(1, 17):
        pairs = complete(t, (2,))
        mixed = complete(t, (1, 2))
        families += [
            ForbiddenFamily(AMBIENT, (k1, pairs)),
            ForbiddenFamily(AMBIENT, (mixed,)),
            ForbiddenFamily(pairs_only, (pairs,)),
            ForbiddenFamily(AMBIENT, (pairs,)),
            ForbiddenFamily(AMBIENT, (k1, mixed)),
            ForbiddenFamily(AMBIENT, (k2, pairs)),
            ForbiddenFamily(AMBIENT, (chain, mixed)),
            ForbiddenFamily(wide, (mixed,)),
            ForbiddenFamily(wide, (k1, pairs)),
        ]
        if t >= 2:
            marked = marked_clique(t)
            missing_pair = Hypergraph(t, pairs.edges[1:])
            families += [
                ForbiddenFamily(AMBIENT, (marked, k2)),
                ForbiddenFamily(AMBIENT, (marked,)),
                ForbiddenFamily(AMBIENT, (marked, chain)),
                ForbiddenFamily(AMBIENT, (marked, k2, k1)),
                ForbiddenFamily(AMBIENT, (k1, missing_pair)),
                ForbiddenFamily(pairs_only, (missing_pair,)),
                ForbiddenFamily(AMBIENT, (Hypergraph(t, mixed.edges[1:]),)),
                ForbiddenFamily(AMBIENT, (marked.with_edges((1,)), k2)),
            ]
    return families + [
        ForbiddenFamily(f.ambient, f.members, "induced") for f in families
    ]


class TestCatalogueDigest:
    def test_grid_output_is_pinned(self):
        digest = hashlib.sha256()
        capped = []
        for den in (240, 1001):
            for i in range(2 * den + 1):
                alpha = F(i, den)
                obj = ser.classify_to_obj(classify12(alpha))
                try:
                    witness = weak_jump_witness(alpha)
                except UnsupportedSizeError as exc:
                    capped.append(alpha)
                    obj["witness"] = f"UnsupportedSizeError: {exc}"
                else:
                    obj["witness"] = (
                        None if witness is None else ser.weak_witness_to_obj(witness)
                    )
                digest.update(ser.dumps_canonical(obj).encode() + b"\n")
        assert capped == CAPPED_WITNESSES
        assert digest.hexdigest() == GRID_DIGEST

    def test_capped_witness_message(self):
        with pytest.raises(UnsupportedSizeError) as info:
            weak_jump_witness(F(99, 80))
        assert str(info.value) == "witness family vertex count must be <= 16, not 21"

    def test_known_densities_are_pinned(self):
        digest = hashlib.sha256()
        for family in _digest_families():
            known = known_turan_density(family)
            obj = {
                "family": ser.family_to_obj(family),
                "known": None if known is None else [
                    ser.format_fraction(known[0]), known[1]
                ],
            }
            digest.update(ser.dumps_canonical(obj).encode() + b"\n")
        assert digest.hexdigest() == CATALOGUE_DIGEST


class TestBuildCertificate:
    def test_strict_chain_family(self):
        cert = build_certificate(
            F(11, 10), ForbiddenFamily(AMBIENT, (chain_graph(),)),
            strict=True, config=FAST,
        )
        assert cert.kind == "strong_jump"
        assert cert.pi_evidence.grade == "closed_form"
        assert cert.gap == F(1, 40)

    def test_non_strict_at_the_density(self):
        cert = build_certificate(
            F(1), ForbiddenFamily(AMBIENT, (chain_graph(),)), config=FAST
        )
        assert cert.kind == "jump"
        assert cert.gap == F(1, 8)

    def test_strict_refused_at_the_density(self):
        with pytest.raises(CertificateError) as info:
            build_certificate(
                F(1), ForbiddenFamily(AMBIENT, (chain_graph(),)),
                strict=True, config=FAST,
            )
        assert any("strict" in f for f in info.value.failures)

    def test_lambda_condition_failure_is_reported(self):
        with pytest.raises(CertificateError) as info:
            build_certificate(
                F(9, 8), ForbiddenFamily(AMBIENT, (chain_graph(),)),
                strict=True, config=FAST,
            )
        assert any("lambda" in f for f in info.value.failures)

    def test_marked_clique_window(self):
        family = ForbiddenFamily(
            AMBIENT, (marked_clique(3), complete(2, (1, 2)))
        )
        points = []
        for member in family.members:
            if member.n == 2:
                points.append(SimplexPoint((F(1, 2), F(1, 2))))
            else:
                points.append(SimplexPoint((F(2, 3), F(1, 6), F(1, 6))))
        # a caller with its own points builds the certificate directly
        value, detail = known_turan_density(family)
        cert = JumpCertificate(
            F(23, 20), "strong_jump", family,
            tuple(LambdaWitness(m, p) for m, p in zip(family.members, points)),
            PiEvidence("closed_form", value, detail),
        )
        assert cert.pi_evidence.value == F(9, 8)
        assert cert.gap == F(7, 6) - F(23, 20)

    def test_exhaustive_evidence_path(self):
        path3 = Hypergraph(3, ((0, 1), (1, 2)))
        family = ForbiddenFamily(EdgeTypeSet((2,)), (path3,))
        cert = build_certificate(
            F(2, 5), family, config=FAST, exhaustive_n=5
        )
        assert cert.pi_evidence.grade == "exhaustive"
        assert cert.pi_evidence.value == F(1, 5)
        assert cert.pi_evidence.n == 5

    def test_no_evidence_available(self):
        path3 = Hypergraph(3, ((0, 1), (1, 2)))
        family = ForbiddenFamily(EdgeTypeSet((2,)), (path3,))
        with pytest.raises(CertificateError) as info:
            build_certificate(F(2, 5), family, config=FAST)
        assert any("evidence" in f for f in info.value.failures)

    def test_lambda_and_evidence_failures_arrive_together(self):
        # lambda(P3) = 1/2 is not above alpha, and no evidence is given
        path3 = Hypergraph(3, ((0, 1), (1, 2)))
        family = ForbiddenFamily(EdgeTypeSet((2,)), (path3,))
        with pytest.raises(CertificateError) as info:
            build_certificate(F(1, 2), family, config=FAST)
        failures = info.value.failures
        assert len(failures) == 2
        assert "lambda" in failures[0]
        assert "evidence" in failures[1]

    def test_asserted_evidence_is_used(self):
        family = ForbiddenFamily(AMBIENT, (chain_graph(),))
        cert = build_certificate(
            F(11, 10), family, strict=True, config=FAST,
            pi_evidence=PiEvidence("asserted", F(1), "known exactly"),
        )
        assert cert.pi_evidence.grade == "asserted"

    def test_needs_members(self):
        with pytest.raises(CertificateError):
            build_certificate(F(1, 2), ForbiddenFamily(AMBIENT, ()), config=FAST)

    def test_edgeless_member_certifies_nothing(self):
        # an edgeless member's witness is the uniform point, of value 0
        family = ForbiddenFamily(EdgeTypeSet((2,)), (Hypergraph(2, ()),))
        with pytest.raises(CertificateError) as info:
            build_certificate(F(1, 2), family, config=FAST)
        assert info.value.failures[0].startswith(
            "condition on lambda fails: certified bound 0 <= 1/2"
        )

    def test_rejects_float_alpha(self):
        with pytest.raises(InvalidArgumentError):
            build_certificate(
                1.1, ForbiddenFamily(AMBIENT, (chain_graph(),)), config=FAST
            )


class TestJumpCertificateValidation:
    def _witness(self):
        return LambdaWitness(chain_graph(), SimplexPoint((F(3, 4), F(1, 4))))

    def test_constructor_rejects_low_witness(self):
        with pytest.raises(CertificateError):
            JumpCertificate(
                alpha=F(9, 8),
                kind="jump",
                family=ForbiddenFamily(AMBIENT, (chain_graph(),)),
                lambda_witnesses=(self._witness(),),
                pi_evidence=PiEvidence("asserted", F(1), "x"),
            )

    def test_constructor_rejects_high_evidence(self):
        with pytest.raises(CertificateError):
            JumpCertificate(
                alpha=F(11, 10),
                kind="strong_jump",
                family=ForbiddenFamily(AMBIENT, (chain_graph(),)),
                lambda_witnesses=(self._witness(),),
                pi_evidence=PiEvidence("asserted", F(11, 10), "x"),
            )
        with pytest.raises(CertificateError) as info:
            JumpCertificate(
                alpha=F(11, 10),
                kind="jump",
                family=ForbiddenFamily(AMBIENT, (chain_graph(),)),
                lambda_witnesses=(self._witness(),),
                pi_evidence=PiEvidence("asserted", F(6, 5), "x"),
            )
        assert info.value.failures == (
            "condition fails: density evidence 6/5 exceeds alpha 11/10",
        )

    @pytest.mark.parametrize(
        "kind,witnesses,failure",
        [("weak", True, "unknown certificate kind 'weak'"),
         ("jump", False, "no lambda witnesses")],
    )
    def test_constructor_rejects_unknown_kind_and_no_witnesses(
        self, kind, witnesses, failure
    ):
        with pytest.raises(CertificateError) as info:
            JumpCertificate(
                alpha=F(11, 10),
                kind=kind,
                family=ForbiddenFamily(AMBIENT, (chain_graph(),)),
                lambda_witnesses=(self._witness(),) if witnesses else (),
                pi_evidence=PiEvidence("asserted", F(1), "x"),
            )
        assert info.value.failures == (failure,)

    def test_evidence_refuses_an_unknown_grade(self):
        with pytest.raises(InvalidArgumentError,
                           match="^unknown evidence grade 'guess'$"):
            PiEvidence("guess", F(1), "x")

    def test_constructor_refuses_a_float_alpha(self):
        # Fraction(1.1) would state alpha 2476979795053773/2251799813685248
        with pytest.raises(InvalidArgumentError, match="alpha must be an exact"):
            JumpCertificate(
                alpha=1.1,
                kind="jump",
                family=ForbiddenFamily(AMBIENT, (chain_graph(),)),
                lambda_witnesses=(self._witness(),),
                pi_evidence=PiEvidence("asserted", F(1), "x"),
            )

    @pytest.mark.parametrize(
        "value,reason", [(True, "not a bool"), (1.0, "convert floats")]
    )
    def test_evidence_refuses_a_bool_or_float_value(self, value, reason):
        with pytest.raises(InvalidArgumentError, match=f"density value .*{reason}"):
            PiEvidence("asserted", value, "x")

    def test_evidence_stores_a_plain_int_as_a_rational(self):
        evidence = PiEvidence("asserted", 1, "x")
        assert type(evidence.value) is Fraction
        assert ser.dumps_canonical(ser.evidence_to_obj(evidence)) == (
            '{"detail":"x","grade":"asserted","n":null,"value":"1/1"}'
        )

    def test_gap_is_positive(self):
        cert = JumpCertificate(
            alpha=F(11, 10),
            kind="strong_jump",
            family=ForbiddenFamily(AMBIENT, (chain_graph(),)),
            lambda_witnesses=(self._witness(),),
            pi_evidence=PiEvidence("asserted", F(1), "x"),
        )
        assert cert.gap == F(1, 40)

    def test_witness_value_comes_from_its_point(self):
        # the chain is 1 at (1/2, 1/2), not its maximum 9/8
        witness = LambdaWitness(chain_graph(), SimplexPoint((F(1, 2), F(1, 2))))
        assert witness.value == 1
        with pytest.raises(CertificateError) as info:
            JumpCertificate(
                alpha=F(11, 10),
                kind="strong_jump",
                family=ForbiddenFamily(AMBIENT, (chain_graph(),)),
                lambda_witnesses=(witness,),
                pi_evidence=PiEvidence("asserted", F(1), "x"),
            )
        (failure,) = info.value.failures
        assert "condition on lambda fails" in failure

    def test_edgeless_witness_is_zero(self):
        for n in (0, 3):
            point = SimplexPoint.uniform(max(n, 1))
            assert LambdaWitness(Hypergraph(n, ()), point).value == 0
        # the point is still checked
        with pytest.raises(InvalidArgumentError, match="rational"):
            LambdaWitness(Hypergraph(2, ()), SimplexPoint((0.5, 0.5)))

    def test_closed_form_evidence_must_match_the_catalogue(self):
        # the chain family has density 1, so 1/2 is not its closed form
        with pytest.raises(CertificateError) as info:
            JumpCertificate(
                alpha=F(11, 10),
                kind="strong_jump",
                family=ForbiddenFamily(AMBIENT, (chain_graph(),)),
                lambda_witnesses=(self._witness(),),
                pi_evidence=PiEvidence("closed_form", F(1, 2), "x"),
            )
        (failure,) = info.value.failures
        assert "catalog" in failure
