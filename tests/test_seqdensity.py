import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from strategies import hypergraphs
from turanlab import serialize as ser
from turanlab.errors import InvalidArgumentError, UnsupportedSizeError
from turanlab.hypercore import Hypergraph, blow_up, chain_graph, complete, lubell
from turanlab.seqdensity import (
    DensityTrend,
    SequenceGenerator,
    _shape_lubell,
    density_estimate,
    proportional_sizes,
    sigma_t,
)
from turanlab.turansearch import disjoint_type_union

F = Fraction
BIPARTITE = SequenceGenerator.turan_generator(2, n_start=4, n_step=2)
MILLION = (10**6,)


def one_of_each_kind(ns):
    """A generator of every kind, plus a nested union, on the sizes ``ns``."""
    blow = SequenceGenerator.blow_up_generator(
        chain_graph(), (F(3, 4), F(1, 4)), ns=ns
    )
    const = SequenceGenerator.constant_generator(
        Hypergraph(3, ((0, 1, 2),)), ns=ns
    )
    inner = SequenceGenerator.union_generator(blow, const)
    quad = SequenceGenerator.blow_up_generator(
        Hypergraph(4, ((0, 1, 2, 3),)), (F(1, 5), F(2, 5), F(1, 5), F(1, 5)),
        ns=ns,
    )
    return [
        blow,
        const,
        SequenceGenerator.turan_generator(3, ns=ns),
        inner,
        SequenceGenerator.union_generator(inner, quad),
    ]


def no_build(self, i):
    raise AssertionError("member built")


def generator_corpus():
    """Thirty generators: every kind, nested unions, three size rules."""
    rng = random.Random(14)

    def random_graph(n, sizes):
        pool = [e for r in sizes for e in itertools.combinations(range(n), r)]
        return Hypergraph(n, [e for e in pool if rng.random() < 0.5])

    corpus = []
    for rule in ({"ns": (3, 5, 8, 13)}, {"n_start": 4, "n_step": 1},
                 {"n_start": 6, "n_step": 3}):
        def blow(base, weights):
            props = tuple(F(w, sum(weights)) for w in weights)
            return SequenceGenerator.blow_up_generator(base, props, **rule)

        singles = blow(random_graph(3, (1,)), (2, 1, 1))
        pairs = blow(random_graph(4, (2,)), (1, 2, 0, 3))
        triples = blow(random_graph(3, (3,)), (1, 1, 1))
        corpus += [
            SequenceGenerator.turan_generator(2, **rule),
            SequenceGenerator.turan_generator(5, **rule),
            blow(chain_graph(), (3, 1)),
            # equal weights on a 1-vertex base: the complete pair graph on
            # one vertex has no edges, so this is no turan generator
            blow(complete(1, (2,)), (1,)),
            blow(complete(3, (2,)), (2, 1, 1)),
            blow(random_graph(4, (1, 2, 3)), (3, 1, 2, 1)),
            SequenceGenerator.constant_generator(
                random_graph(3, (1, 2, 3)), **rule
            ),
            SequenceGenerator.union_generator(singles, pairs),
            SequenceGenerator.union_generator(
                SequenceGenerator.union_generator(singles, triples),
                SequenceGenerator.turan_generator(3, **rule),
            ),
            SequenceGenerator.union_generator(
                SequenceGenerator.constant_generator(
                    Hypergraph(3, ((0,), (2,))), **rule
                ),
                pairs,
                triples,
            ),
        ]
    return corpus


# sha256 over the genspec JSON, its round trip, density_estimate and
# sigma_t at t = 2..5 of every corpus generator, taken before the turan
# kind became a spelling of blowup
GENERATOR_DIGEST = "7e9b1fd1fbddcd087e4c169ce0f8e5b43714449bc62fc0f914767ed07a538e19"


class TestProportionalSizes:
    # frozen: worked largest-remainder examples
    @pytest.mark.parametrize(
        "weights,total,expect",
        [
            ((F(1, 2), F(1, 2)), 5, (3, 2)),
            ((F(1, 3), F(1, 3), F(1, 3)), 7, (3, 2, 2)),
            ((F(3, 4), F(1, 4)), 6, (5, 1)),
            ((F(2, 3), F(1, 3)), 9, (6, 3)),
            ((F(1),), 4, (4,)),
            ((F(1, 2), F(1, 2)), 0, (0, 0)),
        ],
    )
    def test_frozen(self, weights, total, expect):
        assert proportional_sizes(weights, total) == expect

    @given(
        st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=5)
        .filter(lambda ws: sum(ws) > 0),
        st.integers(min_value=0, max_value=60),
    )
    def test_sums_and_stays_close(self, raw, total):
        s = sum(raw)
        weights = tuple(F(w, s) for w in raw)
        sizes = proportional_sizes(weights, total)
        assert sum(sizes) == total
        for size, w in zip(sizes, weights):
            assert abs(size - w * total) < 1

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            proportional_sizes((F(1, 2), F(1, 4)), 4)
        with pytest.raises(InvalidArgumentError):
            proportional_sizes((F(3, 2), F(-1, 2)), 4)


class TestSequenceGenerator:
    def test_turan_members(self):
        assert BIPARTITE.member(0) == Hypergraph(
            4, ((0, 2), (0, 3), (1, 2), (1, 3))
        )
        assert BIPARTITE.member(3).n == 10
        assert len(BIPARTITE.member(3).edges) == 25
        assert BIPARTITE.size(5) == 14
        assert BIPARTITE.count is None

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("rule", [{"ns": (4, 9)}, {"n_start": 3, "n_step": 2}])
    def test_turan_is_an_equal_blow_up_of_the_pair_clique(self, k, rule):
        gen = SequenceGenerator.turan_generator(k, **rule)
        assert gen.kind == "blowup"
        assert gen == SequenceGenerator.blow_up_generator(
            complete(k, (2,)), (F(1, k),) * k, **rule
        )

    @pytest.mark.parametrize(
        "rule,name",
        [({"ns": (4, 8.5)}, "ns entry"), ({"n_start": 2.5, "n_step": 1}, "n_start"),
         ({"n_start": 2, "n_step": 1.5}, "n_step")],
    )
    def test_refuses_non_integer_sizes(self, rule, name):
        with pytest.raises(InvalidArgumentError, match=f"{name} must be an integer"):
            SequenceGenerator.turan_generator(2, **rule)

    def test_explicit_sizes(self):
        gen = SequenceGenerator.turan_generator(2, ns=(4, 8))
        assert gen.count == 2
        with pytest.raises(InvalidArgumentError):
            gen.size(2)

    def test_blow_up_members(self):
        gen = SequenceGenerator.blow_up_generator(
            chain_graph(), (F(3, 4), F(1, 4)), n_start=4, n_step=4
        )
        g = gen.member(0)
        assert g.n == 4
        assert len(g.edges_of_size(1)) == 3
        # pairs: within the 3-vertex class and across to the 1-vertex class
        assert len(g.edges_of_size(2)) == 3

    def test_constant_pads_with_isolated_vertices(self):
        gen = SequenceGenerator.constant_generator(chain_graph(), ns=(2, 5))
        g = gen.member(1)
        assert g.n == 5 and g.edges == chain_graph().edges
        with pytest.raises(InvalidArgumentError):
            SequenceGenerator.constant_generator(chain_graph(), ns=(1, 5)).member(0)

    def test_union_members(self):
        a = SequenceGenerator.constant_generator(
            Hypergraph(3, ((0,), (1,))), ns=(3, 4)
        )
        b = SequenceGenerator.constant_generator(
            Hypergraph(3, ((0, 1), (1, 2))), ns=(3, 4)
        )
        u = SequenceGenerator.union_generator(a, b)
        m = u.member(0)
        assert lubell(m) == lubell(a.member(0)) + lubell(b.member(0))

    def test_union_members_refine_the_component_classes(self):
        # the union of the component members, as the union kind defines it
        *_, inner, nested = one_of_each_kind((3, 4, 7, 12))
        for u in (inner, nested):
            a, b = u.components
            for i in range(4):
                assert u.member(i) == disjoint_type_union(
                    a.member(i), b.member(i)
                )

    def test_union_requires_matching_sizes(self):
        a = SequenceGenerator.constant_generator(Hypergraph(2, ((0,),)), ns=(3,))
        b = SequenceGenerator.constant_generator(
            Hypergraph(2, ((0, 1),)), ns=(4,)
        )
        with pytest.raises(InvalidArgumentError):
            SequenceGenerator.union_generator(a, b)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            SequenceGenerator.turan_generator(1, ns=(4,))
        with pytest.raises(InvalidArgumentError):
            SequenceGenerator("blowup", ns=(4,), n_start=4, n_step=2,
                              base=complete(2, (2,)),
                              proportions=(F(1, 2), F(1, 2)))
        with pytest.raises(InvalidArgumentError):
            SequenceGenerator.blow_up_generator(
                chain_graph(), (F(1, 2),), ns=(4,)
            )
        with pytest.raises(InvalidArgumentError):
            SequenceGenerator("unknown", ns=(4,))
        chain = chain_graph()
        for build, text in [
            (lambda: SequenceGenerator("constant", ns=(), base=chain),
             "ns must be a nonempty list"),
            (lambda: SequenceGenerator("constant", base=chain),
             "give either ns or a start/step rule"),
            (lambda: SequenceGenerator("blowup", ns=(4,)),
             "blowup needs base and proportions"),
            (lambda: SequenceGenerator.blow_up_generator(
                chain, (F(1, 2), F(1, 4)), ns=(4,)),
             "proportions must be >= 0 and sum to 1"),
            (lambda: SequenceGenerator("constant", ns=(4,)),
             "constant needs a base graph"),
            (SequenceGenerator.union_generator, "union needs components"),
        ]:
            with pytest.raises(InvalidArgumentError, match=f"^{text}$"):
                build()

    @pytest.mark.parametrize("kind,field", [
        ("blowup", "components"),
        ("union", "base"),
        ("union", "proportions"),
        ("constant", "proportions"),
        ("constant", "components"),
    ])
    def test_refuses_a_field_its_kind_never_reads(self, kind, field):
        chain = chain_graph()
        fields = {
            "blowup": {"base": chain, "proportions": (F(3, 4), F(1, 4))},
            "union": {"components": (BIPARTITE, BIPARTITE)},
            "constant": {"base": chain},
        }[kind]
        stray = {"base": chain, "proportions": (F(1, 2), F(1, 2)),
                 "components": (BIPARTITE,)}[field]
        SequenceGenerator(kind, n_start=4, n_step=2, **fields)
        with pytest.raises(InvalidArgumentError, match=f"^{kind} takes no {field}$"):
            SequenceGenerator(kind, n_start=4, n_step=2, **fields, **{field: stray})

    def test_stray_fields_refused_whatever_their_value(self):
        with pytest.raises(InvalidArgumentError, match="^constant takes no proportions$"):
            SequenceGenerator("constant", ns=(4,), base=chain_graph(),
                              proportions="junk", components=("x",))
        turan = SequenceGenerator.turan_generator(2, ns=(4,))
        with pytest.raises(InvalidArgumentError, match="^blowup takes no components$"):
            SequenceGenerator("blowup", ns=(4,), base=turan.base,
                              proportions=turan.proportions, components=(turan,))


class TestGeneratorDigest:
    def test_corpus_output_is_pinned(self):
        digest = hashlib.sha256()
        for gen in generator_corpus():
            text = ser.dumps_canonical(ser.genspec_to_obj(gen))
            back = ser.genspec_from_obj(json.loads(text))
            assert back == gen
            digest.update(f"{text}\n".encode("ascii"))
            digest.update(ser.dumps_canonical(ser.genspec_to_obj(back)).encode("ascii"))
            trend = density_estimate(gen, 3)
            digest.update(repr((trend.sizes, trend.values, trend.diffs)).encode("ascii"))
            for t in range(2, 6):
                report = sigma_t(gen, t, i_range=(0, 3))
                digest.update(ser.dumps_canonical(ser.report_to_obj(report)).encode("ascii"))
        assert digest.hexdigest() == GENERATOR_DIGEST


class TestDensityEstimate:
    def test_bipartite_values(self):
        trend = density_estimate(BIPARTITE, 4)
        assert trend.sizes == (4, 6, 8, 10, 12)
        # h of a balanced complete bipartite pair graph: (n/2)^2 / C(n, 2)
        for n, value in zip(trend.sizes, trend.values):
            assert value == F((n // 2) ** 2, math.comb(n, 2))
        assert all(d < 0 for d in trend.diffs)
        assert trend.last == trend.values[-1]

    def test_blow_up_values_approach_the_polynomial_maximum(self):
        gen = SequenceGenerator.blow_up_generator(
            chain_graph(), (F(3, 4), F(1, 4)), n_start=4, n_step=4
        )
        trend = density_estimate(gen, 3)
        assert abs(float(trend.last) - 9 / 8) < 0.05

    def test_million_vertex_members_are_never_built(self, monkeypatch):
        monkeypatch.setattr(SequenceGenerator, "member", no_build)
        n = MILLION[0]
        blow, const, turan, inner, nested = (
            density_estimate(g, 0).values[0] for g in one_of_each_kind(MILLION)
        )
        a, b, c = proportional_sizes((F(1, 3),) * 3, n)
        assert turan == F(a * b + a * c + b * c, math.comb(n, 2))
        assert const == F(1, math.comb(n, 3))
        # the Lubell value of a disjoint edge-type union is the sum
        assert inner == blow + const
        quad = proportional_sizes((F(1, 5), F(2, 5), F(1, 5), F(1, 5)), n)
        assert nested == inner + F(math.prod(quad), math.comb(n, 4))

    @given(st.integers(min_value=0, max_value=3))
    def test_matches_direct_lubell(self, i):
        trend = density_estimate(BIPARTITE, i)
        assert trend.values[i] == oracles.brute_lubell(BIPARTITE.member(i))

    @given(
        hypergraphs(max_n=4, sizes=(1, 2, 3)).flatmap(
            lambda g: st.tuples(
                st.just(g),
                st.lists(
                    st.integers(min_value=0, max_value=3),
                    min_size=g.n, max_size=g.n,
                ),
            )
        )
    )
    # a member of 2 vertices under a base 3-edge: the edge stands for none
    @example((Hypergraph(3, ((0,), (0, 1), (0, 1, 2))), [1, 1, 0]))
    def test_shape_matches_built_blow_up(self, drawn):
        base, sizes = drawn
        assert _shape_lubell(base, sizes) == lubell(blow_up(base, sizes))

    @pytest.mark.parametrize("kind", range(5))
    def test_matches_direct_lubell_on_every_kind(self, kind):
        gen = one_of_each_kind((3, 4, 7, 12))[kind]
        trend = density_estimate(gen, 3)
        assert trend.sizes == (3, 4, 7, 12)
        for i, value in enumerate(trend.values):
            assert value == oracles.brute_lubell(gen.member(i))


class TestSigmaT:
    # frozen: balanced split of a t-subset between the two sides
    @pytest.mark.parametrize(
        "t,value",
        [(2, F(1)), (3, F(2, 3)), (4, F(2, 3)), (5, F(3, 5)), (6, F(3, 5))],
    )
    def test_bipartite_values(self, t, value):
        report = sigma_t(BIPARTITE, t, i_range=(0, 7))
        assert report.value == value
        assert report.exhaustive

    def test_matches_bruteforce(self):
        members = [BIPARTITE.member(i) for i in range(3)]
        for t in (2, 3, 4):
            assert sigma_t(BIPARTITE, t, i_range=(0, 2)).value == (
                oracles.brute_sigma(members, t)
            )

    def test_attaining_subset_scores_the_value(self):
        report = sigma_t(BIPARTITE, 4, i_range=(0, 7))
        i, subset = report.attaining
        member = BIPARTITE.member(i)
        assert oracles.brute_sigma(
            [Hypergraph(member.n, tuple(
                e for e in member.edges if set(e) <= set(subset)
            ))], 4
        ) <= report.value
        value = F(0)
        inside = set(subset)
        for e in member.edges:
            if len(e) <= 4 and set(e) <= inside:
                value += F(1, math.comb(4, len(e)))
        assert value == report.value

    def test_nonincreasing_in_t(self):
        values = [
            sigma_t(BIPARTITE, t, i_range=(0, 7)).value for t in range(2, 7)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_dominates_member_values(self):
        report = sigma_t(BIPARTITE, 4, i_range=(0, 7))
        assert all(report.value >= h for h in report.h_values)

    def test_union_subadditive(self):
        a = SequenceGenerator.constant_generator(
            Hypergraph(4, ((0,), (1,), (2,))), ns=(4, 5)
        )
        b = SequenceGenerator.constant_generator(
            Hypergraph(4, ((0, 1), (1, 2), (2, 3))), ns=(4, 5)
        )
        u = SequenceGenerator.union_generator(a, b)
        for t in (2, 3, 4):
            su = sigma_t(u, t, i_range=(0, 1)).value
            sa = sigma_t(a, t, i_range=(0, 1)).value
            sb = sigma_t(b, t, i_range=(0, 1)).value
            assert su <= sa + sb

    def test_skips_small_members(self):
        gen = SequenceGenerator.constant_generator(
            complete(2, (2,)), ns=(2, 3, 6)
        )
        report = sigma_t(gen, 4, i_range=(0, 2))
        assert report.attaining[0] == 2

    def test_no_member_large_enough(self):
        gen = SequenceGenerator.constant_generator(complete(2, (2,)), ns=(2, 3))
        with pytest.raises(InvalidArgumentError):
            sigma_t(gen, 4, i_range=(0, 1))

    def test_large_member_is_exact(self):
        # C(50, 6) subsets, but only 7 class-count vectors of two twin classes
        big = SequenceGenerator.turan_generator(2, ns=(50,))
        report = sigma_t(big, 6, i_range=(0, 0))
        assert report.value == F(3, 5)
        assert report.exhaustive
        assert report.attaining == (0, (0, 1, 2, 25, 26, 27))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_bruteforce_on_random_generators(self, seed):
        # members of at most 12 vertices with non-trivial twin classes
        rng = random.Random(seed)
        ns = tuple(sorted(rng.sample(range(5, 13), 2)))

        def random_graph(n, sizes=(1, 2, 3)):
            pool = [e for r in sizes for e in itertools.combinations(range(n), r)]
            return Hypergraph(n, [e for e in pool if rng.random() < 0.4])

        def random_blow_up(sizes=(1, 2, 3), zero=False):
            base = random_graph(rng.randint(2, 4), sizes)
            raw = [rng.randint(1, 4) for _ in range(base.n)]
            if zero:
                raw[-1] = 0  # an empty class takes its base edges with it
            props = [F(w, sum(raw)) for w in raw]
            return SequenceGenerator.blow_up_generator(base, props, ns=ns)

        gens = [
            random_blow_up(),
            SequenceGenerator.constant_generator(random_graph(5), ns=ns),
            # the components' class boundaries differ, so the classes refine
            SequenceGenerator.union_generator(
                random_blow_up((1,)), random_blow_up((2, 3))
            ),
            random_blow_up(zero=True),
            SequenceGenerator.union_generator(
                SequenceGenerator.union_generator(
                    random_blow_up((1,)), random_blow_up((2,), zero=True)
                ),
                random_blow_up((3,)),
            ),
            # twin base vertices with unequal class sizes
            SequenceGenerator.blow_up_generator(
                complete(4, (2,)), (F(1, 10), F(2, 10), F(3, 10), F(4, 10)),
                ns=ns,
            ),
            SequenceGenerator.turan_generator(9, ns=(9, 11)),
        ]
        for gen in gens:
            members = [gen.member(i) for i in range(len(ns))]
            for t in range(2, 6):
                report = sigma_t(gen, t, i_range=(0, len(ns) - 1))
                value, witness = oracles.brute_sigma_witness(members, t)
                assert report.value == value
                assert report.attaining == witness
                assert report.exhaustive

    def test_million_vertex_member(self, monkeypatch):
        # six vertices of each of the two classes stand for all 10^6
        monkeypatch.setattr(SequenceGenerator, "member", no_build)
        n = MILLION[0]
        report = sigma_t(SequenceGenerator.turan_generator(2, ns=MILLION), 6,
                         i_range=(0, 0))
        assert report.value == F(3, 5)
        assert report.attaining == (0, (0, 1, 2, 500000, 500001, 500002))
        assert report.h_values == (F((n // 2) ** 2, math.comb(n, 2)),)

    @pytest.mark.parametrize("kind", range(5))
    def test_every_kind_at_a_million_vertices(self, monkeypatch, kind):
        monkeypatch.setattr(SequenceGenerator, "member", no_build)
        gen = one_of_each_kind(MILLION)[kind]
        report = sigma_t(gen, 4, i_range=(0, 0))
        assert report.h_values == density_estimate(gen, 0).values
        assert report.value >= report.h_values[0]
        # the attaining subset is t distinct vertices of the member
        i, subset = report.attaining
        assert i == 0 and len(set(subset)) == 4
        assert all(0 <= v < MILLION[0] for v in subset)

    def test_edgeless_members_score_zero(self):
        gen = SequenceGenerator.constant_generator(
            Hypergraph(5, ()), ns=(5, 6)
        )
        report = sigma_t(gen, 3, i_range=(0, 1))
        assert report.value == 0

    def test_range_validation(self):
        with pytest.raises(UnsupportedSizeError):
            sigma_t(BIPARTITE, 9)
        with pytest.raises(InvalidArgumentError):
            sigma_t(BIPARTITE, 0)
        with pytest.raises(InvalidArgumentError):
            sigma_t(BIPARTITE, 3, i_range=(3, 1))
        gen = SequenceGenerator.turan_generator(2, ns=(4, 6))
        with pytest.raises(InvalidArgumentError):
            sigma_t(gen, 3, i_range=(0, 2))


class TestDensityTrend:
    def test_shape(self):
        trend = DensityTrend((4, 6), (F(2, 3), F(3, 5)))
        assert trend.diffs == (F(-1, 15),) and trend.last == F(3, 5)

    @pytest.mark.parametrize("sizes,values,message", [
        ((4,), (), "values must have 1 entries, not 0"),
        ((), (), "a density trend needs at least one member"),
        ((4, 6), (F(2, 3),), "values must have 2 entries, not 1"),
        (None, (F(2, 3),), "sizes must be a sequence, not None"),
        ((4,), 5, "values must be a sequence, not 5"),
    ])
    def test_refuses_a_trend_without_a_last_value(self, sizes, values, message):
        # an empty or unequal pair constructed, then raised IndexError on .last
        with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
            DensityTrend(sizes, values)
