import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import hypergraphs
from turanlab import hypercore, turansearch
from turanlab.errors import InvalidArgumentError, UnsupportedSizeError
from turanlab.hypercore import (
    EdgeTypeSet,
    Hypergraph,
    canonical_form,
    canonical_graph,
    chain_graph,
    complete,
    empty_graph,
    equivalence_classes,
    is_isomorphic,
    lubell,
    marked_clique,
)
from turanlab.turansearch import (
    ForbiddenFamily,
    _grow,
    density_sequence,
    disjoint_type_union,
    enumerate_graphs,
    pi_n,
)

F = Fraction
PATH3 = Hypergraph(3, ((0, 1), (1, 2)))


def _family(sizes, members, mode="subgraph"):
    return ForbiddenFamily(EdgeTypeSet(sizes), members, mode)


# each case: (n, ambient sizes, the family whose anchored test _grow takes,
# as pi_n passes it, or None to grow every class as induced mode and
# enumerate_graphs do)
GROW_CASES = {
    "triangle_free n=6": (6, (2,), _family((2,), (complete(3, (2,)),))),
    "mixed_pair n=5": (5, (1, 2), _family((1, 2), (complete(2, (1, 2)),))),
    "marked_pair n=5": (
        5, (1, 2), _family((1, 2), (marked_clique(3), complete(2, (1, 2)))),
    ),
    "k4(3)_free n=5": (5, (3,), _family((3,), (complete(4, (3,)),))),
    "induced_p3 n=5": (5, (2,), None),
    "enumerate {2,3} n=4": (4, (2, 3), None),
    "enumerate {2} n=7": (7, (2,), None),
    "enumerate {1,2} n=6": (6, (1, 2), None),
}
# frozen: recorded on the frontier loop that ran admits on every tried child
# and yielded a maximal flag with each class, hashed without the flag
GROW_DIGESTS = {
    "triangle_free n=6": (
        "ff0d6c85bbef510e9192cbca5aa60edbe74ce9f0f0e7be80c5c1749ea9facf9e"
    ),
    "mixed_pair n=5": (
        "dbc98f80e0d0b5d6ee03296c3a23a8ffcda9ab664a212809db620cb2c5a01552"
    ),
    "marked_pair n=5": (
        "c62d9cce3feae864e99c4bf27648d82e62969c393f4f2197ea96f72cc4a9a25c"
    ),
    "k4(3)_free n=5": (
        "9de5810ebc8f191ab95796ad8c125b74910feb242623286a4a370294cbff7b52"
    ),
    "induced_p3 n=5": (
        "646e9823946957e0b7676df876b6ddd48427a871d0151e4c583b2755e7deab9f"
    ),
    "enumerate {2,3} n=4": (
        "fe7f0e636168abfd5ff4029bbc2973f6c20ccb69bef296aaf127b6b8815a779e"
    ),
    # recorded on the frontier loop that pruned by twin orbits alone, before
    # it pruned by the automorphisms that labelling finds
    "enumerate {2} n=7": (
        "db11c41b05b050d49029813d75b4d8ebe22d298c5a3d13102ee59b0922414954"
    ),
    "enumerate {1,2} n=6": (
        "8b3a1dac4dec061cebd8c158dedee7b1b5fc5746989f019c6e479737e6459787"
    ),
}


class TestEnumeration:
    # frozen: class counts from the brute isomorphism-partition oracle
    @pytest.mark.parametrize(
        "n,sizes,count",
        [
            (4, (2,), 11),
            (3, (2,), 4),
            (2, (1, 2), 6),
            (1, (1,), 2),
            (3, (1, 2), 20),
        ],
    )
    def test_class_counts(self, n, sizes, count):
        graphs = list(enumerate_graphs(n, EdgeTypeSet(sizes)))
        assert len(graphs) == count
        assert len({canonical_form(g) for g in graphs}) == count

    def test_counts_match_bruteforce_partition(self):
        assert len(list(enumerate_graphs(3, EdgeTypeSet((1, 2))))) == (
            oracles.count_iso_classes(3, (1, 2))
        )

    # 4-vertex ambients with twin-rich classes, where _grow skips non-edges
    @pytest.mark.parametrize(
        "n,sizes,count", [(4, (1, 2), 90), (4, (2, 3), 90), (4, (1, 3), 35)]
    )
    def test_counts_match_bruteforce_on_four_vertices(self, n, sizes, count):
        graphs = list(enumerate_graphs(n, EdgeTypeSet(sizes)))
        assert len(graphs) == count == oracles.count_iso_classes(n, sizes)

    @pytest.mark.parametrize(
        "n,sizes,same", [(3, (2, 2), (2,)), (4, (2, 1), (1, 2)), (3, (3, 1), (1, 3))]
    )
    def test_reads_any_size_sequence(self, n, sizes, same):
        # repeated or unsorted sizes give the yields of the EdgeTypeSet
        assert list(enumerate_graphs(n, sizes)) == list(enumerate_graphs(n, same))
        assert list(enumerate_graphs(n, same)) == list(
            enumerate_graphs(n, EdgeTypeSet(same))
        )

    def test_first_graph_is_empty(self):
        first = next(enumerate_graphs(3, EdgeTypeSet((2,))))
        assert first == empty_graph(3)

    def test_every_graph_within_types(self):
        for g in enumerate_graphs(3, EdgeTypeSet((1, 3))):
            assert set(g.edge_sizes()) <= {1, 3}

    def test_pair_graph_frontier_work(self, monkeypatch):
        # the 1 044 classes of pair graphs on 7 vertices, one child tried
        # per orbit of each parent's automorphisms (2 004 labellings with
        # twin orbits alone)
        labelled = []
        label = turansearch._canonical_labeling
        monkeypatch.setattr(
            turansearch, "_canonical_labeling",
            lambda child: labelled.append(None) or label(child),
        )
        assert sum(1 for _ in enumerate_graphs(7, (2,))) == 1_044
        assert len(labelled) <= 1_600

    @pytest.mark.parametrize(
        "n,sizes", [(4, (2,)), (3, (1, 2)), (3, (1, 3)), (5, (1, 2))]
    )
    def test_canonical_graphs_in_level_order(self, n, sizes):
        # each class once, by edge count, then by canonical form
        graphs = list(enumerate_graphs(n, EdgeTypeSet(sizes)))
        order = [(len(g.edges), canonical_form(g)) for g in graphs]
        assert order == sorted(set(order))
        assert all(canonical_graph(g) == g for g in graphs)


@st.composite
def _small_families(draw):
    """n <= 4, an ambient, and one or two members on at most 3 vertices,
    each with an edge, so that the empty graph is free."""
    sizes = draw(st.sampled_from([(2,), (1, 2), (1, 3), (2, 3)]))
    members = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        m = draw(st.integers(min_value=min(sizes), max_value=3))
        pool = [
            e for r in sizes if r <= m
            for e in itertools.combinations(range(m), r)
        ]
        edges = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
        members.append(Hypergraph(m, tuple(edges)))
    n = draw(st.integers(min_value=1, max_value=4))
    return n, sizes, tuple(members)


class TestGrowOracle:
    @given(_small_families())
    @settings(max_examples=100, deadline=None)
    def test_free_classes(self, drawn):
        n, sizes, members = drawn
        family = _family(sizes, members)
        expect = {
            canonical_form(g) for g in oracles.all_labeled_graphs(n, sizes)
            if not any(oracles.brute_contains(g, m) for m in members)
        }
        grown = list(_grow(n, EdgeTypeSet(sizes), family._admits_through))
        got = {canonical_form(g) for g in grown}
        assert len(got) == len(grown)
        assert got == expect


class TestGrowDigest:
    # every yield of the frontier loop, in order
    @pytest.mark.parametrize("case", sorted(GROW_CASES))
    def test_yields_are_pinned(self, case):
        n, sizes, family = GROW_CASES[case]
        admits = None if family is None else family._admits_through
        digest = hashlib.sha256()
        for g in _grow(n, EdgeTypeSet(sizes), admits):
            digest.update(repr((g.n, g.edges)).encode("ascii") + b"\n")
        assert digest.hexdigest() == GROW_DIGESTS[case]


class TestGrowTwins:
    @pytest.mark.parametrize("sizes", [(1, 2), (3,)])
    def test_frontier_carries_twin_classes(self, sizes, monkeypatch):
        # _grow hands the generators that labelling gave each frontier graph
        # to _orbit_firsts, just before it yields the graph.  They generate
        # Aut(g), so their vertex orbits are the brute ones, and the twin
        # swaps are among them: a transposition is an automorphism iff it
        # swaps twins, so the orbits of the transpositions are the twin classes
        seen = []
        firsts = turansearch._orbit_firsts
        monkeypatch.setattr(
            turansearch, "_orbit_firsts",
            lambda sets, generators: seen.append(generators) or firsts(sets, generators),
        )
        for grown, g in enumerate(_grow(5, EdgeTypeSet(sizes)), 1):
            assert len(seen) == grown
            vertices = [(v,) for v in range(g.n)]
            orbits = oracles.generated_orbits(seen[-1], vertices)
            assert orbits == oracles.brute_orbits(g, vertices)
            swaps = [p for p in seen[-1] if sum(p[v] != v for v in range(g.n)) == 2]
            classes = oracles.generated_orbits(swaps, vertices)
            assert tuple(sum(cls, ()) for cls in classes) == equivalence_classes(g)


class TestPiN:
    def test_forbidden_triangle(self):
        record = pi_n(
            ForbiddenFamily(EdgeTypeSet((2,)), (complete(3, (2,)),)), 4
        )
        assert record.pi_n == F(2, 3)
        assert len(record.extremal) == 1
        assert is_isomorphic(
            record.extremal[0],
            Hypergraph(4, ((0, 2), (0, 3), (1, 2), (1, 3))),
        )
        assert record.exhaustive

    # frozen: first values of the complete-pair forbidden sequence
    def test_mixed_complete_sequence(self):
        family = ForbiddenFamily(EdgeTypeSet((1, 2)), (complete(2, (1, 2)),))
        values = [pi_n(family, n).pi_n for n in range(2, 5)]
        assert values == [F(3, 2), F(4, 3), F(4, 3)]

    @pytest.mark.parametrize(
        "members,sizes,n,mode",
        [
            ((complete(3, (2,)),), (2,), 4, "subgraph"),
            ((PATH3,), (2,), 4, "subgraph"),
            ((PATH3,), (2,), 3, "induced"),
            ((complete(2, (1, 2)),), (1, 2), 3, "subgraph"),
            ((chain_graph(),), (1, 2), 3, "subgraph"),
        ],
    )
    def test_matches_bruteforce(self, members, sizes, n, mode):
        family = ForbiddenFamily(EdgeTypeSet(sizes), members, mode)
        expect = oracles.brute_pi_n(members, sizes, n, induced=(mode == "induced"))
        assert pi_n(family, n).pi_n == expect

    # frozen: values and class counts of the per-mode loops this one replaced;
    # subgraph mode counts the free classes, induced mode counts every class
    @pytest.mark.parametrize(
        "members,sizes,mode,n,value,count",
        [
            ((complete(3, (2,)),), (2,), "subgraph", 6, F(3, 5), 38),
            ((complete(2, (1, 2)),), (1, 2), "subgraph", 5, F(13, 10), 230),
            ((PATH3,), (2,), "induced", 5, F(1), 34),
            ((marked_clique(3),), (1, 2), "subgraph", 4, F(5, 3), 62),
            ((complete(4, (3,)),), (3,), "subgraph", 5, F(7, 10), 23),
            ((complete(2, (2,)),), (1, 2), "induced", 4, F(2), 90),
        ],
    )
    def test_frozen_value_and_count(self, members, sizes, mode, n, value, count):
        record = pi_n(ForbiddenFamily(EdgeTypeSet(sizes), members, mode), n)
        assert record.pi_n == value
        assert record.graphs_enumerated == count

    def test_progress_every_thousand_graphs(self):
        # the cheapest family found with at least 1000 free classes
        family = ForbiddenFamily(EdgeTypeSet((1, 2)), (complete(2, (1, 2)),))
        calls = []
        record = pi_n(family, 6, progress=calls.append)
        assert record.pi_n == F(13, 10)
        assert record.graphs_enumerated == 1543
        assert calls == [1000]

    def test_progress_refused_before_the_search(self, monkeypatch):
        # an uncallable progress is refused before a class is generated,
        # through density_sequence too
        family = ForbiddenFamily(EdgeTypeSet((1, 2)), (complete(2, (1, 2)),))
        monkeypatch.setattr(turansearch, "_grow", None)
        for call in (lambda: pi_n(family, 6, progress=5),
                     lambda: density_sequence(family, 6, progress=5)):
            with pytest.raises(InvalidArgumentError,
                               match="^progress must be a Callable, not 5$"):
                call()

    def test_mixed_pair_refinement_count(self, monkeypatch):
        # one search node per refinement; twin cells end the search where
        # they make up the partition (16 691 calls when every node refined)
        family = ForbiddenFamily(EdgeTypeSet((1, 2)), (complete(2, (1, 2)),))
        calls = []
        refine = hypercore._refine_colors
        monkeypatch.setattr(
            hypercore, "_refine_colors",
            lambda *args: calls.append(None) or refine(*args),
        )
        canonical_form.cache_clear()
        assert pi_n(family, 6).pi_n == F(13, 10)
        assert len(calls) <= 10_400

    def test_mixed_pair_frontier_work(self, monkeypatch):
        # children whose new edge lacks the largest invariant skip the
        # containment test and the labelling (14 500 tests and 8 112
        # labellings when every tried child was tested and keyed; 2 928
        # labellings with a canonical-parent test on top), and each
        # test searches only through the new edge: the one search of a
        # whole graph is the empty graph's (4 486 when every child had one).
        # No child is tested only to tell whether its parent is maximal
        # (4 485 anchored searches when the failing children were).
        # One child is tried per orbit of the automorphisms that labelling
        # the parent found (2 107 labellings and 3 338 anchored searches
        # with twin orbits alone)
        family = ForbiddenFamily(EdgeTypeSet((1, 2)), (complete(2, (1, 2)),))
        anchored, whole, labelled = [], [], []
        contains = turansearch.contains_subgraph
        label = turansearch._canonical_labeling

        def counted(big, small, through=None):
            if through is None:
                whole.append(None)
                return contains(big, small)
            anchored.append(None)
            return contains(big, small, through=through)

        monkeypatch.setattr(turansearch, "contains_subgraph", counted)
        monkeypatch.setattr(
            turansearch, "_canonical_labeling",
            lambda child: labelled.append(None) or label(child),
        )
        record = pi_n(family, 6)
        assert record.pi_n == F(13, 10)
        # every class past the empty graph is labelled, at least once
        assert record.graphs_enumerated - 1 <= len(labelled) <= 1_900
        assert len(anchored) <= 3_100
        assert len(whole) <= 1

    @given(_small_families(), st.sampled_from(["subgraph", "induced"]))
    @settings(max_examples=60, deadline=None)
    def test_extremal_matches_bruteforce(self, drawn, mode):
        # every densest free class, each once; in subgraph mode every free
        # class is scored, and the densest are among the maximal ones
        n, sizes, members = drawn
        record = pi_n(_family(sizes, members, mode), n)
        expect = oracles.brute_extremal(members, sizes, n, mode == "induced")
        assert record.pi_n == oracles.brute_lubell(expect[0])
        got = [canonical_form(g) for g in record.extremal]
        assert got == sorted({canonical_form(g) for g in expect})

    def test_forbidding_single_vertex_edge(self):
        family = ForbiddenFamily(EdgeTypeSet((1,)), (Hypergraph(1, ((0,),)),))
        record = pi_n(family, 3)
        assert record.pi_n == 0
        assert record.extremal == (empty_graph(3),)

    def test_extremal_graphs_attain_and_admit(self):
        family = ForbiddenFamily(EdgeTypeSet((2,)), (complete(3, (2,)),))
        record = pi_n(family, 5)
        for g in record.extremal:
            assert lubell(g) == record.pi_n
            assert family.admits(g)

    def test_impossible_family(self):
        family = ForbiddenFamily(EdgeTypeSet((2,)), (empty_graph(1),))
        with pytest.raises(InvalidArgumentError):
            pi_n(family, 3)
        # induced: each vertex either holds its 1-edge or not, and both
        # 1-vertex graphs are forbidden
        family = ForbiddenFamily(
            EdgeTypeSet((1, 2)), (Hypergraph(1, ((0,),)), empty_graph(1)), "induced"
        )
        with pytest.raises(InvalidArgumentError,
                           match="^no admissible graph exists on this vertex count$"):
            pi_n(family, 2)

    def test_size_cap(self):
        family = ForbiddenFamily(EdgeTypeSet((2,)), (complete(3, (2,)),))
        with pytest.raises(UnsupportedSizeError):
            pi_n(family, 9)


class TestDensitySequence:
    def test_records_and_monotonicity(self):
        family = ForbiddenFamily(EdgeTypeSet((2,)), (complete(3, (2,)),))
        bound = density_sequence(family, 5)
        ns = [r.n for r in bound.records]
        assert ns == [2, 3, 4, 5]
        values = [r.pi_n for r in bound.records]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_starts_at_largest_member(self):
        family = ForbiddenFamily(EdgeTypeSet((1, 2)), (complete(2, (1, 2)),))
        bound = density_sequence(family, 3)
        assert bound.records[0].n == 2

    @given(hypergraphs(max_n=3, sizes=(1, 2), min_edges=1))
    @settings(max_examples=10)
    def test_single_member_families_monotone(self, member):
        family = ForbiddenFamily(EdgeTypeSet((1, 2)), (member,))
        if not family.admits(empty_graph(max(member.n, 2))):
            return
        bound = density_sequence(family, max(member.n + 1, 3))
        # non-increasing once every allowed edge fits in fewer vertices
        values = [r.pi_n for r in bound.records if r.n >= 2]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestDisjointTypeUnion:
    def test_exact_additivity(self):
        a = Hypergraph(3, ((0,), (2,)))
        b = Hypergraph(3, ((0, 1), (1, 2)))
        u = disjoint_type_union(a, b)
        assert lubell(u) == lubell(a) + lubell(b)

    def test_rejects_shared_sizes(self):
        with pytest.raises(InvalidArgumentError):
            disjoint_type_union(chain_graph(), Hypergraph(2, ((0, 1),)))

    def test_rejects_different_vertex_counts(self):
        with pytest.raises(InvalidArgumentError):
            disjoint_type_union(Hypergraph(2, ((0,),)), Hypergraph(3, ((0, 1),)))

    def test_union_family_density_splits_by_layer(self):
        # forbidding a pair-layer clique and all 1-edges decouples the layers
        family = ForbiddenFamily(
            EdgeTypeSet((1, 2)),
            (complete(3, (2,)), Hypergraph(1, ((0,),))),
        )
        expect = oracles.brute_pi_n(
            [complete(3, (2,)), Hypergraph(1, ((0,),))], (1, 2), 4
        )
        record = pi_n(family, 4)
        assert record.pi_n == expect == F(2, 3)
        pairs_only = pi_n(
            ForbiddenFamily(EdgeTypeSet((2,)), (complete(3, (2,)),)), 4
        )
        assert record.pi_n == pairs_only.pi_n + 0


class TestForbiddenFamily:
    def test_members_deduped_by_isomorphism(self):
        relabeled = Hypergraph(2, ((1,), (0, 1)))
        family = ForbiddenFamily(
            EdgeTypeSet((1, 2)), (chain_graph(), relabeled)
        )
        assert len(family.members) == 1

    def test_member_sizes_within_ambient(self):
        with pytest.raises(InvalidArgumentError):
            ForbiddenFamily(EdgeTypeSet((2,)), (chain_graph(),))

    def test_mode_validation(self):
        with pytest.raises(InvalidArgumentError):
            ForbiddenFamily(EdgeTypeSet((2,)), (), "spanning")

    def test_excludes_and_admits(self):
        family = ForbiddenFamily(EdgeTypeSet((2,)), (complete(3, (2,)),))
        assert family.excludes(complete(4, (2,)))
        assert family.admits(Hypergraph(4, ((0, 2), (0, 3), (1, 2), (1, 3))))
