from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import hypergraphs
from turanlab import hypercore
from turanlab.errors import InvalidArgumentError, UnsupportedSizeError
from turanlab.hypercore import (
    EdgeTypeSet,
    Hypergraph,
    canonical_form,
    canonical_graph,
    chain_graph,
    complete,
    empty_graph,
    is_isomorphic,
    lubell,
    marked_clique,
)
from turanlab.turansearch import (
    ForbiddenFamily,
    density_sequence,
    disjoint_type_union,
    enumerate_graphs,
    pi_n,
)

F = Fraction
PATH3 = Hypergraph(3, ((0, 1), (1, 2)))


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

    def test_first_graph_is_empty(self):
        first = next(enumerate_graphs(3, EdgeTypeSet((2,))))
        assert first == empty_graph(3)

    def test_every_graph_within_types(self):
        for g in enumerate_graphs(3, EdgeTypeSet((1, 3))):
            assert set(g.edge_sizes()) <= {1, 3}

    @pytest.mark.parametrize(
        "n,sizes", [(4, (2,)), (3, (1, 2)), (3, (1, 3)), (5, (1, 2))]
    )
    def test_canonical_graphs_in_level_order(self, n, sizes):
        # each class once, by edge count, then by canonical form
        graphs = list(enumerate_graphs(n, EdgeTypeSet(sizes)))
        order = [(len(g.edges), canonical_form(g)) for g in graphs]
        assert order == sorted(set(order))
        assert all(canonical_graph(g) == g for g in graphs)


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
