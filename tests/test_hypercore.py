import dataclasses
import hashlib
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import hypergraphs, patterns
from turanlab import hypercore
from turanlab.errors import (
    InvalidArgumentError,
    InvalidHypergraphError,
    UnsupportedSizeError,
)
from turanlab.hypercore import (
    MAX_LABELING_VERTICES,
    EdgeTypeSet,
    Hypergraph,
    Pattern,
    SimplexPoint,
    blow_up,
    canonical_form,
    canonical_graph,
    chain_graph,
    complete,
    contains_induced,
    contains_subgraph,
    disjoint_type_union,
    empty_graph,
    equivalence_classes,
    find_embedding,
    find_induced_embedding,
    induced_subgraph,
    is_isomorphic,
    lubell,
    marked_clique,
    realize,
)
from turanlab.turansearch import _grow, enumerate_graphs

F = Fraction
PATH3 = Hypergraph(3, ((0, 1), (1, 2)))
C4 = Hypergraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
K2 = Hypergraph(2, ((0, 1),))
TWO_K2 = Hypergraph(4, ((0, 1), (2, 3)))
C5 = Hypergraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
C6 = Hypergraph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)))
C3_C4 = Hypergraph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)))
# members whose twin classes cut the anchored search down, and members with
# isolated vertices
TWIN_RICH = (
    complete(4, (2,)),
    complete(2, (1, 2)),
    marked_clique(3),
    complete(4, (3,)),
    complete(3, (1, 2, 3)),
    Hypergraph(4, ((0, 1),)),
    Hypergraph(4, ((0,), (1, 2, 3))),
)
BLOW_UP_BASES = (
    chain_graph(), marked_clique(3), PATH3, Hypergraph(3, ((0,), (0, 1, 2)))
)


@st.composite
def _blow_ups_beside_regular_parts(draw, max_n=7):
    """A blow-up of a small base beside a regular part, at most max_n
    vertices in all, which keeps the brute isomorphism oracle fast."""
    part = draw(st.sampled_from([K2, C4, TWO_K2, C5]))
    room = max_n - part.n
    base = draw(st.sampled_from([b for b in BLOW_UP_BASES if b.n <= room]))
    sizes = [1] * base.n
    for _ in range(draw(st.integers(min_value=0, max_value=room - base.n))):
        sizes[draw(st.integers(min_value=0, max_value=base.n - 1))] += 1
    return _vertex_disjoint_union(blow_up(base, sizes), part)


class TestHypergraph:
    def test_normalizes_edge_order_and_duplicates(self):
        g = Hypergraph(3, ((2, 0), (0, 2), (1,)))
        assert g.edges == ((1,), (0, 2))

    def test_rejects_bad_edges(self):
        with pytest.raises(InvalidHypergraphError):
            Hypergraph(2, ((),))
        with pytest.raises(InvalidHypergraphError):
            Hypergraph(2, ((0, 0),))
        with pytest.raises(InvalidHypergraphError):
            Hypergraph(2, ((0, 2),))
        with pytest.raises(InvalidHypergraphError):
            Hypergraph(2, ((-1,),))
        with pytest.raises(InvalidHypergraphError, match="^vertex count must be >= 0$"):
            Hypergraph(-1, ())

    def test_rejects_oversized_edges(self):
        with pytest.raises(UnsupportedSizeError):
            Hypergraph(17, (tuple(range(17)),))

    def test_refuses_non_integer_counts_and_vertices(self):
        # int() would have made these n = 2 and the edge (0, 1)
        with pytest.raises(InvalidArgumentError, match="vertex count .* not 2.7"):
            Hypergraph(2.7, [(0, 1)])
        with pytest.raises(InvalidArgumentError, match="vertex must .* not 1.9"):
            Hypergraph(3, [(0, 1.9)])

    def test_degree_and_size_queries(self):
        g = complete(2, (1, 2))
        assert g.edge_sizes() == (1, 2)
        assert g.edges_of_size(2) == ((0, 1),)
        assert g.degree(0) == 2
        assert g.degree(0, r=1) == 1
        assert tuple(g.edge_types()) == (1, 2)

    def test_edge_types_needs_edges(self):
        with pytest.raises(InvalidArgumentError):
            empty_graph(2).edge_types()

    def test_with_edges(self):
        g = empty_graph(3).with_edges((0, 1), (2,))
        assert g.edges == ((2,), (0, 1))

    def test_with_edges_refuses_a_non_sequence_edge(self):
        # read by the constructor's edge reader, not by a bare tuple(e)
        with pytest.raises(InvalidArgumentError, match="^edge must be a sequence, not 5$"):
            empty_graph(3).with_edges(5)

    def test_stored_edge_set_and_hash_stay_out_of_equality(self):
        # edge_set and the hash are kept on the instance after first use
        g = Hypergraph(3, ((2, 1), (0,), (1, 0)))
        assert g.edge_set is g.edge_set
        assert hash(g) == hash(g) == hash((3, ((0,), (0, 1), (1, 2))))
        ways = [
            Hypergraph._from_normalized(3, ((0,), (0, 1), (1, 2))),
            Hypergraph(3, ((0,), (1, 2)))._with_edge((0, 1)),
            empty_graph(3).with_edges((1, 2), (0, 1), (0,)),
            pickle.loads(pickle.dumps(g)),
        ]
        ways[0].edge_set, hash(ways[1])  # stored on some, not on the others
        for h in ways:
            assert h == g and g == h
            assert hash(h) == hash(g)
            assert repr(h) == repr(g) == "Hypergraph(n=3, edges=((0,), (0, 1), (1, 2)))"
        assert len({g, *ways}) == 1
        assert [f.name for f in dataclasses.fields(Hypergraph)] == ["n", "edges"]
        assert g != Hypergraph(3, ((0,), (0, 1)))


def _assert_validated(g):
    # a graph built without validation equals the validated one on its edges
    checked = Hypergraph(g.n, g.edges)
    assert g == checked
    assert hash(g) == hash(checked)
    assert g.edge_set == checked.edge_set
    assert type(g.n) is int and type(g.edges) is tuple


class TestUnvalidatedConstruction:
    @given(
        st.integers(min_value=1, max_value=5),
        st.sets(st.integers(min_value=1, max_value=3), min_size=1),
        st.randoms(use_true_random=False),
    )
    def test_grow_children(self, n, sizes, rnd):
        # admits sees each child that _grow builds: those whose new edge
        # passes the edge-invariant check; admitting a random third of the
        # children reaches deep levels while keeping the run small
        def admits(child, e):
            _assert_validated(child)
            assert e in child.edge_set
            return rnd.random() < 0.3

        for g in _grow(n, EdgeTypeSet(tuple(sizes)), admits):
            _assert_validated(g)

    @given(
        hypergraphs(max_n=4).flatmap(
            lambda g: st.tuples(
                st.just(g),
                st.lists(
                    st.integers(min_value=0, max_value=3),
                    min_size=g.n, max_size=g.n,
                ),
            )
        )
    )
    def test_blow_up(self, drawn):
        _assert_validated(blow_up(*drawn))

    @given(
        patterns(max_n=4, max_size=3).flatmap(
            lambda p: st.tuples(
                st.just(p),
                st.lists(
                    st.integers(min_value=0, max_value=3),
                    min_size=p.n, max_size=p.n,
                ),
            )
        )
    )
    def test_realize(self, drawn):
        # multiplicities up to 3 and classes of size 0 up to 3: a row takes
        # every union of k-subsets, none where a class is too small
        pattern, sizes = drawn
        g = realize(pattern, sizes)
        _assert_validated(g)
        assert g.n == sum(sizes)
        assert len(g.edges) == sum(
            math.prod(math.comb(s, k) for s, k in zip(sizes, row))
            for row in pattern.edges
        )

    @given(hypergraphs(max_n=7, sizes=(1, 2, 3, 4)))
    def test_canonical_graph(self, g):
        _assert_validated(canonical_graph(g))

    @given(
        st.integers(min_value=0, max_value=8),
        st.sets(st.integers(min_value=1, max_value=10), min_size=1),
    )
    def test_complete(self, n, sizes):
        g = complete(n, sizes)
        _assert_validated(g)
        assert len(g.edges) == sum(math.comb(n, r) for r in sizes)

    @given(st.integers(min_value=2, max_value=9))
    def test_marked_clique(self, t):
        g = marked_clique(t)
        _assert_validated(g)
        assert g.edges == ((0,),) + complete(t, (2,)).edges

    def test_complete_and_marked_clique_keep_their_errors(self):
        with pytest.raises(InvalidHypergraphError, match="vertex count"):
            complete(-1, (2,))
        with pytest.raises(UnsupportedSizeError, match="edge size must be <= 16, not 17"):
            complete(17, (2, 17))
        with pytest.raises(InvalidArgumentError, match="t must be >= 2, not 1"):
            marked_clique(1)


class TestLubell:
    # frozen: independently recomputed from the definition
    @pytest.mark.parametrize(
        "graph,value",
        [
            (chain_graph(), F(3, 2)),
            (complete(2, (1, 2)), F(2)),
            (Hypergraph(3, ((0,), (0, 1), (1, 2))), F(1)),
            (empty_graph(4), F(0)),
            (complete(4, (2,)), F(1)),
            (complete(3, (1, 2, 3)), F(3)),
        ],
    )
    def test_frozen_values(self, graph, value):
        assert lubell(graph) == value

    @given(hypergraphs())
    def test_matches_bruteforce(self, g):
        assert lubell(g) == oracles.brute_lubell(g)

    @given(hypergraphs())
    def test_bounded_by_type_count(self, g):
        assert 0 <= lubell(g) <= len(set(g.edge_sizes()))


class TestBlowUpAndRealize:
    def test_chain_blow_up_counts(self):
        g = blow_up(chain_graph(), (2, 3))
        assert g.n == 5
        assert len(g.edges_of_size(1)) == 2
        assert len(g.edges_of_size(2)) == 6

    def test_zero_class_deletes_vertex(self):
        g = blow_up(chain_graph(), (1, 0))
        assert g.n == 1 and g.edges == ((0,),)

    @given(hypergraphs(max_n=4))
    def test_unit_blow_up_is_identity(self, g):
        assert blow_up(g, (1,) * g.n) == g

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_balanced_pair_blow_up_value(self, m):
        g = blow_up(complete(2, (2,)), (m, m))
        assert lubell(g) == F(m * m, math.comb(2 * m, 2))

    def test_realize_single_row(self):
        g = realize(Pattern(1, ((2,),)), (4,))
        assert g.n == 4 and len(g.edges) == math.comb(4, 2)

    def test_realize_skips_undersized_classes(self):
        g = realize(Pattern(1, ((2,),)), (1,))
        assert g.n == 1 and g.edges == ()

    def test_blow_up_class_count_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            blow_up(chain_graph(), (1, 1, 1))

    def test_blow_up_refuses_non_integer_class_sizes(self):
        with pytest.raises(InvalidArgumentError, match="class size .* not 1.9"):
            blow_up(chain_graph(), (1.9, 2))

    def test_realize_refuses_non_integer_class_sizes(self):
        with pytest.raises(InvalidArgumentError, match="class size .* not 3.5"):
            realize(Pattern(1, ((2,),)), (3.5,))


class TestPattern:
    def test_round_trip_simple(self):
        p = Pattern.from_hypergraph(chain_graph())
        assert p.is_simple()
        assert p.to_hypergraph() == chain_graph()

    def test_multiplicity_rows(self):
        p = Pattern(2, ((2, 0), (1, 1)))
        assert not p.is_simple()
        with pytest.raises(InvalidArgumentError):
            p.to_hypergraph()

    def test_rejects_duplicate_rows(self):
        with pytest.raises(InvalidHypergraphError):
            Pattern(2, ((1, 0), (1, 0)))

    def test_rejects_empty_and_oversized_rows(self):
        with pytest.raises(InvalidHypergraphError):
            Pattern(2, ((0, 0),))
        with pytest.raises(UnsupportedSizeError):
            Pattern(1, ((17,),))
        with pytest.raises(InvalidHypergraphError,
                           match="^pattern needs at least one vertex$"):
            Pattern(0, ())
        with pytest.raises(InvalidHypergraphError,
                           match=r"^multiplicity row \(1,\) has length 1, expected 2$"):
            Pattern(2, ((1,),))
        with pytest.raises(InvalidHypergraphError,
                           match=r"^negative multiplicity in row \(-1, 2\)$"):
            Pattern(2, ((-1, 2),))
        # from_hypergraph meets the constructor's one refusal
        with pytest.raises(InvalidHypergraphError,
                           match="^pattern needs at least one vertex$"):
            Pattern.from_hypergraph(Hypergraph(0, ()))

    def test_refuses_non_integer_counts_and_multiplicities(self):
        # int() would have made the row (1, 1), a different pattern
        with pytest.raises(InvalidArgumentError, match="multiplicity .* not 1.5"):
            Pattern(2, [(1.5, 1)])
        with pytest.raises(InvalidArgumentError, match="vertex count .* not 2.0"):
            Pattern(2.0, [(1, 1)])


class TestSimplexPoint:
    def test_exact_rational_sum_enforced(self):
        SimplexPoint((F(1, 3), F(2, 3)))
        with pytest.raises(InvalidArgumentError):
            SimplexPoint((F(1, 3), F(1, 3)))

    def test_float_tolerance(self):
        SimplexPoint((0.3, 0.7))
        with pytest.raises(InvalidArgumentError):
            SimplexPoint((0.3, 0.8))

    def test_nan_refused(self):
        # NaN fails both the sign and the sum test, so it is named alone
        with pytest.raises(InvalidArgumentError, match="NaN"):
            SimplexPoint((math.nan, 1.0))
        with pytest.raises(InvalidArgumentError):
            SimplexPoint((math.inf, 0.0))

    def test_empty_and_negative_weights_refused(self):
        with pytest.raises(InvalidArgumentError,
                           match="^simplex point needs at least one weight$"):
            SimplexPoint(())
        # the weights sum to exactly 1, so only the sign refuses them
        with pytest.raises(InvalidArgumentError,
                           match="^negative weight in simplex point$"):
            SimplexPoint((F(-1, 2), F(3, 2)))

    def test_uniform_and_support(self):
        p = SimplexPoint.uniform(4)
        assert p.is_rational and sum(p.weights) == 1
        q = SimplexPoint((F(1, 2), F(0), F(1, 2)))
        assert q.support == (0, 2)
        assert q.dimension == 3


class TestEmbeddings:
    @given(hypergraphs(max_n=5), hypergraphs(max_n=3))
    def test_witnesses_match_bruteforce(self, big, small):
        big_edges = big.edge_set
        for find, induced in (
            (find_embedding, False),
            (find_induced_embedding, True),
        ):
            image = find(big, small)
            exists = oracles.brute_contains(big, small, induced=induced)
            assert (image is not None) == exists
            if image is None:
                continue
            assert len(image) == small.n == len(set(image))
            assert all(0 <= c < big.n for c in image)
            for e in small.edges:
                assert tuple(sorted(image[v] for v in e)) in big_edges
            if induced:
                preimage = {c: v for v, c in enumerate(image)}
                for e in big.edges:
                    if all(c in preimage for c in e):
                        pulled = tuple(sorted(preimage[c] for c in e))
                        assert pulled in small.edge_set

    @given(hypergraphs(max_n=5), hypergraphs(max_n=3))
    def test_containment_matches_bruteforce(self, big, small):
        assert contains_subgraph(big, small) == oracles.brute_contains(
            big, small
        )
        assert contains_induced(big, small) == oracles.brute_contains(
            big, small, induced=True
        )

    @given(
        hypergraphs(max_n=6, min_edges=1).flatmap(
            lambda g: st.tuples(st.just(g), st.sampled_from(g.edges))
        ),
        st.one_of(hypergraphs(max_n=4), st.sampled_from(TWIN_RICH)),
    )
    @settings(max_examples=300)
    def test_containment_through_an_edge_matches_bruteforce(self, drawn, small):
        big, e = drawn
        assert contains_subgraph(big, small, through=e) == (
            oracles.brute_contains_through(big, small, e)
        )

    def test_through_needs_an_edge_of_big(self):
        big = Hypergraph(4, ((0,), (0, 1), (1, 2, 3)))
        # any iterable of the vertices of an edge names it
        assert contains_subgraph(big, chain_graph(), through=[1, 0])
        assert not contains_subgraph(big, chain_graph(), through=(1, 2, 3))
        for through, text in [
            ((0, 2), r"through must be an edge of the graph, not \(0, 2\)"),
            ((4,), r"through must be an edge of the graph, not \(4,\)"),
            ((), r"through must be an edge of the graph, not \(\)"),
            (5, "through must be a sequence, not 5"),
            ((0.0, 1.0), "through vertex must be an integer, not 0.0"),
            ((True,), "through vertex must be an integer, not True"),
        ]:
            with pytest.raises(InvalidArgumentError, match=f"^{text}$"):
                contains_subgraph(big, chain_graph(), through=through)

    def test_induced_versus_subgraph(self):
        assert contains_subgraph(complete(3, (2,)), PATH3)
        assert not contains_induced(complete(3, (2,)), PATH3)
        assert contains_induced(C4, PATH3)

    def test_find_embedding_returns_valid_map(self):
        image = find_embedding(complete(2, (1, 2)), chain_graph())
        assert image is not None
        big_edges = set(complete(2, (1, 2)).edges)
        for e in chain_graph().edges:
            assert tuple(sorted(image[v] for v in e)) in big_edges
        assert find_embedding(empty_graph(3), chain_graph()) is None

    def test_find_induced_embedding(self):
        assert find_induced_embedding(C4, PATH3) is not None
        assert find_induced_embedding(complete(3, (2,)), PATH3) is None


class TestCanonical:
    @given(hypergraphs(max_n=6), st.randoms(use_true_random=False))
    def test_invariant_under_relabeling(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        relabeled = Hypergraph(
            g.n, tuple(tuple(perm[v] for v in e) for e in g.edges)
        )
        assert canonical_form(relabeled) == canonical_form(g)

    @given(hypergraphs(max_n=4), hypergraphs(max_n=4))
    def test_isomorphism_matches_bruteforce(self, a, b):
        assert is_isomorphic(a, b) == oracles.brute_is_isomorphic(a, b)

    @given(hypergraphs(max_n=5))
    def test_canonical_graph_is_isomorphic(self, g):
        rep = canonical_graph(g)
        assert is_isomorphic(rep, g)
        assert canonical_form(rep) == canonical_form(g)

    def test_size_cap(self):
        with pytest.raises(UnsupportedSizeError):
            canonical_form(empty_graph(17))

    def test_layerwise_symmetric_graphs_are_their_own_canonical_graph(self):
        # each size layer empty or complete: every labeling gives these edges
        for n in range(9):
            for k in range(5):
                for sizes in itertools.combinations((1, 2, 3, 4), k):
                    g = complete(n, sizes) if sizes else empty_graph(n)
                    assert canonical_graph(g) == g

    # frozen: the search branches once per twin class, and must keep these
    # bytes, recorded when it branched on every vertex of the target cell
    @pytest.mark.parametrize(
        "graph,encoding",
        [
            (blow_up(chain_graph(), (2, 3)), b"5|3;4;0,3;0,4;1,3;1,4;2,3;2,4"),
            (marked_clique(4), b"4|3;0,1;0,2;0,3;1,2;1,3;2,3"),
            (Hypergraph(6, ((0, 1), (2, 3), (4, 5))), b"6|0,1;2,3;4,5"),
            (
                Hypergraph(5, ((0,), (0, 1), (0, 2), (0, 3), (0, 4))),
                b"5|4;0,4;1,4;2,4;3,4",
            ),
            (
                Hypergraph(5, ((0, 1, 2), (0, 1, 3), (0, 1, 4))),
                b"5|0,3,4;1,3,4;2,3,4",
            ),
            (blow_up(chain_graph(), (1, 6)), b"7|6;0,6;1,6;2,6;3,6;4,6;5,6"),
            (
                blow_up(marked_clique(3), (1, 2, 3)),
                b"6|5;0,3;0,4;0,5;1,3;1,4;1,5;2,3;2,4;2,5;3,5;4,5",
            ),
        ],
    )
    def test_frozen_encodings_with_twins(self, graph, encoding):
        assert canonical_form(graph) == encoding

    def test_invariant_where_refinement_cannot_split(self):
        # C3 + C4 is regular, so refinement leaves one cell, whose vertices
        # fall in three twin classes, and the search must branch on both cycles
        g = C3_C4
        rnd = random.Random(0)
        for _ in range(20):
            perm = list(range(g.n))
            rnd.shuffle(perm)
            relabeled = Hypergraph(
                g.n, tuple(tuple(perm[v] for v in e) for e in g.edges)
            )
            assert canonical_form(relabeled) == b"7|0,1;0,2;1,2;3,4;3,5;4,6;5,6"

    @given(
        st.sampled_from(BLOW_UP_BASES)
        .flatmap(
            lambda base: st.tuples(
                st.just(base),
                st.lists(
                    st.integers(min_value=1, max_value=3),
                    min_size=base.n, max_size=base.n,
                ),
            )
        )
        .filter(lambda drawn: sum(drawn[1]) <= 7),
        st.randoms(use_true_random=False),
    )
    def test_isomorphism_of_relabeled_blow_ups(self, drawn, rnd):
        # blow-ups have twin classes of every size up to 3, which random
        # graphs rarely do.  b is a relabeled copy of a, half the time with
        # one edge moved to a non-edge of the same size.
        base, sizes = drawn
        a = blow_up(base, sizes)
        b = _relabeled_maybe_moving_an_edge(a, rnd)
        assert is_isomorphic(a, b) == oracles.brute_is_isomorphic(a, b)

    @given(_blow_ups_beside_regular_parts(), st.randoms(use_true_random=False))
    def test_isomorphism_of_blow_ups_beside_regular_parts(self, a, rnd):
        # at the root the regular part shares cells with blow-up vertices,
        # so cells made of one twin class sit beside cells that are not
        b = _relabeled_maybe_moving_an_edge(a, rnd)
        assert is_isomorphic(a, b) == oracles.brute_is_isomorphic(a, b)

    @pytest.mark.parametrize(
        "graph",
        [complete(16, (2,)), marked_clique(16), blow_up(chain_graph(), (8, 8))],
    )
    def test_twin_cells_refine_once(self, graph, monkeypatch):
        # every root cell is one twin class, so the root is the only node
        calls = []
        refine = hypercore._refine_colors
        monkeypatch.setattr(
            hypercore, "_refine_colors",
            lambda *args: calls.append(None) or refine(*args),
        )
        canonical_form.cache_clear()
        canonical_form(graph)
        assert len(calls) == 1


def _relabeled_maybe_moving_an_edge(a, rnd):
    """A random relabeling of a, half the time with one edge moved to a
    non-edge of the same size."""
    edges = list(a.edges)
    if rnd.random() < 0.5:
        old = edges.pop(rnd.randrange(len(edges)))
        free = [
            e for e in itertools.combinations(range(a.n), len(old))
            if e not in a.edge_set
        ]
        edges.append(rnd.choice(free) if free else old)
    return _relabeled(Hypergraph(a.n, tuple(edges)), rnd)


def _relabeled(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    return Hypergraph(g.n, tuple(tuple(perm[v] for v in e) for e in g.edges))


def _vertex_disjoint_union(a, b):
    shifted = tuple(tuple(v + a.n for v in e) for e in b.edges)
    return Hypergraph(a.n + b.n, a.edges + shifted)


def _canonical_corpus():
    """Seeded random graphs on n <= 8 over seven edge-size sets, each paired
    with a random relabeling of itself."""
    rnd = random.Random(13)
    for sizes in ((1,), (2,), (1, 2), (3,), (2, 3), (1, 2, 3), (4,)):
        for n in range(1, 9):
            pool = [
                e for r in sizes if r <= n
                for e in itertools.combinations(range(n), r)
            ]
            for _ in range(30):
                p = rnd.random()
                g = Hypergraph(n, tuple(e for e in pool if rnd.random() < p))
                perm = list(range(n))
                rnd.shuffle(perm)
                yield g, Hypergraph(
                    n, tuple(tuple(perm[v] for v in e) for e in g.edges)
                )


def _mixed_cell_corpus():
    """Graphs whose root cells are one twin class beside cells that are not:
    blow-ups with classes of 1-4 vertices, each next to a regular part (C5
    and C6 are twin-free, C3 + C4 has three twin classes in one cell), up
    to 16 vertices; then complete(16, (2,)), marked_clique(16) and every
    blow-up of the chain up to 16 vertices."""
    for part in (C3_C4, C5, C6):
        for base in BLOW_UP_BASES:
            for sizes in itertools.product(range(1, 5), repeat=base.n):
                if sum(sizes) + part.n <= MAX_LABELING_VERTICES:
                    yield _vertex_disjoint_union(blow_up(base, sizes), part)
    yield complete(16, (2,))
    yield marked_clique(16)
    for total in range(2, 17):
        for a in range(1, total):
            yield blow_up(chain_graph(), (a, total - a))


# frozen: sha256 over the canonical forms of the corpus above, and over the
# enumerate_graphs orders below, recorded while refinement still ran a last
# pass to confirm a stable partition; stopping at it keeps both
CORPUS_DIGEST = "a1e839678bef0867009c2cdd1d91b252c4cdbbd9f40f1f821953022d24eeabc7"
ENUMERATION_DIGEST = "96c36bebd3a26fad12b896de13e9f2971d5d17e8ab572715f2f6c574b55f8ea5"
# frozen: the same over the corpus just above, recorded while every search
# node below the root still refined and branched
MIXED_CELL_DIGEST = "f2052d025b9574cf18a628e151bd44f80802f05d67d00bfe039479312016db79"


def _labelled_graphs(max_n=8):
    """Graphs on at most max_n vertices over six edge-size sets, and
    blow-ups, whose twin classes random graphs rarely have."""
    sized = st.sampled_from(((1,), (2,), (1, 2), (3,), (2, 3), (1, 2, 3))).flatmap(
        lambda sizes: hypergraphs(max_n=max_n, sizes=sizes)
    )
    blown = st.sampled_from(BLOW_UP_BASES + (C4, TWO_K2)).flatmap(
        lambda base: st.lists(
            st.integers(min_value=0, max_value=3), min_size=base.n, max_size=base.n
        )
        .filter(lambda sizes: 1 <= sum(sizes) <= max_n)
        .map(lambda sizes: blow_up(base, sizes))
    )
    return st.one_of(sized, blown)


class TestCanonicalLabeling:
    @given(_labelled_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_key_graph_and_generators(self, g, rnd):
        # the uncached labeller behind canonical_form, as _grow reads it:
        # the canonical graph's edges and automorphisms of it, whatever the
        # labels
        relabeled = _relabeled(g, rnd)
        key, generators = hypercore._canonical_labeling(relabeled)
        assert hypercore._format_encoding(key) == canonical_form(g)
        canon = canonical_graph(g)
        assert Hypergraph._from_normalized(*key) == canon
        for perm in generators:
            assert sorted(perm) == list(range(canon.n))
            assert {tuple(sorted(perm[v] for v in e)) for e in canon.edges} == (
                canon.edge_set
            )

    @given(
        st.one_of(_labelled_graphs(max_n=7), _blow_ups_beside_regular_parts()),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_generators_give_the_orbits(self, g, rnd):
        # the twin swaps and the automorphisms that equal leaves show
        # generate Aut: their orbits on vertices and non-edges are the brute ones
        key, perms = hypercore._canonical_labeling(_relabeled(g, rnd))
        canon = Hypergraph._from_normalized(*key)
        vertices = [(v,) for v in range(canon.n)]
        non_edges = [
            s for r in (1, 2, 3) for s in itertools.combinations(range(canon.n), r)
            if s not in canon.edge_set
        ]
        for sets in (vertices, non_edges):
            assert oracles.generated_orbits(perms, sets) == oracles.brute_orbits(canon, sets)


class TestOrbitFirsts:
    @given(_labelled_graphs(max_n=7), st.sampled_from((1, 2, 3)))
    @settings(max_examples=150, deadline=None)
    def test_twin_swaps_keep_the_twin_prefix_sets(self, g, r):
        # under the twin swaps, the first set of each orbit in edge order is
        # the one that meets every twin class in a prefix: the anchors of
        # _search_plan, and the tried non-edges of a graph without other
        # automorphisms, are those of the twin-prefix rule
        classes = equivalence_classes(g)
        swaps = hypercore._twin_swaps(g.n, classes)
        edges = g.edges_of_size(r)
        non_edges = [
            s for s in itertools.combinations(range(g.n), r) if s not in g.edge_set
        ]
        for sets in (edges, non_edges):
            assert hypercore._orbit_firsts(sets, swaps) == (
                oracles.twin_prefix_sets(classes, sets)
            )


class TestCanonicalDigest:
    def test_random_corpus(self):
        digest = hashlib.sha256()
        for g, relabeled in _canonical_corpus():
            key = canonical_form(g)
            assert canonical_form(relabeled) == key
            digest.update(key + b"\n")
        assert digest.hexdigest() == CORPUS_DIGEST

    def test_enumeration_order(self):
        # the first 400 classes of each: all but those of (6, (3,)), whose
        # 3-graphs with up to 8 edges need more than one refinement pass
        digest = hashlib.sha256()
        for n, sizes in (
            (6, (2,)), (4, (1, 2)), (3, (1, 2, 3)), (5, (3,)), (4, (2, 3)), (6, (3,))
        ):
            digest.update(f"{n} {sizes}\n".encode("ascii"))
            for g in itertools.islice(enumerate_graphs(n, EdgeTypeSet(sizes)), 400):
                digest.update(canonical_form(g) + b"\n")
        assert digest.hexdigest() == ENUMERATION_DIGEST

    def test_twin_cells_beside_other_cells(self):
        digest = hashlib.sha256()
        rnd = random.Random(5)
        for g in _mixed_cell_corpus():
            key = canonical_form(g)
            assert canonical_form(_relabeled(g, rnd)) == key
            digest.update(key + b"\n")
        assert digest.hexdigest() == MIXED_CELL_DIGEST


class TestEquivalenceClasses:
    @given(hypergraphs())
    def test_matches_swap_definition(self, g):
        assert equivalence_classes(g) == oracles.brute_twin_classes(g)

    def test_twin_free(self):
        # a marked path: every swap of two vertices moves some edge off the set
        g = Hypergraph(4, ((0,), (0, 1), (1, 2), (2, 3)))
        assert equivalence_classes(g) == ((0,), (1,), (2,), (3,))
        assert oracles.brute_twin_classes(g) == ((0,), (1,), (2,), (3,))

    def test_all_twins(self):
        g = complete(5, (1, 2, 3))
        assert equivalence_classes(g) == ((0, 1, 2, 3, 4),)
        assert oracles.brute_twin_classes(g) == ((0, 1, 2, 3, 4),)

    def test_one_partition_shared(self):
        import turanlab
        import turanlab.lagrangian
        import turanlab.seqdensity

        assert turanlab.lagrangian.equivalence_classes is equivalence_classes
        assert turanlab.seqdensity.equivalence_classes is equivalence_classes
        assert turanlab.equivalence_classes is equivalence_classes


class TestGraphArguments:
    @pytest.mark.parametrize(
        "call,text",
        [
            (lambda: canonical_form(5), "graph must be a Hypergraph, not 5"),
            (lambda: canonical_graph("x"), "graph must be a Hypergraph, not 'x'"),
            (lambda: canonical_form([1]), r"graph must be a Hypergraph, not \[1\]"),
            (lambda: canonical_graph([1]), r"graph must be a Hypergraph, not \[1\]"),
            (lambda: is_isomorphic(K2, 5), "b must be a Hypergraph, not 5"),
            (lambda: equivalence_classes(5), "graph must be a Hypergraph, not 5"),
            (lambda: contains_subgraph(K2, 5), "small must be a Hypergraph, not 5"),
            (lambda: contains_subgraph(5, K2, through=(0, 1)),
             "big must be a Hypergraph, not 5"),
            (lambda: find_embedding(5, K2), "big must be a Hypergraph, not 5"),
            (lambda: find_induced_embedding(K2, None),
             "small must be a Hypergraph, not None"),
            (lambda: contains_induced(5, K2), "big must be a Hypergraph, not 5"),
            (lambda: induced_subgraph(5, [0]), "graph must be a Hypergraph, not 5"),
            (lambda: disjoint_type_union(5, K2), "a must be a Hypergraph, not 5"),
            (lambda: disjoint_type_union(K2, None), "b must be a Hypergraph, not None"),
        ],
    )
    def test_refuses_a_non_graph(self, call, text):
        with pytest.raises(InvalidArgumentError, match=f"^{text}$"):
            call()


class TestInducedSubgraph:
    def test_relabels_to_range(self):
        g = induced_subgraph(complete(4, (2,)), (1, 3))
        assert g == complete(2, (2,))

    @given(hypergraphs(max_n=5))
    def test_full_vertex_set_is_identity(self, g):
        assert induced_subgraph(g, range(g.n)) == g

    def test_drops_crossing_edges(self):
        g = induced_subgraph(chain_graph(), (0,))
        assert g.edges == ((0,),)

    def test_refuses_non_integer_vertices(self):
        with pytest.raises(InvalidArgumentError, match="vertex must .* not 1.5"):
            induced_subgraph(complete(3, (2,)), (0, 1.5))

    def test_refuses_empty_and_outside_vertex_sets(self):
        with pytest.raises(InvalidArgumentError,
                           match="^induced subgraph needs a non-empty vertex set$"):
            induced_subgraph(chain_graph(), ())
        with pytest.raises(InvalidArgumentError,
                           match=r"^vertex set \[0, 2\] not inside 0..1$"):
            induced_subgraph(chain_graph(), (0, 2))


class TestEdgeTypeSet:
    def test_sorted_and_deduped(self):
        assert EdgeTypeSet((2, 1, 2)).sizes == (1, 2)

    def test_membership(self):
        types = EdgeTypeSet((1, 3))
        assert 1 in types and 2 not in types
        assert len(types) == 2

    def test_rejects_bad_sizes(self):
        with pytest.raises(InvalidArgumentError):
            EdgeTypeSet(())
        with pytest.raises(InvalidArgumentError):
            EdgeTypeSet((0,))
        with pytest.raises(UnsupportedSizeError):
            EdgeTypeSet((17,))

    def test_refuses_non_integer_sizes(self):
        with pytest.raises(InvalidArgumentError, match="edge size .* not 2.5"):
            EdgeTypeSet((2.5,))


class TestNamedGraphs:
    def test_chain_shape(self):
        assert chain_graph().edges == ((0,), (0, 1))

    def test_marked_clique_shape(self):
        g = marked_clique(3)
        assert g.edges_of_size(1) == ((0,),)
        assert len(g.edges_of_size(2)) == 3
        with pytest.raises(InvalidArgumentError):
            marked_clique(1)

    def test_complete_refuses_a_non_integer_count(self):
        with pytest.raises(InvalidArgumentError, match="vertex count .* not 2.5"):
            complete(2.5, (2,))

    def test_complete_layers(self):
        g = complete(3, (1, 2))
        assert len(g.edges) == 3 + 3
