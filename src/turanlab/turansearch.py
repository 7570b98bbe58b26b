"""Exhaustive small-n Turan densities over non-uniform hypergraphs.

One loop, ``_grow``, generates isomorphism classes level by level: each
frontier of canonical graphs with k edges, each held with generators of its
automorphism group, is extended by one edge and deduplicated by the
canonical (n, edges) tuple of one uncached labelling per child, so no
seen-set beyond the frontier is kept.  That labelling also gives the next
frontier's graphs and generators, and the frontier keeps the order of the
canonical bytes.  Only edges of largest invariant in the child are added,
an exact cut that drops most children before any containment test or
labelling (see ``_grow``).
``enumerate_graphs`` and both exhaustive modes of ``pi_n`` run on it.  In
subgraph mode freeness is monotone under edge removal, which lets the
loop grow only inside the free classes, and ``pi_n`` scores every class it
yields; in induced mode it grows every class and scores the free ones.

``_grow`` hands its test each child g + e of an accepted g together with the
new edge e, as ``admits(child, e)``.  In subgraph mode g is free, so a copy
of a member in g + e must use e, and ``pi_n`` searches only the embeddings
that map a member's edge onto e (``contains_subgraph(child, member,
through=e)``).  The answer is the child's freeness itself, so the level
order and every output are the same as with a full search.

Exact symmetry-pruning rules cut the isomorphic work, and none changes any
output.  ``_grow`` extends g only by one non-edge per orbit of Aut(g):
``_orbit_firsts`` keeps the first of each orbit of the group that the
generators from the labelling of g's class generate.
The labelling branches once per twin class of its target cell, and labels
a node whose non-singleton cells are each one twin class without searching
below it, for the reasons given in ``hypercore``'s canonical-labelling
notes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidArgumentError, TuranLabError
from .hypercore import (
    EdgeTypeSet,
    Hypergraph,
    _canonical_labeling,
    _degree_table,
    _format_encoding,
    _lubell_weights,
    _orbit_firsts,
    _require_int,
    _require_tuple,
    _require_type,
    _twin_swaps,
    canonical_form,
    complete,
    contains_induced,
    contains_subgraph,
    disjoint_type_union,
)

__all__ = [
    "ForbiddenFamily",
    "PiRecord",
    "DensityBound",
    "ENUMERATION_CAP",
    "enumerate_graphs",
    "pi_n",
    "density_sequence",
    "disjoint_type_union",
]

ENUMERATION_CAP = 8


@dataclass(frozen=True)
class ForbiddenFamily:
    """A finite family of forbidden graphs over an ambient edge-type set.

    Members are deduplicated up to isomorphism and must use only ambient edge
    sizes.  ``mode`` selects subgraph (not necessarily induced) or induced
    containment.
    """

    ambient: EdgeTypeSet
    members: tuple[Hypergraph, ...] = ()
    mode: str = "subgraph"

    def __post_init__(self):
        _require_type(self.ambient, EdgeTypeSet, "ambient")
        if self.mode not in ("subgraph", "induced"):
            raise InvalidArgumentError(
                f"mode must be 'subgraph' or 'induced', got {self.mode!r}"
            )
        unique: dict[bytes, Hypergraph] = {}
        for member in _require_tuple(self.members, "members"):
            _require_type(member, Hypergraph, "members entry")
            for r in member.edge_sizes():
                if r not in self.ambient:
                    raise InvalidArgumentError(
                        f"member uses edge size {r} outside the ambient set"
                    )
            unique.setdefault(canonical_form(member), member)
        members = tuple(unique[k] for k in sorted(unique))
        object.__setattr__(self, "members", members)

    def excludes(self, graph: Hypergraph) -> bool:
        """Whether the graph contains some member (in the family's mode)."""
        test = contains_induced if self.mode == "induced" else contains_subgraph
        return any(test(graph, member) for member in self.members)

    def admits(self, graph: Hypergraph) -> bool:
        return not self.excludes(graph)

    def _admits_through(self, child: Hypergraph, e: tuple[int, ...]) -> bool:
        """Whether no member embeds in child through its edge e, in subgraph
        mode: ``admits(child)`` when child less e is free (see ``_grow``)."""
        return not any(contains_subgraph(child, m, through=e) for m in self.members)


@dataclass(frozen=True)
class PiRecord:
    n: int
    pi_n: Fraction
    extremal: tuple[Hypergraph, ...]
    graphs_enumerated: int
    elapsed: float
    exhaustive: bool = True  # always: pi_n enumerates every class


@dataclass(frozen=True)
class DensityBound:
    family: ForbiddenFamily
    records: tuple[PiRecord, ...]


def _adds_largest_inv(rows, up, tops, top, e) -> bool:
    """Whether inv(e) is the largest inv in g + e (see ``_grow``), for a
    non-edge e of g no smaller than its edges, where ``rows`` is g's
    ``_degree_table``, ``up`` the same rows each raised by one in the size of
    g's largest edges, ``tops`` holds g's edges of that size and ``top`` is
    their largest inv in g.

    Adding e raises the degree rows of e's vertices and lowers none, so it
    lowers no inv: inv(e) below ``top`` is below some inv in g + e, and a
    top edge that misses e keeps its inv in g, at most ``top``.  Only the
    top edges that meet e are read again, with e's rows raised."""
    if not tops or len(e) > len(tops[0]):
        return True
    raised = {v: up[v] for v in e}
    mine = sorted(raised.values())
    if mine < top:
        return False
    return all(
        sorted([raised.get(v) or rows[v] for v in f]) <= mine
        for f in tops if not raised.keys().isdisjoint(f)
    )


def _grow(n: int, types: EdgeTypeSet, admits=None):
    """Yield each class g once, level by level.

    Within a level the canonical graphs come in canonical-form order, and the
    next level holds every class g + e that ``admits(g + e, e)`` accepts (all
    when ``admits`` is None).  The frontier holds each canonical graph with
    generators of its automorphism group, both from one
    ``_canonical_labeling`` of the first child of its class; the next level
    is keyed by that labelling's (n, edges) tuple and sorted by its
    ``_format_encoding``, the bytes of ``canonical_form``.

    Precondition: the empty graph is accepted, and ``admits(g + e, e)`` is
    called only for an accepted g, where it must answer as a test of g + e
    alone that sees only isomorphism classes and is closed under edge
    deletion (if it accepts a graph, it accepts the graph less any edge).
    Freeness in subgraph mode is such a test, and ``pi_n`` passes it as "no
    member embeds through e": g is free, so a copy of a member in g + e uses
    e.  The answers, and with them the levels and their order, are those of
    the test of g + e alone.

    Only one non-edge e of g per orbit of Aut(g) is tried, the first in
    edge order, which ``_orbit_firsts`` keeps.  An automorphism of g
    carrying e to e' is an isomorphism g + e -> g + e' that carries e to
    e', so both children pass or fail the tests below alike: each skipped
    child is isomorphic to a tried one.

    Of the tried children, only those whose new edge has the largest
    invariant join the next level.  In a graph h, inv(f) = (|f|, the sorted
    ``_degree_table`` rows in h of f's vertices), so an isomorphism maps each
    edge to one with the same inv.  The child g + e joins, once per key, iff
    inv(e) is the largest inv in g + e, read from g's degree rows plus e, and
    ``admits`` accepts it; a non-edge smaller than g's largest edges never
    has it and is not tried, and most other children fail the test, and
    skip ``admits`` and the labelling.  Nothing is lost, by induction on the
    level: a class C accepted at level k + 1 has an edge m of largest inv in
    its canonical graph canon.  canon - m is accepted, by the precondition,
    so its class has a frontier graph g, and an isomorphism canon - m -> g
    carries m onto a non-edge of g with a tried e in its Aut(g)-orbit.
    Then g + e is in C with e in the place of m, so inv(e) is the largest in
    it, and ``admits`` accepts it.
    This is the canonical-deletion half of McKay's canonical augmentation
    (J. Algorithms 26, 1998); his parent test is not needed, since children
    are deduplicated by key.
    """
    universe = complete(n, types).edges
    slot = {r: i for i, r in enumerate(types)}
    first = {}  # the index in universe of the first edge of each size
    for i, e in enumerate(universe):
        first.setdefault(len(e), i)
    # the empty graph is its own canonical graph, and Aut is every permutation
    frontier = [(Hypergraph(n, ()), _twin_swaps(n, (tuple(range(n)),)))]
    while frontier:
        nxt = {}  # canonical (n, edges) -> generators of Aut
        for g, generators in frontier:
            present = g.edge_set
            rows = _degree_table(g, types)
            tops = top = up = None
            rest = universe
            if g.edges:
                size = len(g.edges[-1])
                tops = [f for f in g.edges if len(f) == size]
                top = max(sorted([rows[v] for v in f]) for f in tops)
                i = slot[size]
                up = [row[:i] + (row[i] + 1,) + row[i + 1:] for row in rows]
                rest = universe[first[size]:]
            for e in _orbit_firsts([e for e in rest if e not in present], generators):
                if not _adds_largest_inv(rows, up, tops, top, e):
                    continue
                child = g._with_edge(e)
                if admits is not None and not admits(child, e):
                    continue
                key, automorphisms = _canonical_labeling(child)
                nxt.setdefault(key, automorphisms)
            yield g
        frontier = [
            (Hypergraph._from_normalized(*key), nxt[key])
            for key in sorted(nxt, key=_format_encoding)
        ]


def enumerate_graphs(n: int, types):
    """Yield one canonical representative per isomorphism class on n vertices.

    ``types`` is an ``EdgeTypeSet`` or any sequence of edge sizes.
    Level-by-level edge augmentation with canonical-form rejection: every
    class with k+1 edges arises from some class with k edges, so per-level
    deduplication visits each class exactly once.
    """
    n = _require_int(n, "n", 1, ENUMERATION_CAP)
    types = types if isinstance(types, EdgeTypeSet) else EdgeTypeSet(types)
    yield from _grow(n, types)


def pi_n(family: ForbiddenFamily, n: int, progress=None) -> PiRecord:
    """Largest Lubell density of a family-free graph on n labeled vertices.

    In subgraph mode ``_grow`` yields only the free classes, each child
    tested only through its new edge, and every one is scored; in induced
    mode it yields every class and the free ones are scored.  Counting the
    yields, ``graphs_enumerated`` is the number of free classes in subgraph
    mode and of all classes in induced mode.
    """
    _require_type(family, ForbiddenFamily, "family")
    n = _require_int(n, "n", 1, ENUMERATION_CAP)
    t0 = time.perf_counter()
    induced = family.mode == "induced"
    if not induced and family.excludes(Hypergraph(n, ())):
        raise InvalidArgumentError(
            "the family forbids the empty graph; no free graph exists"
        )
    d, w = _lubell_weights(n, family.ambient)
    best, extremal = -1, []  # every score is >= 0
    count = 0
    admits = None if induced else family._admits_through
    for g in _grow(n, family.ambient, admits):
        count += 1
        if progress and count % 1000 == 0:
            progress(count)
        if induced and not family.admits(g):
            continue
        h = sum(w[len(e)] for e in g.edges)
        if h > best:
            best, extremal = h, [g]
        elif h == best:
            extremal.append(g)
    if not extremal:
        raise InvalidArgumentError("no admissible graph exists on this vertex count")
    extremal.sort(key=canonical_form)
    return PiRecord(
        n=n,
        pi_n=Fraction(best, d),
        extremal=tuple(extremal),
        graphs_enumerated=count,
        elapsed=time.perf_counter() - t0,
    )


def density_sequence(family: ForbiddenFamily, n_max: int, progress=None) -> DensityBound:
    """pi_n records from the first meaningful n up to n_max; checks monotonicity."""
    _require_type(family, ForbiddenFamily, "family")
    member_sizes = [r for m in family.members for r in m.edge_sizes()]
    n_min = max(member_sizes) if member_sizes else family.ambient.max_size
    n_max = _require_int(n_max, "n_max", n_min, ENUMERATION_CAP)
    records = []
    previous = None
    for n in range(n_min, n_max + 1):
        rec = pi_n(family, n, progress=progress)
        # averaging over vertex deletions forces pi_n <= pi_{n-1}, but only
        # once no allowed edge can span all n vertices
        if (
            previous is not None
            and n > family.ambient.max_size
            and rec.pi_n > previous
        ):
            raise TuranLabError(
                f"pi_{n} = {rec.pi_n} exceeds pi_{n - 1} = {previous}; "
                "monotonicity violated (internal error)"
            )
        previous = rec.pi_n
        records.append(rec)
    return DensityBound(family=family, records=tuple(records))
