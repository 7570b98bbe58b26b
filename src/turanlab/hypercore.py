"""Core data model: edge-type sets, hypergraphs, patterns, simplex points.

Vertices are dense 0-based integers.  Edges are stored as sorted tuples in a
fixed global order (by size, then lexicographically) so that structural
equality, hashing, and serialized output are all deterministic.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, isnan, lcm
from numbers import Rational, Real

from .errors import (
    InvalidArgumentError,
    InvalidHypergraphError,
    UnsupportedSizeError,
)

MAX_EDGE_SIZE = 16
MAX_LABELING_VERTICES = 16

__all__ = [
    "EdgeTypeSet",
    "Hypergraph",
    "Pattern",
    "SimplexPoint",
    "MAX_EDGE_SIZE",
    "MAX_LABELING_VERTICES",
    "lubell",
    "induced_subgraph",
    "blow_up",
    "disjoint_type_union",
    "realize",
    "find_embedding",
    "find_induced_embedding",
    "contains_subgraph",
    "contains_induced",
    "canonical_form",
    "canonical_graph",
    "is_isomorphic",
    "complete",
    "empty_graph",
    "chain_graph",
    "marked_clique",
    "equivalence_classes",
]


def _require_int(value, what: str, least: int | None = None, cap: int | None = None) -> int:
    """``value`` as an int, through ``operator.index`` so that a float, a
    bool or any other non-integer is refused instead of truncated; with
    ``least``, a value below it is refused too, and with ``cap``, a value
    above it raises ``UnsupportedSizeError``.  Every size cap of the library
    is read here, where the count it limits is read."""
    try:
        if isinstance(value, bool):
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise InvalidArgumentError(f"{what} must be an integer, not {value!r}") from None
    if least is not None and n < least:
        raise InvalidArgumentError(f"{what} must be >= {least}, not {n}")
    if cap is not None and n > cap:
        raise UnsupportedSizeError(f"{what} must be <= {cap}, not {n}")
    return n


def _require_tuple(value, what: str, length: int | None = None) -> tuple:
    """The items of ``value`` as a tuple, so that a non-iterable is refused
    instead of failing later with a TypeError; with ``length``, a sequence
    of another length is refused too."""
    items = value
    if type(items) is not tuple:  # a tuple is returned as it is, uncopied
        try:
            items = iter(value)
        except TypeError:
            raise InvalidArgumentError(f"{what} must be a sequence, not {value!r}") from None
        items = tuple(items)
    if length is not None and len(items) != length:
        raise InvalidArgumentError(
            f"{what} must have {length} entries, not {len(items)}"
        )
    return items


def _require_number(value, what: str):
    """``value`` if it is a real number other than a bool (an int, a float, a
    Fraction or any ``numbers.Real``), so that a string or any other object
    is refused instead of failing later in a conversion."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidArgumentError(f"{what} must be a number, not {value!r}")
    return value


def _require_rational(value, what: str) -> Fraction:
    """``value`` as a Fraction: an int or any ``numbers.Rational``.  A float,
    a bool and a string are refused, not converted; text becomes a rational
    only in ``serialize.parse_fraction``."""
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise InvalidArgumentError(f"{what} must be a rational, not a bool")
    if isinstance(value, float):
        raise InvalidArgumentError(
            f"{what} must be an exact rational; convert floats explicitly"
        )
    if not isinstance(value, Rational):
        raise InvalidArgumentError(f"{what} must be a number, not {value!r}")
    return Fraction(value)


def _require_type(value, kind: type, what: str):
    """``value`` if it is an instance of ``kind``."""
    if not isinstance(value, kind):
        name = kind.__name__
        article = "an" if name[0] in "AEIOUaeiou" else "a"
        raise InvalidArgumentError(f"{what} must be {article} {name}, not {value!r}")
    return value


def _require_edge(value, graph: Hypergraph, what: str) -> tuple[int, ...]:
    """``value`` as an edge of ``graph``: the sorted tuple of its vertices,
    which must be ints; a set of vertices that is not an edge is refused."""
    if not (type(value) is tuple and all(type(v) is int for v in value)
            and value in graph.edge_set):  # else not an edge as stored
        value = tuple(sorted(
            _require_int(v, f"{what} vertex") for v in _require_tuple(value, what)
        ))
        if value not in graph.edge_set:
            raise InvalidArgumentError(
                f"{what} must be an edge of the graph, not {value!r}"
            )
    return value


@dataclass(frozen=True)
class EdgeTypeSet:
    """A finite set of admissible edge sizes, kept sorted and distinct."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(sorted({
            _require_int(r, "edge size", 1, MAX_EDGE_SIZE)
            for r in _require_tuple(self.sizes, "edge sizes")
        }))
        if not sizes:
            raise InvalidArgumentError("edge type set must be non-empty")
        object.__setattr__(self, "sizes", sizes)

    def __contains__(self, r: int) -> bool:
        return r in self.sizes

    def __iter__(self):
        return iter(self.sizes)

    def __len__(self) -> int:
        return len(self.sizes)

    @property
    def max_size(self) -> int:
        return self.sizes[-1]


def _normalize_edge(edge) -> tuple[int, ...]:
    e = tuple(sorted(_require_int(v, "vertex") for v in _require_tuple(edge, "edge")))
    if len(e) == 0:
        raise InvalidHypergraphError("empty edge")
    if len(set(e)) != len(e):
        raise InvalidHypergraphError(f"edge {e} repeats a vertex")
    return e


def _edge_order(e: tuple[int, ...]) -> tuple:
    """The global edge order: by size, then lexicographically."""
    return (len(e), e)


@dataclass(frozen=True)
class Hypergraph:
    """A finite hypergraph on vertex set {0, ..., n-1}.

    Edges are distinct non-empty vertex subsets; any iterable of iterables is
    normalized on construction.
    """

    n: int
    edges: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        n = _require_int(self.n, "vertex count")
        if n < 0:
            raise InvalidHypergraphError("vertex count must be >= 0")
        seen = {}
        for edge in _require_tuple(self.edges, "edges"):
            e = _normalize_edge(edge)
            if e[0] < 0 or e[-1] >= n:
                raise InvalidHypergraphError(
                    f"edge {e} is not inside the vertex range 0..{n - 1}"
                )
            _require_int(len(e), "edge size", cap=MAX_EDGE_SIZE)
            seen[e] = None
        edges = tuple(sorted(seen, key=_edge_order))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    # edge_set and the hash are built on first use and kept in the instance
    # __dict__, outside the fields, so equality and repr never see them.
    # functools.cached_property would take a lock on every first use before
    # Python 3.12, about as long as building a frontier child.

    @property
    def edge_set(self) -> frozenset:
        try:
            return self.__dict__["_edge_set"]
        except KeyError:
            edge_set = self.__dict__["_edge_set"] = frozenset(self.edges)
            return edge_set

    def __hash__(self) -> int:
        # the value dataclass(frozen=True) would generate; it keeps an
        # explicit __hash__
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = self.__dict__["_hash"] = hash((self.n, self.edges))
            return value

    def edge_sizes(self) -> tuple[int, ...]:
        """Distinct edge sizes present, ascending.  Empty for edgeless graphs."""
        return tuple(sorted({len(e) for e in self.edges}))

    def edge_types(self) -> EdgeTypeSet:
        sizes = self.edge_sizes()
        if not sizes:
            raise InvalidArgumentError("edgeless hypergraph has no edge types")
        return EdgeTypeSet(sizes)

    def edges_of_size(self, r: int) -> tuple[tuple[int, ...], ...]:
        r = _require_int(r, "edge size", 1)
        return tuple(e for e in self.edges if len(e) == r)

    def degree(self, v: int, r: int | None = None) -> int:
        v = _require_int(v, "vertex", 0)
        if v >= self.n:
            raise InvalidArgumentError(f"vertex {v} not inside 0..{self.n - 1}")
        if r is not None:
            r = _require_int(r, "edge size", 1)
        return sum(1 for e in self.edges if v in e and (r is None or len(e) == r))

    def with_edges(self, *extra) -> "Hypergraph":
        return Hypergraph(self.n, self.edges + extra)

    @classmethod
    def _from_normalized(cls, n: int, edges: tuple) -> "Hypergraph":
        """Build without validation, for callers that construct valid edges.

        Precondition: n is an int >= 0, and ``edges`` is a tuple of distinct
        non-empty tuples, each strictly increasing, inside 0..n-1 and at most
        MAX_EDGE_SIZE long, in ``_edge_order``: exactly what ``__post_init__``
        would have made of them.  Nothing checks it; a breach gives a graph
        that compares, hashes and encodes wrongly."""
        graph = object.__new__(cls)
        object.__setattr__(graph, "n", n)
        object.__setattr__(graph, "edges", edges)
        return graph

    def _with_edge(self, e: tuple[int, ...]) -> "Hypergraph":
        """``with_edges(e)`` without re-validation, for a non-edge e that
        meets the edge precondition of ``_from_normalized``: inserted at its
        slot in the edge order, it leaves the edges normalized."""
        edges = self.edges
        at = bisect.bisect(edges, _edge_order(e), key=_edge_order)
        return Hypergraph._from_normalized(self.n, edges[:at] + (e,) + edges[at:])


@dataclass(frozen=True)
class Pattern:
    """A multiplicity pattern: each edge is a per-vertex multiplicity vector.

    Row (k_1, ..., k_n) stands for an edge taking k_i vertices from the i-th
    class of any realization; |e| = sum(k_i).
    """

    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = _require_int(self.n, "vertex count")
        if n < 1:
            raise InvalidHypergraphError("pattern needs at least one vertex")
        rows = []
        seen = set()
        for row in _require_tuple(self.edges, "pattern edges"):
            r = tuple(_require_int(k, "multiplicity")
                      for k in _require_tuple(row, "multiplicity row"))
            if len(r) != n:
                raise InvalidHypergraphError(
                    f"multiplicity row {r} has length {len(r)}, expected {n}"
                )
            if any(k < 0 for k in r):
                raise InvalidHypergraphError(f"negative multiplicity in row {r}")
            size = sum(r)
            if size < 1:
                raise InvalidHypergraphError("pattern edge with total multiplicity 0")
            _require_int(size, "pattern edge size", cap=MAX_EDGE_SIZE)
            if r in seen:
                raise InvalidHypergraphError(f"duplicate pattern edge {r}")
            seen.add(r)
            rows.append(r)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(rows, key=lambda r: (sum(r), r))))

    @classmethod
    def from_hypergraph(cls, graph: Hypergraph) -> "Pattern":
        rows = []
        for e in graph.edges:
            row = [0] * graph.n
            for v in e:
                row[v] = 1
            rows.append(tuple(row))
        return cls(graph.n, tuple(rows))

    def is_simple(self) -> bool:
        return all(k <= 1 for row in self.edges for k in row)

    def to_hypergraph(self) -> Hypergraph:
        if not self.is_simple():
            raise InvalidArgumentError("pattern has multiplicities > 1")
        edges = tuple(
            tuple(i for i, k in enumerate(row) if k == 1) for row in self.edges
        )
        return Hypergraph(self.n, edges)


def _is_exact(value) -> bool:
    return isinstance(value, (Fraction, int)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimplexPoint:
    """A point of the standard simplex: nonnegative weights summing to 1.

    Entirely rational entries give an exact point (sum must equal 1 exactly);
    float entries are accepted within an absolute sum tolerance of 1e-12.
    """

    weights: tuple

    SUM_TOL = 1e-12

    def __post_init__(self):
        ws = _require_tuple(self.weights, "simplex weights")
        if not ws:
            raise InvalidArgumentError("simplex point needs at least one weight")
        for w in ws:
            _require_number(w, "simplex weights entry")
        exact = all(_is_exact(w) for w in ws)
        ws = tuple(map(Fraction if exact else float, ws))
        if not exact and any(isnan(w) for w in ws):
            raise InvalidArgumentError("NaN weight in simplex point")
        if any(w < 0 for w in ws):
            raise InvalidArgumentError("negative weight in simplex point")
        if exact and sum(ws) != 1:
            raise InvalidArgumentError("rational weights must sum to exactly 1")
        if not exact and abs(sum(ws) - 1.0) > self.SUM_TOL:
            raise InvalidArgumentError(
                f"weights sum to {sum(ws)!r}, outside tolerance {self.SUM_TOL}"
            )
        object.__setattr__(self, "weights", ws)

    @property
    def is_rational(self) -> bool:
        return all(isinstance(w, Fraction) for w in self.weights)

    @property
    def dimension(self) -> int:
        return len(self.weights)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.weights) if w > 0)

    @classmethod
    def uniform(cls, n: int) -> "SimplexPoint":
        n = _require_int(n, "n", 1)
        return cls(tuple(Fraction(1, n) for _ in range(n)))


# ---------------------------------------------------------------------------
# densities and small constructions


def _lubell_weights(n: int, sizes) -> tuple[int, dict[int, int]]:
    """(d, w): d is the lcm of C(n, r) over the sizes r <= n, and an edge of
    size r weighs w[r] = d // C(n, r), so a Lubell value is a sum of weights
    over d.  Every Lubell value and score in the library is built from it."""
    binomials = {r: comb(n, r) for r in sizes if r <= n}
    d = lcm(*binomials.values())
    return d, {r: d // c for r, c in binomials.items()}


def lubell(graph: Hypergraph) -> Fraction:
    """Exact Lubell density: sum over edges of 1/C(n, |e|)."""
    _require_type(graph, Hypergraph, "graph")
    d, w = _lubell_weights(graph.n, graph.edge_sizes())
    return Fraction(sum(w[len(e)] for e in graph.edges), d)


def complete(n: int, sizes) -> Hypergraph:
    """All subsets of {0..n-1} whose size lies in ``sizes`` (sizes > n give none)."""
    n = _require_int(n, "vertex count")
    types = sizes if isinstance(sizes, EdgeTypeSet) else EdgeTypeSet(sizes)
    # ascending sizes, each in lexicographic order: already the edge order
    edges = tuple(
        c
        for r in types.sizes
        if r <= n
        for c in itertools.combinations(range(n), r)
    )
    if n < 0:
        raise InvalidHypergraphError("vertex count must be >= 0")
    return Hypergraph._from_normalized(n, edges)


def empty_graph(n: int) -> Hypergraph:
    return Hypergraph(n, ())


def chain_graph() -> Hypergraph:
    """Two vertices, a singleton edge nested inside a pair edge."""
    return Hypergraph(2, ((0,), (0, 1)))


def marked_clique(t: int) -> Hypergraph:
    """Complete pair graph on t >= 2 vertices plus a singleton edge at vertex 0."""
    t = _require_int(t, "t", 2)
    return complete(t, (2,))._with_edge((0,))


# ---------------------------------------------------------------------------
# twin classes


def equivalence_classes(graph: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """Partition vertices into twin classes, ordered by their least vertex.

    Vertices i, j are twins when swapping them maps the edge set onto itself:
    for every set e avoiding both, e+{i} is an edge iff e+{j} is.  Swaps of
    twins are automorphisms, so every permutation inside a class is one, and
    twinhood is transitive: each vertex is compared with the first vertex of
    every earlier class.  The Lagrangian optimizer takes equal weights inside
    a class, and sigma_t skips a class-count vector when swapping the counts
    of two twins gives a larger one.  ``_canonical_labeling`` splits only
    its root's non-singleton cells into twin classes, where it prunes and
    ends its search, and returns their ``_twin_swaps`` among its generators.
    """
    _require_type(graph, Hypergraph, "graph")
    return tuple(tuple(c) for c in _twin_classes(graph, (range(graph.n),)))


def _twin_classes(graph: Hypergraph, groups) -> list[list[int]]:
    """Split each group of vertices into twin classes; the classes of each
    group in order of their least vertex, the groups in the given order.
    A vertex is compared only with the vertices of its own group.

    The link of v is the set of bitmasks of e - {v} over the edges e at v.
    The swap of i and j fixes every set holding both or neither, and maps
    s + {i} to s + {j} for s avoiding both; so i, j are twins iff each mask
    avoiding both that lies in one of their links lies in the other."""
    links = [set() for _ in range(graph.n)]
    for e in graph.edges:
        mask = 0
        for v in e:
            mask |= 1 << v
        for v in e:
            links[v].add(mask ^ (1 << v))

    classes: list[list[int]] = []
    for group in groups:
        found: list[list[int]] = []
        for v in group:
            for cls in found:
                both = (1 << cls[0]) | (1 << v)
                if all(m & both for m in links[cls[0]] ^ links[v]):
                    cls.append(v)
                    break
            else:
                found.append([v])
        classes.extend(found)
    return classes


def _twin_swaps(n: int, classes) -> list[tuple[int, ...]]:
    """The swaps of consecutive vertices in each of ``classes``, as
    permutations p of range(n) mapping v to p[v]: they generate every
    permutation inside the classes."""
    swaps = []
    for cls in classes:
        for a, b in zip(cls, cls[1:]):
            swap = list(range(n))
            swap[a], swap[b] = b, a
            swaps.append(tuple(swap))
    return swaps


def _orbit_firsts(sets, generators) -> list[tuple[int, ...]]:
    """The first of each orbit among ``sets``, sorted vertex tuples closed
    under the group that ``generators`` generate, in their given order.
    Each orbit is walked from its first set by applying every generator
    until it closes.

    A search that needs one set per orbit of automorphisms of a graph loses
    nothing by trying these alone: ``turansearch._grow`` over the non-edges
    of g, with the generators that labelling g gave, and ``_search_plan``
    over the anchor edges of a member, with its ``_twin_swaps``."""
    seen = set()
    firsts = []
    for s in sets:
        if s in seen:
            continue
        firsts.append(s)
        seen.add(s)
        orbit = [s]
        for t in orbit:  # grows as the walk finds new images
            for p in generators:
                image = tuple(sorted([p[v] for v in t]))
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
    return firsts


# ---------------------------------------------------------------------------
# subgraph operations


def induced_subgraph(graph: Hypergraph, vertices) -> Hypergraph:
    """Restriction to a vertex subset, relabeled to 0..|S|-1 in sorted order."""
    _require_type(graph, Hypergraph, "graph")
    s = sorted({_require_int(v, "vertex") for v in _require_tuple(vertices, "vertices")})
    if not s:
        raise InvalidArgumentError("induced subgraph needs a non-empty vertex set")
    if s[0] < 0 or s[-1] >= graph.n:
        raise InvalidArgumentError(f"vertex set {s} not inside 0..{graph.n - 1}")
    index = {v: i for i, v in enumerate(s)}
    keep = set(s)
    edges = tuple(
        tuple(index[v] for v in e) for e in graph.edges if keep.issuperset(e)
    )
    return Hypergraph(len(s), edges)


def _realization(n: int, class_sizes, rows) -> Hypergraph:
    """Replace vertex i by an interval of ``class_sizes[i]`` vertices, and each
    row of (i, k) pairs by every union of a k-subset of each class i.

    Precondition: rows are distinct and nonempty, with increasing i, k >= 1
    and sum(k) <= MAX_EDGE_SIZE.  The classes are increasing intervals, so
    each union is strictly increasing and distinct rows give disjoint sets
    of unions: sorted, they meet the precondition of ``_from_normalized``."""
    sizes = tuple(_require_int(s, "class size", 0)
                  for s in _require_tuple(class_sizes, "class sizes"))
    if len(sizes) != n:
        raise InvalidArgumentError(
            f"expected {n} class sizes, got {len(sizes)}"
        )
    starts = tuple(itertools.accumulate(sizes, initial=0))
    classes = [range(a, b) for a, b in zip(starts, starts[1:])]
    edges = []
    for row in rows:
        pools = [itertools.combinations(classes[i], k) for i, k in row]
        edges.extend(sum(parts, ()) for parts in itertools.product(*pools))
    edges.sort(key=_edge_order)
    return Hypergraph._from_normalized(starts[-1], tuple(edges))


def blow_up(graph: Hypergraph, class_sizes) -> Hypergraph:
    """Replace vertex i by a class of ``class_sizes[i]`` clones.

    Every edge becomes the set of its transversals (one clone per original
    vertex).  A class of size 0 deletes the vertex along with its edges.
    """
    _require_type(graph, Hypergraph, "graph")
    return _realization(graph.n, class_sizes,
                        [[(i, 1) for i in e] for e in graph.edges])


def disjoint_type_union(a: Hypergraph, b: Hypergraph) -> Hypergraph:
    """Union of two graphs on the same vertices with disjoint edge-size sets.

    The Lubell density of the union is exactly the sum of the two densities.
    """
    _require_type(a, Hypergraph, "a")
    _require_type(b, Hypergraph, "b")
    if a.n != b.n:
        raise InvalidArgumentError("union requires equal vertex counts")
    shared = set(a.edge_sizes()) & set(b.edge_sizes())
    if shared:
        raise InvalidArgumentError(
            f"edge-size sets overlap in {sorted(shared)}; union would conflate layers"
        )
    return Hypergraph(a.n, a.edges + b.edges)


def realize(pattern: Pattern, class_sizes) -> Hypergraph:
    """Realize a pattern: row (k_1..k_n) contributes every union of k_i-subsets.

    Classes with fewer than k_i vertices contribute no edges for that row.
    """
    _require_type(pattern, Pattern, "pattern")
    return _realization(pattern.n, class_sizes,
                        [[(i, k) for i, k in enumerate(row) if k]
                         for row in pattern.edges])


# ---------------------------------------------------------------------------
# containment


def _degree_table(graph: Hypergraph, sizes) -> list[tuple[int, ...]]:
    """Row v holds v's degree in each edge size of ``sizes``, in that order;
    one pass over the edges instead of a ``degree`` scan per vertex and size."""
    slot = {r: i for i, r in enumerate(sizes)}
    table = [[0] * len(slot) for _ in range(graph.n)]
    for e in graph.edges:
        i = slot.get(len(e))
        if i is not None:
            for v in e:
                table[v][i] += 1
    return [tuple(row) for row in table]


@lru_cache(maxsize=1024)
def _search_plan(small: Hypergraph, size: int | None = None):
    """The side of ``_embedding_search`` that depends on small alone, made
    once per forbidden member and anchor size: small's edge sizes, its degree
    table, and the starts of the search.

    A start is (k, order, after, check_at).  The search places small's
    vertices in ``order``, the first k onto the anchor edge and the rest
    anywhere.  ``check_at[s]`` holds the edges that step s completes, and
    ``after[s]`` the twin placed before order[s] on its side of the anchor
    (or small.n, whose image is -1), whose image order[s]'s must exceed.  So
    only maps with the twins on each side in order are searched, and nothing
    is lost: swapping two twins is an automorphism of small that fixes the
    anchor when both lie on one side of it.  Twins come in vertex order, so
    the least witness in search order has its twins in order and is still
    found first.

    Without ``size`` there is one start, with k = 0, in order of decreasing
    degree.  With it, there is one start per edge f of small with |f| =
    size that ``_orbit_firsts`` keeps, one f per orbit of the twin
    permutations.  f comes first, and its steps draw from the anchor edge,
    so they run through each bijection from f onto it that keeps the twins
    of f in order; the other vertices follow in the order without ``size``.
    """
    sizes = small.edge_sizes()
    small_deg = tuple(_degree_table(small, sizes))
    base = sorted(range(small.n), key=lambda v: (-sum(small_deg[v]), v))
    classes = equivalence_classes(small)
    twins = {v: cls for cls in classes for v in cls}

    def start(anchor):
        order = list(anchor) + [v for v in base if v not in anchor]
        pos_of = {v: i for i, v in enumerate(order)}
        after = []
        for v in order:
            side = [u for u in twins[v] if u < v and (u in anchor) == (v in anchor)]
            after.append(side[-1] if side else small.n)
        # edges of small checked at the step that completes them; the anchor
        # itself lands on the anchor edge
        check_at = [[] for _ in range(small.n)]
        for e in small.edges:
            if e != anchor:
                check_at[max(pos_of[v] for v in e)].append(e)
        return len(anchor), tuple(order), tuple(after), tuple(map(tuple, check_at))

    if size is None:
        starts = (start(()),)
    else:
        anchors = _orbit_firsts(small.edges_of_size(size), _twin_swaps(small.n, classes))
        starts = tuple(map(start, anchors))
    return sizes, small_deg, starts


def _embedding_search(big: Hypergraph, small: Hypergraph, induced: bool,
                      through: tuple[int, ...] | None = None):
    """Backtracking search for an injection mapping small's edges onto big's.

    Returns the first witness in search order, or None.  In induced mode the
    map must also pull every edge of big inside the image back to an edge of
    small.  With ``through``, an edge of big, only maps that send some edge
    of small onto it are searched (see ``_search_plan``); the other vertices
    may then go anywhere, and no degree table of big is built.
    """
    _require_type(big, Hypergraph, "big")
    _require_type(small, Hypergraph, "small")
    h, g = small.n, big.n
    if h > g:
        return None
    if through is None:
        sizes, small_deg, starts = _search_plan(small)
        big_deg = _degree_table(big, sizes)
        # images of v: the vertices of big with at least v's degree in every size
        fits_of = {
            row: [c for c in range(g) if all(b >= s for b, s in zip(big_deg[c], row))]
            for row in set(small_deg)
        }
        fits = [fits_of[row] for row in small_deg]
    else:
        _, _, starts = _search_plan(small, len(through))
        fits = [range(g)] * h
    if induced:
        big_incident = [[] for _ in range(g)]
        for e in big.edges:
            for v in e:
                big_incident[v].append(e)
    small_edge_set = small.edge_set
    big_edge_set = big.edge_set

    phi = [-1] * (h + 1)  # phi[h] stays -1: the bound when no twin comes before
    image_of = phi.__getitem__
    inverse = {}

    def place(step: int) -> bool:
        # reads the order, after, check_at and pools of the current start
        if step == h:
            return True
        v = order[step]
        lo = phi[after[step]]
        for cand in pools[step]:
            if cand <= lo or cand in inverse:
                continue
            phi[v] = cand
            inverse[cand] = v
            ok = True
            for e in check_at[step]:
                if tuple(sorted(map(image_of, e))) not in big_edge_set:
                    ok = False
                    break
            if ok and induced:
                image = inverse.keys()
                for ge in big_incident[cand]:
                    if all(u in image for u in ge):
                        pre = tuple(sorted(inverse[u] for u in ge))
                        if pre not in small_edge_set:
                            ok = False
                            break
            if ok and place(step + 1):
                return True
            del inverse[cand]
            phi[v] = -1
        return False

    for k, order, after, check_at in starts:
        pools = [through] * k + [fits[v] for v in order[k:]]
        if place(0):
            return tuple(phi[:h])
    return None


def find_embedding(big: Hypergraph, small: Hypergraph) -> tuple[int, ...] | None:
    """First injection (by vertex order) mapping small's edges onto big's, or None."""
    return _embedding_search(big, small, induced=False)


def contains_subgraph(big: Hypergraph, small: Hypergraph, through=None) -> bool:
    """Whether big contains a (not necessarily induced) copy of small.

    With ``through``, an edge of big, only the copies that use it count: the
    injections that map some edge of small onto it.  If big less that edge
    contains no copy of small, every copy in big uses it, so the two answers
    agree; ``turansearch.pi_n`` tests each new child g + e of a free g so.
    A ``through`` that is not an edge of big raises InvalidArgumentError.
    """
    if through is not None:
        _require_type(big, Hypergraph, "big")
        through = _require_edge(through, big, "through")
    return _embedding_search(big, small, False, through) is not None


def find_induced_embedding(big: Hypergraph, small: Hypergraph) -> tuple[int, ...] | None:
    return _embedding_search(big, small, induced=True)


def contains_induced(big: Hypergraph, small: Hypergraph) -> bool:
    """Whether some vertex subset of big induces exactly a copy of small."""
    return find_induced_embedding(big, small) is not None


# ---------------------------------------------------------------------------
# canonical labeling
#
# Iterative color refinement (per-size degrees, then per-size neighbour
# colour signatures) followed by individualize-and-refine branching over the
# first non-singleton cell.  Among all leaf labelings the lexicographically
# least edge encoding is the canonical form.  Cell keys are built from
# invariants only, so the result is labeling-independent.
#
# The search branches on one vertex per twin class of the target cell (see
# ``equivalence_classes``).  Two twins u, w in the target cell are both
# outside the current path, since individualized vertices are singleton
# cells, so swapping them is an automorphism that fixes the path.  It maps
# the subtree that individualizes u onto the one that individualizes w, and
# both subtrees hold the same leaf keys: the least key is unchanged.
#
# Twins share a stable root cell: swapping them is an automorphism, and
# refinement from invariant colours respects automorphisms.  So the twin
# classes are computed once, at the root, by comparing vertices only inside
# its non-singleton cells; every later cell lies inside a root cell.  A root
# that refines to n cells is the one leaf: its colours are the label, each
# vertex is its own twin class, and no cells or twin classes are built.
#
# A node whose non-singleton cells each lie inside one twin class is a leaf.
# Individualizing a vertex v of such a cell splits off {v} and changes no
# other cell: two vertices left in one cell are twins other than v, so
# swapping them is an automorphism that fixes v and the path.  Their
# signatures stay equal, the partition stays stable, and its colours keep
# their order.  The search below the node is thus one path, individualizing
# the least vertex of the first non-singleton cell at each level, and its
# leaf labels the vertices in cell order, ties broken by vertex index; that
# labeling is encoded directly.  A discrete partition is the case with no
# non-singleton cell, and a graph whose size layers are each empty or
# complete, one twin class, is a leaf at its root.
#
# Refinement stops at the first pass that leaves the number of cells
# unchanged.  Each pass keys a vertex by its old colour first, so the new
# partition refines the old one, and an equal cell count means an equal
# partition: it is stable.  The new colours are then the dense ranks of the
# old ones, a monotone relabeling.  It keeps the order of every sorted
# signature, so a further pass would return the same ranks; the old loop
# ran that pass only to see no change.  A pass that reaches n cells ends it
# too: n cells is the most a partition can have, so the next pass would
# leave the count unchanged and, by the same argument, return these ranks.
#
# A signature is a vertex's colour, then one block per edge size >= 2: the
# sorted colours of its neighbours in the 2-edges, bare, and for each wider
# size the sorted tuples of the sorted colours of its fellow vertices in
# those edges.  Signatures of different colours are ordered by colour.
# Within one colour the blocks of a size all have one length, since every
# colour refines the start colour, which is the row of per-size degrees; so
# comparing block by block orders them as one sorted profile of (size,
# entry) pairs would, and the ranks are those of that profile.  1-edges add
# nothing beyond the degree, and have no block.
#
# The start colour is read in the pass over the edges that builds the size
# blocks and the incident lists: v's 1-degree, its 2-degree and one degree
# per wider size present.  An absent size 1 or 2 is a column of zeros in
# every row, which moves no rank, so the ranks are those of the per-size
# degree rows over the present sizes.
#
# Two leaves with one key show an automorphism (McKay and Piperno,
# *Practical graph isomorphism, II*, J. Symbolic Comput. 2014): labels
# l1 and l2 with l1(G) = l2(G) give a = l1^-1 . l2 with a(G) = G, maps
# composed right to left.  The search keeps the first label of each key
# and returns every such a, carried into canonical labels by the winning
# label w as w . a . w^-1.  Each one is an automorphism by construction,
# and with the twin swaps they generate Aut(G).  Let b be an automorphism
# and v1, ..., vk the path to the first leaf, with label l1.  b fixes the root
# partition, so b(v1) lies in the first target cell, in a twin class on
# one of whose vertices the search branches; the swap of b(v1) and that
# vertex fixes the empty path.  Swapping so at each level, always two
# vertices of the target cell, which the path so far avoids, gives
# c = t . b, t a product of twin swaps, that maps the path onto one the
# search follows.  c maps each node's partition onto its image's, colours
# in order, and twin classes onto twin classes, so the image of the first
# leaf is a leaf too, with label l2.  Both labels number the cells in
# colour order, so l2 . c = l1 . p with p a permutation inside the cells
# of the first leaf, each within a twin class.  Then l2(G) = l1(G): the
# keys are equal, and unless l2 is l1, where c = p, the search returns
# a = l1^-1 . l2 = p . c^-1.  So c = a^-1 . p, hence b = t^-1 . c, lies in
# the group that the returned automorphisms and the twin swaps generate.
#
# So ``_canonical_labeling`` returns generators of Aut: the swaps of
# consecutive twins in each root twin class and the automorphisms from
# equal leaves, all carried into canonical labels.  ``turansearch._grow``
# builds its frontier from its key and these generators, so each child is
# labelled once and it tries one child per orbit of Aut.


def _refine_colors(n, incident, colors):
    """Refine ``colors`` to the coarsest stable partition below it; returns
    its dense colour ranks.  ``incident[v]`` is (pairs, wider): the other
    ends of the 2-edges at v, and per edge size >= 3 in ascending order the
    list of the tuples of the other vertices of v's edges of that size."""
    cells = len(set(colors))
    while True:
        get = colors.__getitem__
        sigs = []
        for v, (pairs, wider) in enumerate(incident):
            sig = (colors[v], tuple(sorted(map(get, pairs))))
            if wider:
                sig += tuple(
                    tuple(sorted([tuple(sorted(map(get, others))) for others in block]))
                    for block in wider
                )
            sigs.append(sig)
        palette = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        fresh = [palette[sig] for sig in sigs]
        if len(palette) == cells or len(palette) == n:
            return fresh
        colors, cells = fresh, len(palette)


def _encode_labeled(n, blocks, label):
    """(n, edges) of the graph relabeled by ``label``, where ``blocks`` are
    the runs of one edge size of its edges: each block relabeled and sorted
    is the run of its size in the edge order."""
    get = label.__getitem__
    edges = []
    for block in blocks:
        if len(block[0]) == 2:
            edges += sorted([
                (label[a], label[b]) if label[a] < label[b] else (label[b], label[a])
                for a, b in block
            ])
        else:
            edges += sorted([tuple(sorted(map(get, e))) for e in block])
    return (n, tuple(edges))


def _format_encoding(key) -> bytes:
    n, edges = key
    body = ";".join(",".join(str(v) for v in e) for e in edges)
    return f"{n}|{body}".encode("ascii")


def _canonical_labeling(graph: Hypergraph):
    """(key, generators), uncached: key is the canonical graph's (n, edges),
    which ``_format_encoding`` turns into ``canonical_form(graph)``, and
    generators generate the canonical graph's automorphism group, each a
    tuple p mapping vertex v to p[v].  A graph on more than
    MAX_LABELING_VERTICES vertices raises ``UnsupportedSizeError``."""
    n = _require_int(graph.n, "canonical form vertex count", cap=MAX_LABELING_VERTICES)
    blocks = []
    ones = [0] * n
    incident = [([], []) for _ in range(n)]
    for size, block in itertools.groupby(graph.edges, len):
        block = tuple(block)
        blocks.append(block)
        if size == 1:
            for (v,) in block:
                ones[v] = 1
        elif size == 2:
            for a, b in block:
                incident[a][0].append(b)
                incident[b][0].append(a)
        else:
            for _, wider in incident:
                wider.append([])
            for e in block:
                for v in e:
                    incident[v][1][-1].append(tuple(u for u in e if u != v))
    start = [(ones[v], len(pairs), *map(len, wider))
             for v, (pairs, wider) in enumerate(incident)]
    palette = {row: i for i, row in enumerate(sorted(set(start)))}
    colors = _refine_colors(n, incident, [palette[row] for row in start])
    if max(colors, default=-1) == n - 1:
        # a discrete root: its colours are the one leaf's label
        return _encode_labeled(n, blocks, colors), ()
    twins = []  # the root's twin classes inside its non-singleton cells
    class_of = {}  # the index in twins of each vertex they hold
    seen = {}  # each leaf key, with the first label that gave it
    equal = []  # (first label, later label) of two leaves with one key

    def search(colors):
        cells = [[] for _ in range(max(colors) + 1)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        split = [cell for cell in cells if len(cell) > 1]
        if not twins:  # at the root, which has a non-singleton cell
            twins.extend(_twin_classes(graph, split))
            class_of.update((v, i) for i, cls in enumerate(twins) for v in cls)
        if all(len({class_of[v] for v in cell}) == 1 for cell in split):
            label = [0] * n
            for i, v in enumerate(itertools.chain.from_iterable(cells)):
                label[v] = i
            first = seen.setdefault(_encode_labeled(n, blocks, label), label)
            if first is not label:
                equal.append((first, label))
            return
        tried = set()
        for v in split[0]:
            if class_of[v] in tried:
                continue
            tried.add(class_of[v])
            branched = [c * 2 for c in colors]
            branched[v] -= 1
            search(_refine_colors(n, incident, branched))

    search(colors)
    key = min(seen)
    best = seen[key]
    generators = _twin_swaps(n, [[best[v] for v in cls] for cls in twins])
    for first, later in equal:
        # first^-1 . later maps the graph onto itself; best conjugates it
        # into canonical labels
        back = [0] * n
        for v, i in enumerate(first):
            back[i] = v
        perm = [0] * n
        for v in range(n):
            perm[best[v]] = best[back[later[v]]]
        generators.append(tuple(perm))
    return key, tuple(generators)


def canonical_form(graph: Hypergraph) -> bytes:
    """Canonical byte encoding: equal byte strings iff isomorphic graphs."""
    # the type is checked before the cache hashes the argument
    return _cached_form(_require_type(graph, Hypergraph, "graph"))


@lru_cache(maxsize=100_000)
def _cached_form(graph: Hypergraph) -> bytes:
    return _format_encoding(_canonical_labeling(graph)[0])


canonical_form.cache_clear = _cached_form.cache_clear
canonical_form.cache_info = _cached_form.cache_info


def canonical_graph(graph: Hypergraph) -> Hypergraph:
    """The canonically labeled representative of graph's isomorphism class."""
    _require_type(graph, Hypergraph, "graph")
    # _encode_labeled sorted each edge and the edge list, and relabeling by a
    # permutation keeps the edges distinct
    return Hypergraph._from_normalized(*_canonical_labeling(graph)[0])


def is_isomorphic(a: Hypergraph, b: Hypergraph) -> bool:
    _require_type(a, Hypergraph, "a")
    _require_type(b, Hypergraph, "b")
    return a.n == b.n and canonical_form(a) == canonical_form(b)
