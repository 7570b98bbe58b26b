"""Upper Lubell densities of hypergraph sequences.

A sequence is given by a generator rule producing the i-th member and its
vertex count.  The t-th upper density sigma_t is the supremum, over members
with at least t vertices and over t-subsets S of the member's vertex set,
of the Lubell value of the induced subgraph on S measured at scale t.

Every member is a blow-up of a small base graph whose classes are
intervals of twins.  Lubell values and subset searches work from that
shape, so no member is built and members of any size are reachable.

The search scores subsets with integers: D is the least common multiple of
the binomials C(t, r) for r = 1..t and an edge of size r inside S counts
D // C(t, r).  Scores are exact and comparable across members.  Every
member is searched exhaustively, up to the symmetry of its twin classes,
so every reported value is exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import InvalidArgumentError, UnsupportedSizeError
from .hypercore import (
    Hypergraph,
    SimplexPoint,
    blow_up,
    complete,
    equivalence_classes,
)
from .turansearch import disjoint_type_union

__all__ = [
    "SequenceGenerator",
    "DensityTrend",
    "UpperDensityReport",
    "proportional_sizes",
    "density_estimate",
    "sigma_t",
]

MAX_SUBSET_SIZE = 8

_KINDS = ("blowup", "turan", "union", "constant")


def proportional_sizes(weights, total: int) -> tuple[int, ...]:
    """Split ``total`` into class sizes proportional to rational weights.

    Largest-remainder rounding: floor the ideal sizes, then hand out the
    remaining units by descending fractional part (ties to lower index).
    """
    if isinstance(weights, SimplexPoint):
        if not weights.is_rational:
            raise InvalidArgumentError("proportions must be exact rationals")
        ws = weights.weights
    else:
        ws = tuple(Fraction(w) for w in weights)
        if any(w < 0 for w in ws):
            raise InvalidArgumentError("proportions must be nonnegative")
        if sum(ws) != 1:
            raise InvalidArgumentError("proportions must sum to 1")
    if total < 0:
        raise InvalidArgumentError("total must be nonnegative")
    ideal = [w * total for w in ws]
    sizes = [int(x) for x in ideal]  # floor: x >= 0
    leftover = total - sum(sizes)
    order = sorted(range(len(ws)), key=lambda j: (ideal[j] - sizes[j], -j),
                   reverse=True)
    for j in order[:leftover]:
        sizes[j] += 1
    return tuple(sizes)


@dataclass(frozen=True)
class SequenceGenerator:
    """Rule for the i-th member of a hypergraph sequence.

    Vertex counts come either from an explicit ``ns`` list or from the
    arithmetic rule n_start + i * n_step.  The member itself is built from
    the kind: a blow-up of a base graph with fixed proportions, a balanced
    complete multipartite pair graph, a disjoint edge-type union of two
    component sequences, or a fixed graph padded with isolated vertices.
    """

    kind: str
    ns: tuple[int, ...] | None = None
    n_start: int | None = None
    n_step: int | None = None
    base: Hypergraph | None = None
    proportions: tuple[Fraction, ...] | None = None
    components: tuple["SequenceGenerator", ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidArgumentError(f"unknown generator kind {self.kind!r}")
        if self.ns is not None:
            ns = tuple(int(n) for n in self.ns)
            if not ns or any(n < 1 for n in ns):
                raise InvalidArgumentError("ns must be a nonempty list of n >= 1")
            object.__setattr__(self, "ns", ns)
            if self.n_start is not None or self.n_step is not None:
                raise InvalidArgumentError("give either ns or a start/step rule")
        else:
            if self.n_start is None or self.n_step is None:
                raise InvalidArgumentError("give either ns or a start/step rule")
            if self.n_start < 1 or self.n_step < 1:
                raise InvalidArgumentError("need n_start >= 1 and n_step >= 1")
        if self.kind in ("blowup", "turan"):
            if self.base is None or self.proportions is None:
                raise InvalidArgumentError(f"{self.kind} needs base and proportions")
            props = tuple(Fraction(w) for w in self.proportions)
            if len(props) != self.base.n:
                raise InvalidArgumentError("one proportion per base vertex")
            if any(w < 0 for w in props) or sum(props) != 1:
                raise InvalidArgumentError("proportions must be >= 0 and sum to 1")
            object.__setattr__(self, "proportions", props)
        elif self.kind == "union":
            if len(self.components) < 2:
                raise InvalidArgumentError("union needs at least two components")
            key = (self.ns, self.n_start, self.n_step)
            for c in self.components:
                if (c.ns, c.n_start, c.n_step) != key:
                    raise InvalidArgumentError(
                        "union components must share the size sequence"
                    )
        elif self.kind == "constant":
            if self.base is None:
                raise InvalidArgumentError("constant needs a base graph")

    # -- constructors ------------------------------------------------------

    @classmethod
    def blow_up_generator(cls, base: Hypergraph, proportions, *,
                          ns=None, n_start=None, n_step=None):
        return cls("blowup", ns=tuple(ns) if ns is not None else None,
                   n_start=n_start, n_step=n_step,
                   base=base, proportions=tuple(proportions))

    @classmethod
    def turan_generator(cls, parts: int, *, ns=None, n_start=None, n_step=None):
        """Balanced complete ``parts``-partite pair graphs."""
        if parts < 2:
            raise InvalidArgumentError("need at least two parts")
        props = tuple(Fraction(1, parts) for _ in range(parts))
        return cls("turan", ns=tuple(ns) if ns is not None else None,
                   n_start=n_start, n_step=n_step,
                   base=complete(parts, (2,)), proportions=props)

    @classmethod
    def union_generator(cls, *components: "SequenceGenerator"):
        if not components:
            raise InvalidArgumentError("union needs components")
        first = components[0]
        return cls("union", ns=first.ns, n_start=first.n_start,
                   n_step=first.n_step, components=tuple(components))

    @classmethod
    def constant_generator(cls, graph: Hypergraph, *,
                           ns=None, n_start=None, n_step=None):
        return cls("constant", ns=tuple(ns) if ns is not None else None,
                   n_start=n_start, n_step=n_step, base=graph)

    # -- the sequence ------------------------------------------------------

    @property
    def count(self) -> int | None:
        """Number of members, or None for an unbounded rule."""
        return len(self.ns) if self.ns is not None else None

    def size(self, i: int) -> int:
        if i < 0:
            raise InvalidArgumentError("member index must be nonnegative")
        if self.ns is not None:
            if i >= len(self.ns):
                raise InvalidArgumentError(
                    f"member {i} out of range for {len(self.ns)} sizes"
                )
            return self.ns[i]
        return self.n_start + i * self.n_step

    def member(self, i: int) -> Hypergraph:
        return blow_up(*self._shape(i))

    def _shape(self, i: int) -> tuple[Hypergraph, tuple[int, ...]]:
        """Base graph and class sizes with member(i) == blow_up(base, sizes).

        The classes are consecutive vertex intervals of twins.  A constant
        member pads its base with one extra vertex of n - b clones.  A union
        member refines its components' intervals: a component class made of
        m refined intervals becomes m clones of its base vertex.
        """
        n = self.size(i)
        if self.kind in ("blowup", "turan"):
            return self.base, proportional_sizes(self.proportions, n)
        if self.kind == "constant":
            b = self.base.n
            if n < b:
                raise InvalidArgumentError(
                    f"member {i} has {n} vertices, fewer than the base graph"
                )
            return Hypergraph(b + 1, self.base.edges), (1,) * b + (n - b,)
        shapes = [c._shape(i) for c in self.components]
        cuts = sorted({0}.union(*(accumulate(sizes) for _, sizes in shapes)))
        base = None
        for part_base, sizes in shapes:
            ends = [bisect_left(cuts, e) for e in accumulate(sizes)]
            part = blow_up(part_base, [b - a for a, b in zip([0] + ends, ends)])
            base = part if base is None else disjoint_type_union(base, part)
        return base, tuple(b - a for a, b in zip(cuts, cuts[1:]))


# ---------------------------------------------------------------------------
# Lubell values along the sequence


@dataclass(frozen=True)
class DensityTrend:
    sizes: tuple[int, ...]
    values: tuple[Fraction, ...]
    diffs: tuple[Fraction, ...]

    @property
    def last(self) -> Fraction:
        return self.values[-1]


def _shape_lubell(base: Hypergraph, sizes) -> Fraction:
    """Lubell value of blow_up(base, sizes), computed without building it:
    a base edge e stands for prod(sizes[v] for v in e) member edges."""
    n = sum(sizes)
    counts = Counter()
    for e in base.edges:
        counts[len(e)] += math.prod(sizes[v] for v in e)
    return sum(
        (Fraction(c, math.comb(n, r)) for r, c in counts.items() if c),
        Fraction(0),
    )


def density_estimate(gen: SequenceGenerator, i_max: int) -> DensityTrend:
    """Exact Lubell values of members 0..i_max and their first differences.

    No member is built: each value comes from the member's blow-up shape.
    """
    if i_max < 0:
        raise InvalidArgumentError("i_max must be nonnegative")
    sizes = tuple(gen.size(i) for i in range(i_max + 1))
    values = [_shape_lubell(*gen._shape(i)) for i in range(i_max + 1)]
    diffs = tuple(values[j + 1] - values[j] for j in range(i_max))
    return DensityTrend(sizes, tuple(values), diffs)


# ---------------------------------------------------------------------------
# upper density sigma_t


@dataclass(frozen=True)
class UpperDensityReport:
    t: int
    value: Fraction
    attaining: tuple[int, tuple[int, ...]]  # (member index, vertex subset)
    h_values: tuple[Fraction, ...]  # full-member Lubell values over the range
    exhaustive: bool  # always True: every member is searched in full
    i_range: tuple[int, int]


def _edge_weights(t: int) -> tuple[int, dict[int, int]]:
    d = math.lcm(*(math.comb(t, r) for r in range(1, t + 1)))
    return d, {r: d // math.comb(t, r) for r in range(1, t + 1)}


def _member_tables(graph: Hypergraph, t: int, weights: dict[int, int]):
    """Per-vertex increments for ascending-order subset search.

    Each edge of size <= t is charged to its largest vertex: singleton
    weight, a bitmask of smaller pair-neighbors, and (mask, weight) rows
    for larger edges.
    """
    n = graph.n
    singleton = [0] * n
    pair_mask = [0] * n
    higher = [[] for _ in range(n)]
    for e in graph.edges:
        r = len(e)
        if r > t:
            continue
        v = e[-1]
        if r == 1:
            singleton[v] += weights[1]
        elif r == 2:
            pair_mask[v] |= 1 << e[0]
        else:
            m = 0
            for u in e[:-1]:
                m |= 1 << u
            higher[v].append((m, weights[r]))
    return singleton, pair_mask, higher


def _search_exhaustive(graph, t, weights, w2, best_score):
    """Best t-subset by depth-first search over ascending vertex choices.
    Returns (score, subset) or None if nothing beats best_score.

    Only canonical subsets are visited: a vertex may join only when the
    vertex before it in its twin class has joined already.  This loses
    nothing.  Every permutation inside a twin class is a product of twin
    swaps, hence an automorphism, so a subset's score depends only on how
    many vertices it takes from each class.  Taking the first vertices of
    each class instead lowers every order statistic of a subset, so the
    lexicographically least best subset, the one the full search would
    report, is canonical.  With k classes at most C(t+k-1, k-1) subsets
    are reached instead of C(n, t).
    """
    n = graph.n
    singleton, pair_mask, higher = _member_tables(graph, t, weights)
    prev = [-1] * n  # the vertex before v in its twin class, or -1
    for cls in equivalence_classes(graph):
        for a, b in zip(cls, cls[1:]):
            prev[b] = a

    static_gain = []
    for v in range(n):
        g = singleton[v] + w2 * min(pair_mask[v].bit_count(), t - 1)
        g += sum(w for _, w in higher[v])
        static_gain.append(g)
    # suffix_top[v][c]: sum of the c largest static gains among vertices >= v
    suffix_top = [None] * (n + 1)
    suffix_top[n] = [0] * (t + 1)
    top = []  # the t largest static gains among vertices >= v, descending
    for v in range(n - 1, -1, -1):
        top = sorted(top + [static_gain[v]], reverse=True)[:t]
        row = [0]
        for c in range(t):
            row.append(row[-1] + (top[c] if c < len(top) else 0))
        suffix_top[v] = row

    best = best_score
    best_subset = None
    chosen = []

    def walk(v_min: int, mask: int, score: int, need: int):
        nonlocal best, best_subset
        if need == 0:
            if score > best:
                best = score
                best_subset = tuple(chosen)
            return
        for v in range(v_min, n - need + 1):
            if score + suffix_top[v][need] <= best:
                return  # suffix bound is nonincreasing in v
            if prev[v] >= 0 and not mask >> prev[v] & 1:
                continue  # not canonical: its class predecessor is out
            gain = singleton[v] + w2 * (pair_mask[v] & mask).bit_count()
            for em, ew in higher[v]:
                if em & mask == em:
                    gain += ew
            chosen.append(v)
            walk(v + 1, mask | (1 << v), score + gain, need - 1)
            chosen.pop()

    walk(0, 0, 0, t)
    if best_subset is None:
        return None
    return best, best_subset


def sigma_t(
    gen: SequenceGenerator,
    t: int,
    i_range: tuple[int, int] = (0, 7),
) -> UpperDensityReport:
    """Largest induced t-subset Lubell value over members i_range[0]..i_range[1].

    Members with fewer than t vertices are skipped.  No member is built.
    A t-subset takes at most t vertices of a twin class, and the first ones
    serve as well as any, so each member is searched through the blow-up
    of its base with every class cut to at most t clones.  That search is
    exhaustive over the t-subsets that are canonical for its twin classes,
    so the value is exact and ``attaining`` is the member and the
    lexicographically least subset that first reach it.
    """
    if t < 1:
        raise InvalidArgumentError("t must be at least 1")
    if t > MAX_SUBSET_SIZE:
        raise UnsupportedSizeError(f"t = {t} exceeds the cap {MAX_SUBSET_SIZE}")
    lo, hi = i_range
    if lo < 0 or hi < lo:
        raise InvalidArgumentError(f"bad member range {i_range}")
    if gen.count is not None and hi >= gen.count:
        raise InvalidArgumentError(
            f"member range {i_range} exceeds the {gen.count} listed sizes"
        )

    denom, weights = _edge_weights(t)
    w2 = weights.get(2, 0)

    best_score = -1
    attaining = None
    h_values = []
    for i in range(lo, hi + 1):
        base, sizes = gen._shape(i)
        h_values.append(_shape_lubell(base, sizes))
        if sum(sizes) < t:
            continue
        cut = [min(s, t) for s in sizes]
        found = _search_exhaustive(blow_up(base, cut), t, weights, w2, best_score)
        if found is not None:
            best_score, subset = found
            # vertex k of cut class j is vertex k of class j in the member;
            # the map is increasing, so the least subset stays least
            where = [o + k for o, c in zip(accumulate(sizes, initial=0), cut)
                     for k in range(c)]
            attaining = (i, tuple(where[v] for v in subset))
    if attaining is None:
        raise InvalidArgumentError(
            f"no member in {i_range} has at least {t} vertices"
        )
    return UpperDensityReport(
        t=t,
        value=Fraction(best_score, denom),
        attaining=attaining,
        h_values=tuple(h_values),
        exhaustive=True,
        i_range=(lo, hi),
    )
