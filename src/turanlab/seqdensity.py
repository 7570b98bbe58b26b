"""Upper Lubell densities of hypergraph sequences.

A sequence is given by a generator rule producing the i-th member and its
vertex count.  The t-th upper density sigma_t is the supremum, over members
with at least t vertices and over t-subsets S of the member's vertex set,
of the Lubell value of the induced subgraph on S measured at scale t.

Every member is a blow-up of a small base graph whose classes are
intervals of twins.  Lubell values and sigma_t work from that shape, so
no member is built and members of any size are reachable.

A t-subset S that takes c[v] vertices of class v has the Lubell value
sum over base edges e of prod(c[v] for v in e) / C(t, |e|): the base's
Lagrangian polynomial at the integer point c.  So sigma_t searches the
class-count vectors of each base.  It scores them with integers from
``hypercore._lubell_weights(t, 1..t)``: D is the least common multiple of
the binomials C(t, r) for r = 1..t and an edge of size r counts
D // C(t, r).  Scores are exact and comparable across members.  The
search skips only vectors that cannot beat the best one, so every
reported value is exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import InvalidArgumentError
from .hypercore import (
    Hypergraph,
    _lubell_weights,
    _require_int,
    _require_rational,
    _require_tuple,
    _require_type,
    blow_up,
    complete,
    disjoint_type_union,
    equivalence_classes,
)

__all__ = [
    "SequenceGenerator",
    "DensityTrend",
    "UpperDensityReport",
    "proportional_sizes",
    "density_estimate",
    "sigma_t",
]

MAX_SUBSET_SIZE = 8


def proportional_sizes(weights, total: int) -> tuple[int, ...]:
    """Split ``total`` into class sizes proportional to rational weights.

    Largest-remainder rounding: floor the ideal sizes, then hand out the
    remaining units by descending fractional part (ties to lower index).
    Over the common denominator d of the weights, weight w_j is a_j / d, so
    the floor is a_j * total // d and the fractional part a_j * total % d.
    """
    total = _require_int(total, "total", 0)
    ws = tuple(_require_rational(w, "weights entry")
               for w in _require_tuple(weights, "weights"))
    d = math.lcm(*(w.denominator for w in ws))
    nums = [w.numerator * (d // w.denominator) for w in ws]
    if any(a < 0 for a in nums):
        raise InvalidArgumentError("proportions must be nonnegative")
    if sum(nums) != d:
        raise InvalidArgumentError("proportions must sum to 1")
    sizes = [a * total // d for a in nums]
    leftover = total - sum(sizes)
    order = sorted(range(len(nums)), key=lambda j: (-(nums[j] * total % d), j))
    for j in order[:leftover]:
        sizes[j] += 1
    return tuple(sizes)


@dataclass(frozen=True)
class SequenceGenerator:
    """Rule for the i-th member of a hypergraph sequence.

    Vertex counts come either from an explicit ``ns`` list or from the
    arithmetic rule n_start + i * n_step.  A member is a blow-up of a base
    graph with fixed proportions, the disjoint edge-type union of the
    components' members, or a fixed graph padded with isolated vertices.
    """

    kind: str
    ns: tuple[int, ...] | None = None
    n_start: int | None = None
    n_step: int | None = None
    base: Hypergraph | None = None
    proportions: tuple[Fraction, ...] | None = None
    components: tuple["SequenceGenerator", ...] = ()

    def __post_init__(self):
        if self.kind not in ("blowup", "union", "constant"):
            raise InvalidArgumentError(f"unknown generator kind {self.kind!r}")
        if self.ns is not None:
            ns = tuple(_require_int(n, "ns entry", 1)
                       for n in _require_tuple(self.ns, "ns"))
            if not ns:
                raise InvalidArgumentError("ns must be a nonempty list")
            object.__setattr__(self, "ns", ns)
            if self.n_start is not None or self.n_step is not None:
                raise InvalidArgumentError("give either ns or a start/step rule")
        else:
            if self.n_start is None or self.n_step is None:
                raise InvalidArgumentError("give either ns or a start/step rule")
            for name in ("n_start", "n_step"):
                object.__setattr__(self, name, _require_int(getattr(self, name), name, 1))
        if self.kind == "blowup":
            if self.base is None or self.proportions is None:
                raise InvalidArgumentError(f"{self.kind} needs base and proportions")
            _require_type(self.base, Hypergraph, "base")
            props = tuple(_require_rational(w, "proportions entry")
                          for w in _require_tuple(self.proportions, "proportions"))
            if len(props) != self.base.n:
                raise InvalidArgumentError("one proportion per base vertex")
            if any(w < 0 for w in props) or sum(props) != 1:
                raise InvalidArgumentError("proportions must be >= 0 and sum to 1")
            object.__setattr__(self, "proportions", props)
        elif self.kind == "union":
            components = tuple(_require_type(c, SequenceGenerator, "components entry")
                               for c in _require_tuple(self.components, "components"))
            if len(components) < 2:
                raise InvalidArgumentError("union needs at least two components")
            key = (self.ns, self.n_start, self.n_step)
            for c in components:
                if (c.ns, c.n_start, c.n_step) != key:
                    raise InvalidArgumentError(
                        "union components must share the size sequence"
                    )
            object.__setattr__(self, "components", components)
        elif self.kind == "constant":
            if self.base is None:
                raise InvalidArgumentError("constant needs a base graph")
            _require_type(self.base, Hypergraph, "base")

    # -- constructors ------------------------------------------------------

    @classmethod
    def blow_up_generator(cls, base: Hypergraph, proportions, *,
                          ns=None, n_start=None, n_step=None):
        return cls("blowup", ns=ns, n_start=n_start, n_step=n_step,
                   base=base, proportions=proportions)

    @classmethod
    def turan_generator(cls, parts: int, **sizes):
        """Balanced complete ``parts``-partite pair graphs."""
        parts = _require_int(parts, "parts", 2)
        return cls.blow_up_generator(
            complete(parts, (2,)), (Fraction(1, parts),) * parts, **sizes
        )

    @classmethod
    def union_generator(cls, *components: "SequenceGenerator"):
        if not components:
            raise InvalidArgumentError("union needs components")
        first = _require_type(components[0], cls, "components entry")
        return cls("union", ns=first.ns, n_start=first.n_start,
                   n_step=first.n_step, components=tuple(components))

    @classmethod
    def constant_generator(cls, graph: Hypergraph, *,
                           ns=None, n_start=None, n_step=None):
        return cls("constant", ns=ns, n_start=n_start, n_step=n_step,
                   base=graph)

    # -- the sequence ------------------------------------------------------

    @property
    def count(self) -> int | None:
        """Number of members, or None for an unbounded rule."""
        return len(self.ns) if self.ns is not None else None

    def size(self, i: int) -> int:
        i = _require_int(i, "member index", 0)
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
        if self.kind == "blowup":
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
    a base edge e stands for prod(sizes[v] for v in e) member edges.  A base
    edge longer than the member has a class of size 0, so it stands for none."""
    n = sum(sizes)
    d, w = _lubell_weights(n, base.edge_sizes())
    return Fraction(sum(w[len(e)] * math.prod(sizes[v] for v in e)
                        for e in base.edges if len(e) <= n), d)


def density_estimate(gen: SequenceGenerator, i_max: int) -> DensityTrend:
    """Exact Lubell values of members 0..i_max and their first differences.

    No member is built: each value comes from the member's blow-up shape.
    """
    _require_type(gen, SequenceGenerator, "gen")
    i_max = _require_int(i_max, "i_max", 0)
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


def _best_counts(base: Hypergraph, caps, t: int, weights: dict[int, int],
                 best: int):
    """Best class-count vector of a blow-up of ``base``, largest first.

    A t-subset taking c[v] vertices of class v scores the base's
    Lagrangian polynomial at c: an edge e of size r counts weights[r] times
    prod(c[v] for v in e).  Each edge of size <= t is charged to its largest
    vertex, so setting c[v] adds c[v] times a sum over the edges charged to
    v.  Vectors with c <= caps and sum(c) == t are visited in decreasing
    lexicographic order, and only scores above ``best`` are kept, so the
    vector returned is the largest of those with the best score.  Returns
    (score, counts) or None if nothing beats ``best``.

    A vector is skipped when some earlier twin u of v has c[u] < c[v] <=
    caps[u]: swapping c[u] and c[v] is a base automorphism, so it gives a
    larger vector with the same score, reached earlier.  A unit of class v
    gains at most the weight of the member edges it can top, at most
    C(t-1, r-1) of each size r; the suffix bound adds the largest such
    gains that the remaining units can take.
    """
    k = base.n
    charged = [[] for _ in range(k)]
    for e in base.edges:
        if len(e) <= t:
            charged[e[-1]].append((e[:-1], weights[len(e)]))
    earlier = [[] for _ in range(k)]
    for cls in equivalence_classes(base):
        for j, v in enumerate(cls):
            earlier[v] = cls[:j]

    # bound[v][m]: the m largest unit gains among classes >= v, summed
    room = [0] * (k + 1)
    bound = [None] * k + [[0] * (t + 1)]
    top = []
    for v in range(k - 1, -1, -1):
        room[v] = room[v + 1] + caps[v]
        tops = Counter()  # edge size -> member edges a unit of v can top
        for rest, _ in charged[v]:
            tops[len(rest) + 1] += math.prod(caps[u] for u in rest)
        unit = sum(weights[r] * min(m, math.comb(t - 1, r - 1))
                   for r, m in tops.items())
        top = sorted(top + [unit] * caps[v], reverse=True)[:t]
        bound[v] = list(accumulate(top + [0] * (t - len(top)), initial=0))

    c = [0] * k
    found = None

    def walk(v: int, need: int, score: int):
        nonlocal best, found
        if need == 0:
            if score > best:
                best, found = score, tuple(c)
            return
        if score + bound[v][need] <= best:
            return
        per = sum(w * math.prod(c[u] for u in rest) for rest, w in charged[v])
        for cv in range(min(caps[v], need), max(0, need - room[v + 1]) - 1, -1):
            if any(c[u] < cv <= caps[u] for u in earlier[v]):
                continue
            c[v] = cv
            walk(v + 1, need - cv, score + cv * per)
        c[v] = 0

    walk(0, t, 0)
    if found is None:
        return None
    return best, found


def sigma_t(
    gen: SequenceGenerator,
    t: int,
    i_range: tuple[int, int] = (0, 7),
) -> UpperDensityReport:
    """Largest induced t-subset Lubell value over members i_range[0]..i_range[1].

    Members with fewer than t vertices are skipped.  No member is built:
    each member is searched over the class-count vectors of its base, with
    at most min(size, t) vertices from each class, so the value is exact.
    ``attaining`` is the first member that reaches it and the
    lexicographically least t-subset of it that does.  A subset loses
    nothing by taking the first vertices of each class interval, and among
    such subsets a larger count vector gives a smaller subset, so the
    subset comes from the largest best vector.
    """
    _require_type(gen, SequenceGenerator, "gen")
    t = _require_int(t, "t", 1, MAX_SUBSET_SIZE)
    lo, hi = (_require_int(i, "member range end", 0)
              for i in _require_tuple(i_range, "member range", 2))
    if hi < lo:
        raise InvalidArgumentError(f"bad member range {i_range}")
    if gen.count is not None and hi >= gen.count:
        raise InvalidArgumentError(
            f"member range {i_range} exceeds the {gen.count} listed sizes"
        )

    denom, weights = _lubell_weights(t, range(1, t + 1))

    best_score = -1
    attaining = None
    h_values = []
    for i in range(lo, hi + 1):
        base, sizes = gen._shape(i)
        h_values.append(_shape_lubell(base, sizes))
        if sum(sizes) < t:
            continue
        caps = [min(s, t) for s in sizes]
        found = _best_counts(base, caps, t, weights, best_score)
        if found is not None:
            best_score, counts = found
            attaining = (i, tuple(o + j for o, c in
                                  zip(accumulate(sizes, initial=0), counts)
                                  for j in range(c)))
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
