"""Independent brute-force reference implementations.

Everything here is written from the definitions with no shared code paths:
permutation loops for isomorphism and counting, full labeled-graph sweeps
for extremal values, zooming grid search for polynomial maxima, Lagrange
systems on every support for exact {1, 2} maxima, central differences for
gradients, and itertools subsets for sequence densities.
Slow on purpose; only run on small instances.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from turanlab.hypercore import Hypergraph


def brute_lubell(graph: Hypergraph) -> Fraction:
    total = Fraction(0)
    for e in graph.edges:
        total += Fraction(1, math.comb(graph.n, len(e)))
    return total


def _apply(perm, edges):
    return frozenset(tuple(sorted(perm[v] for v in e)) for e in edges)


def brute_is_isomorphic(a: Hypergraph, b: Hypergraph) -> bool:
    if a.n != b.n or sorted(map(len, a.edges)) != sorted(map(len, b.edges)):
        return False
    target = frozenset(b.edges)
    return any(
        _apply(perm, a.edges) == target
        for perm in itertools.permutations(range(a.n))
    )


def brute_orbits(graph: Hypergraph, sets):
    """The orbits of Aut(graph) on ``sets``, vertex tuples closed under it:
    each orbit a sorted tuple of sorted vertex tuples, the orbits sorted."""
    target = frozenset(graph.edges)
    autos = [
        perm for perm in itertools.permutations(range(graph.n))
        if _apply(perm, graph.edges) == target
    ]
    return tuple(sorted({
        tuple(sorted({tuple(sorted(perm[v] for v in s)) for perm in autos}))
        for s in sets
    }))


def twin_prefix_sets(classes, sets):
    """The sets among ``sets`` that meet each of the twin ``classes`` in a
    prefix, its first k vertices for some k, in their given order: one per
    orbit of the permutations inside the classes."""
    return [
        s for s in sets
        if all(set(cls[:len(set(cls) & set(s))]) <= set(s) for cls in classes)
    ]


def generated_orbits(perms, sets):
    """The orbits on ``sets`` of the group that ``perms`` generate, in the
    format of ``brute_orbits``: each orbit closed by applying every
    generator to each set in it."""
    orbits, seen = [], set()
    for s in sets:
        if s in seen:
            continue
        orbit = [s]
        seen.add(s)
        for t in orbit:
            for perm in perms:
                image = tuple(sorted(perm[v] for v in t))
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
        orbits.append(tuple(sorted(orbit)))
    return tuple(sorted(orbits))


def brute_twin_classes(graph: Hypergraph):
    """Vertex classes under "swapping i and j maps the edge set onto itself",
    each sorted, listed by least vertex."""
    edges = frozenset(graph.edges)

    def swap_fixes_edges(i, j):
        perm = list(range(graph.n))
        perm[i], perm[j] = j, i
        return _apply(perm, graph.edges) == edges

    classes = {
        tuple(u for u in range(graph.n) if swap_fixes_edges(u, v))
        for v in range(graph.n)
    }
    return tuple(sorted(classes))


def brute_count_injections(big: Hypergraph, small: Hypergraph) -> int:
    """Injective maps sending every small edge onto a big edge."""
    big_edges = frozenset(big.edges)
    count = 0
    for image in itertools.permutations(range(big.n), small.n):
        if all(
            tuple(sorted(image[v] for v in e)) in big_edges
            for e in small.edges
        ):
            count += 1
    return count


def brute_count_induced(big: Hypergraph, small: Hypergraph) -> int:
    """Injective maps that are exact on the image: a small edge iff the
    preimage of a big edge inside the image."""
    big_edges = frozenset(big.edges)
    count = 0
    for image in itertools.permutations(range(big.n), small.n):
        mapped = {tuple(sorted(image[v] for v in e)) for e in small.edges}
        image_set = set(image)
        inside = {
            e for e in big_edges
            if set(e) <= image_set and len(e) <= small.n
        }
        if mapped == inside:
            count += 1
    return count


def brute_contains(big: Hypergraph, small: Hypergraph, induced=False) -> bool:
    if induced:
        return brute_count_induced(big, small) > 0
    return brute_count_injections(big, small) > 0


def brute_contains_through(big: Hypergraph, small: Hypergraph, e) -> bool:
    """Whether some injection sends every small edge onto a big edge and
    some small edge onto the edge e of big."""
    big_edges = frozenset(big.edges)
    target = tuple(sorted(e))
    for image in itertools.permutations(range(big.n), small.n):
        mapped = [tuple(sorted(image[v] for v in f)) for f in small.edges]
        if target in mapped and all(f in big_edges for f in mapped):
            return True
    return False


def all_labeled_graphs(n: int, sizes):
    """Every labeled graph on n vertices with edges of the given sizes."""
    pool = [
        e for r in sorted(set(sizes)) if r <= n
        for e in itertools.combinations(range(n), r)
    ]
    for bits in range(1 << len(pool)):
        yield Hypergraph(
            n, tuple(pool[i] for i in range(len(pool)) if bits >> i & 1)
        )


def brute_pi_n(members, ambient_sizes, n: int, induced=False) -> Fraction:
    """Extremal Lubell value over all labeled graphs avoiding every member."""
    best = Fraction(-1)
    for g in all_labeled_graphs(n, ambient_sizes):
        if any(brute_contains(g, m, induced) for m in members):
            continue
        best = max(best, brute_lubell(g))
    if best < 0:
        raise ValueError("every graph contains a member")
    return best


def brute_extremal(members, ambient_sizes, n: int, induced=False) -> list:
    """Every labeled graph that avoids every member and has the largest
    Lubell value among those that do."""
    free = [
        g for g in all_labeled_graphs(n, ambient_sizes)
        if not any(brute_contains(g, m, induced) for m in members)
    ]
    best = max(brute_lubell(g) for g in free)
    return [g for g in free if brute_lubell(g) == best]


def count_iso_classes(n: int, sizes) -> int:
    """Number of isomorphism classes, by partitioning all labeled graphs."""
    reps = []
    for g in all_labeled_graphs(n, sizes):
        if not any(brute_is_isomorphic(g, r) for r in reps):
            reps.append(g)
    return len(reps)


# ---------------------------------------------------------------------------
# polynomial maxima


def poly_value(graph: Hypergraph, x) -> float:
    """The blow-up limit polynomial: each edge contributes |e|! times the
    product of its variables."""
    total = 0.0
    for e in graph.edges:
        term = float(math.factorial(len(e)))
        for v in e:
            term *= x[v]
        total += term
    return total


def poly_value_exact(graph: Hypergraph, x) -> Fraction:
    total = Fraction(0)
    for e in graph.edges:
        term = Fraction(math.factorial(len(e)))
        for v in e:
            term *= x[v]
        total += term
    return total


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def grid_lagrangian(graph: Hypergraph, steps: int = 40, zooms: int = 5) -> float:
    """Zooming grid search for the simplex maximum of the edge polynomial.

    Level 0 sweeps the whole simplex at resolution 1/steps; each later level
    re-grids a shrinking box around the incumbent.  Returns a float good to
    roughly (1/steps) * 3**(-zooms) in the argument.
    """
    n = graph.n
    best_val = -1.0
    best_x = None
    for comp in _compositions(steps, n):
        x = [c / steps for c in comp]
        v = poly_value(graph, x)
        if v > best_val:
            best_val, best_x = v, x
    width = 1.0 / steps
    for _ in range(zooms):
        width /= 3.0
        base = best_x
        local = [best_val, best_x]
        for comp in _compositions(6, n):
            x = [max(0.0, b + (c - 3) * width) for b, c in zip(base, comp)]
            s = sum(x)
            if s <= 0:
                continue
            x = [xi / s for xi in x]
            v = poly_value(graph, x)
            if v > local[0]:
                local = [v, x]
        best_val, best_x = local
    return best_val


def kkt_lagrangian_12(graph: Hypergraph) -> Fraction:
    """Exact simplex maximum of the edge polynomial of a {1, 2}-graph.

    f(x) = sum_{i in S1} x_i + 2 sum_{ij in E2} x_i x_j.  A maximizer with
    support J is stationary on the affine hull of its face:
    df/dx_v = [v in S1] + 2 sum_{u in J, uv in E2} x_u = lam for v in J, and
    sum_J x = 1, a linear system in (x_J, lam).  Every support J is tried.
    For a maximizer of least support the system is not singular: a null
    vector (d, dlam) has sum d = 0 and 2 A_J d = dlam 1, so
    f(x + t d) = f(x) + t lam sum d + t^2 dlam sum d / 2 = f(x) until a
    coordinate hits 0.  The largest f over the positive solutions is the
    maximum.
    """
    if any(len(e) > 2 for e in graph.edges):
        raise ValueError("only 1- and 2-edges are supported")
    best = None
    for size in range(1, graph.n + 1):
        for support in itertools.combinations(range(graph.n), size):
            pos = {v: i for i, v in enumerate(support)}
            k = len(support)
            # columns x_J, lam, right-hand side
            rows = [[Fraction(0)] * k + [Fraction(-1), Fraction(0)] for _ in support]
            for e in graph.edges:
                if not all(v in pos for v in e):
                    continue
                if len(e) == 1:
                    rows[pos[e[0]]][k + 1] -= 1
                else:
                    a, b = pos[e[0]], pos[e[1]]
                    rows[a][b] += 2
                    rows[b][a] += 2
            rows.append([Fraction(1)] * k + [Fraction(0), Fraction(1)])
            solution = _solve_linear(rows)
            if solution is None or min(solution[:k]) <= 0:
                continue
            x = [Fraction(0)] * graph.n
            for v, w in zip(support, solution):
                x[v] = w
            value = poly_value_exact(graph, x)
            if best is None or value > best:
                best = value
    return best


def brute_candidate_supports(form):
    """Every nonempty subset J of the form's variables in which each pair lies
    in some term supported inside J, a singleton qualifying when some term
    (a constant one too) is supported inside it; plus the full set, sorted
    by size, then lexicographically.  The 2^q filter that
    ``lagrangian._candidate_supports`` prunes to the cliques of the
    co-occurrence graph."""
    q = form.nvars
    masks = [sum(1 << i for i, k in enumerate(expo) if k) for _, expo in form.terms]
    out = []
    for sub in range(1, 1 << q):
        bits = [i for i in range(q) if sub >> i & 1]
        if len(bits) == 1:
            ok = any(m & ~sub == 0 for m in masks)
        else:
            ok = all(
                any(m & ~sub == 0 and m >> a & 1 and m >> b & 1 for m in masks)
                for a, b in itertools.combinations(bits, 2)
            )
        if ok:
            out.append(tuple(bits))
    if tuple(range(q)) not in out:
        out.append(tuple(range(q)))
    return sorted(out, key=lambda s: (len(s), s))


def _solve_linear(rows):
    """Gauss-Jordan on a square system with its right-hand side as the last
    column; None when the system is singular."""
    size = len(rows)
    rows = [list(r) for r in rows]
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[r][size] / rows[r][r] for r in range(size)]


def central_diff_gradient(value_fn, x, h: float = 1e-6):
    """Central differences of a raw (unconstrained) multivariate function."""
    grads = []
    for i in range(len(x)):
        up = list(x)
        down = list(x)
        up[i] += h
        down[i] -= h
        grads.append((value_fn(up) - value_fn(down)) / (2 * h))
    return grads


# ---------------------------------------------------------------------------
# sequence densities


def brute_sigma(graphs, t: int) -> Fraction:
    """Supremum of induced t-subset Lubell values over the given members."""
    value, _ = brute_sigma_witness(graphs, t)
    return Fraction(0) if value is None else value


def brute_sigma_witness(graphs, t: int):
    """The supremum with the first (member position, subset) reaching it,
    members in order and subsets in lexicographic order; (None, None) when
    no member has t vertices."""
    best = witness = None
    for index, g in enumerate(graphs):
        if g.n < t:
            continue
        for subset in itertools.combinations(range(g.n), t):
            inside = set(subset)
            value = Fraction(0)
            for e in g.edges:
                if len(e) <= t and set(e) <= inside:
                    value += Fraction(1, math.comb(t, len(e)))
            if best is None or value > best:
                best, witness = value, (index, subset)
    return best, witness


# the texts classify12 attaches to the weak values it names
_LIMIT_NOTES = {
    Fraction(1): "limit of k/(k+1); density of chain-free graphs",
    Fraction(5, 4): "limit of 1 + k/(4(k+1))",
    Fraction(2): "right endpoint; full Lubell range for two edge types",
}
_ZERO_NOTE = "left endpoint; realized by edgeless graphs"


def _labelled_weak_values(k_max: int):
    """Each closed-form weak jump with parameter up to k_max, mapped to
    (matched_form, k, note) as classify12 reports it."""
    values = {Fraction(0): ("k/(k+1)", 0, _ZERO_NOTE)}
    for limit, note in _LIMIT_NOTES.items():
        values[limit] = (str(limit), None, note)
    for k in range(1, k_max + 1):
        values[Fraction(k, k + 1)] = ("k/(k+1)", k, None)
        values[1 + Fraction(k, 4 * (k + 1))] = ("1+k/(4(k+1))", k, None)
        values[Fraction(2 * k + 1, k + 1)] = ("(2k+1)/(k+1)", k, None)
    return values


def weak_jump_values(k_max: int):
    """The closed-form list of weak jumps with parameter up to k_max."""
    return set(_labelled_weak_values(k_max))


def brute_classify12(alpha: Fraction):
    """(verdict, matched_form, k, interval, note) for alpha in [0, 2], by a
    scan of the closed-form values with k up to 4q, q the denominator of
    alpha.  A strong alpha lies at least 1/(4q) from every limit, so its
    nearest values on either side have k <= q and are in the scan."""
    values = _labelled_weak_values(4 * alpha.denominator)
    if alpha in values:
        form, k, note = values[alpha]
        return "weak_jump", form, k, None, note
    lo = max(v for v in values if v < alpha)
    hi = min(v for v in values if v > alpha)
    return "strong_jump", None, None, (lo, hi), None
