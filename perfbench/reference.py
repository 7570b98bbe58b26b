"""Independent reference answers for the benchmark's checks.

Nothing here calls turanlab's algorithms: every value comes from a closed
form or from a direct enumeration written from the definition.  The checks
use these together with the brute-force oracles in ``tests/oracles.py``, and
run after the timed region, so their cost never enters a metric.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# Lagrangians


def lagrangian_12_exact(n, edges) -> Fraction:
    """Exact simplex maximum of sum_{i in S1} x_i + 2 sum_{ij in E2} x_i x_j.

    On the simplex the form equals x^T Q x with Q_ii = s_i and
    Q_ij = (s_i + s_j) / 2 + a_ij, where s marks the 1-edges and a the
    2-edges: a standard quadratic program.  A maximizer x with support J
    solves Q_J x = mu 1, 1^T x = 1 with x_J > 0, and its value is mu.  Every
    support is tried and the largest positive solution wins.  Singular
    systems are skipped: a maximizer whose system is singular moves along
    the null direction, at constant value, until a coordinate hits 0, so a
    maximizer on a smaller face carries the same value.
    """
    marked = {e[0] for e in edges if len(e) == 1}
    pairs = {tuple(sorted(e)) for e in edges if len(e) == 2}
    if any(len(e) > 2 for e in edges):
        raise ValueError("only 1- and 2-edges are supported")
    s = [Fraction(1) if v in marked else Fraction(0) for v in range(n)]

    def q(i, j):
        if i == j:
            return s[i]
        return (s[i] + s[j]) / 2 + (1 if (min(i, j), max(i, j)) in pairs else 0)

    best = None
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            solution = _solve_kkt(support, q)
            if solution is None:
                continue
            xs, mu = solution
            if all(x > 0 for x in xs) and (best is None or mu > best):
                best = mu
    return best


def _solve_kkt(support, q):
    """Solve [Q_J -1; 1^T 0] [x; mu] = [0; 1] exactly, or None if singular."""
    k = len(support)
    rows = [
        [q(i, j) for j in support] + [Fraction(-1), Fraction(0)]
        for i in support
    ]
    rows.append([Fraction(1)] * k + [Fraction(0), Fraction(1)])
    size = k + 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [v / head for v in rows[col]]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    values = [rows[r][size] for r in range(size)]
    return values[:k], values[k]


def stationarity_exact(graph, point) -> Fraction:
    """Worst first-order violation over the simplex, from exact partials.

    The partial in x_v is sum over edges e containing v of |e|! times the
    product of the other coordinates of e.
    """
    grads = []
    for v in range(graph.n):
        total = Fraction(0)
        for e in graph.edges:
            if v in e:
                term = Fraction(math.factorial(len(e)))
                for u in e:
                    if u != v:
                        term *= point[u]
                total += term
        grads.append(total)
    on = [g for g, w in zip(grads, point) if w > 0]
    off = [g for g, w in zip(grads, point) if w == 0]
    residual = max(on) - min(on)
    if off:
        residual = max(residual, max(off) - max(on))
    return max(residual, Fraction(0))


# ---------------------------------------------------------------------------
# small-n Turan densities


def turan_density(n: int, parts: int) -> Fraction:
    """Lubell value of the balanced complete ``parts``-partite pair graph on
    n vertices.

    By Turan's theorem it is pi_n of pair graphs without a clique on
    parts + 1 vertices.  At n = t it is sigma_t of the balanced Turan
    generator, whose members are all large enough for the balanced split.
    """
    sizes = [n // parts + (1 if i < n % parts else 0) for i in range(parts)]
    cross = sum(a * b for a, b in itertools.combinations(sizes, 2))
    return Fraction(cross, math.comb(n, 2))


def mixed_pair_pi(n: int) -> Fraction:
    """pi_n when no pair edge may join two 1-edge vertices.

    With k marked vertices every pair not inside the marked set is allowed,
    so the best graph scores k/n + (C(n,2) - C(k,2)) / C(n,2).
    """
    pairs = math.comb(n, 2)
    return max(
        Fraction(k, n) + Fraction(pairs - math.comb(k, 2), pairs)
        for k in range(n + 1)
    )


def marked_pair_pi(n: int) -> Fraction:
    """pi_n forbidding marked_clique(3) and the complete {1,2}-graph on 2.

    Direct sweep over every marked set and every labeled pair graph: no pair
    edge inside the marked set, and no triangle through a marked vertex.
    """
    all_pairs = list(itertools.combinations(range(n), 2))
    triangles = list(itertools.combinations(range(n), 3))
    best = Fraction(-1)
    for bits in range(1 << len(all_pairs)):
        present = {p for i, p in enumerate(all_pairs) if bits >> i & 1}
        on_triangle = set()
        for a, b, c in triangles:
            if (a, b) in present and (a, c) in present and (b, c) in present:
                on_triangle.update((a, b, c))
        # a vertex may be marked when it is on no triangle; two marked
        # vertices may not be adjacent, so take a largest independent set
        candidates = [v for v in range(n) if v not in on_triangle]
        marks = _max_independent(candidates, present)
        value = Fraction(marks, n) + Fraction(len(present), len(all_pairs))
        best = max(best, value)
    return best


def _max_independent(vertices, pairs) -> int:
    for size in range(len(vertices), 0, -1):
        for subset in itertools.combinations(vertices, size):
            if all((a, b) not in pairs for a, b in itertools.combinations(subset, 2)):
                return size
    return 0


# ---------------------------------------------------------------------------
# sequence densities


def chain_blowup_sigma(t: int) -> Fraction:
    """sigma_t of the chain blown up with weights (3/4, 1/4).

    A subset with a vertices from the marked class and t - a from the other
    scores a singletons and a(t - a) cross pairs.
    """
    return max(
        Fraction(a, t) + Fraction(a * (t - a), math.comb(t, 2))
        for a in range(t + 1)
    )
