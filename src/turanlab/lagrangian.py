"""Polynomial forms over the simplex and their maximization.

A hypergraph H induces the multilinear form sum_e |e|! prod_{i in e} x_i and a
pattern induces sum_e multinomial(|e|; k_1..k_n) prod x_i^{k_i}; the maximum
over the standard simplex is the quantity of interest.  The optimizer pipeline
is: collapse twin classes and enumerate candidate supports (pruned by pair
coverage, with the full support always retained as a fallback).  A form of
degree <= 2, such as that of a {1, 2}-hypergraph, is then solved exactly: on
each support the KKT system of the homogenized quadratic form, scaled to
integers by one common denominator, is solved by fraction-free (Bareiss)
elimination, whose divisions are exact by Sylvester's identity, and the
maximum, its point and its certificate are exact.  A form
with a term of degree >= 3 runs projected gradient ascent with Armijo
backtracking on each support, then verifies first-order optimality and
certifies a rational lower bound at a rounded rational point.  Both solvers
hand their (value, support, weights) candidates to one pick, ``_pick``, and
``evaluate``, ``gradient`` and the ascent multiply out every term with one
routine, ``_total``: the ascent reads each support's sparse float terms and
their ``_partials`` through it, so its values and partials are the public
ones to the last bit.  ``maximize`` builds each result once, certificate
included; a point short of stationarity raises that result, uncertified, as
``best_so_far``.  An ascent that stalls stops at its first repeated state
(see ``_ascend``); from there the full loop would only cycle to max_iters,
so the result is byte-identical to running it out.  A failure reports how
many ascents stalled.  The ascent runs on lists of Python floats and its
restarts draw from ``random``, so no part of the package imports numpy; the
package and the CLI load this module only when a name from it is first used.

``PolynomialForm(nvars, terms)`` checks every term it is given.  The forms
the library builds itself (``from_pattern``, ``from_hypergraph``,
``quotient`` and ``restrict``) skip those checks through
``PolynomialForm._from_terms(nvars, merged)``, whose precondition is that
``merged`` maps distinct exponent vectors of nvars ints >= 0 to positive
Fractions; both paths sort the terms in one place, ``_ordered_terms``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import (
    InvalidArgumentError,
    InvalidHypergraphError,
    OptimizerFailureError,
    TuranLabError,
)
from .hypercore import Hypergraph, Pattern, SimplexPoint, equivalence_classes
from .hypercore import _is_exact, _require_int, _require_rational, _require_tuple
from .hypercore import _require_number, _require_type

__all__ = [
    "PolynomialForm",
    "OptimizerConfig",
    "LagrangianResult",
    "polynomial_form",
    "evaluate",
    "gradient",
    "equivalence_classes",
    "maximize",
    "certify_at",
    "stationarity_residual",
    "STATIONARITY_TOL",
    "CERTIFICATE_DENOMINATOR_CAP",
]

STATIONARITY_TOL = 1e-7
CERTIFICATE_SLACK = 1e-9
CERTIFICATE_DENOMINATOR_CAP = 10**6


def _ordered_terms(merged: dict) -> tuple:
    """The (coefficient, exponent vector) terms of ``merged``, a map from
    distinct exponent vectors to coefficients, sorted by exponent vector: the
    one term order of every form."""
    return tuple((merged[expo], expo) for expo in sorted(merged))


@dataclass(frozen=True)
class PolynomialForm:
    """Sum of positive-coefficient monomials over simplex variables.

    Terms are (coefficient, exponent vector) pairs, merged and sorted by the
    exponent vector.  Coefficients stay exact so rational certification can
    reuse the same data.
    """

    nvars: int
    terms: tuple[tuple[Fraction, tuple[int, ...]], ...]

    def __post_init__(self):
        nvars = _require_int(self.nvars, "variable count", 1)
        object.__setattr__(self, "nvars", nvars)
        merged: dict[tuple[int, ...], Fraction] = {}
        for term in _require_tuple(self.terms, "terms"):
            coeff, expo = _require_tuple(term, "terms entry", 2)
            expo = tuple(_require_int(k, "exponent", 0)
                         for k in _require_tuple(expo, "exponent vector"))
            if len(expo) != nvars:
                raise InvalidArgumentError("exponent vector length mismatch")
            c = _require_rational(coeff, "term coefficient")
            if c <= 0:
                raise InvalidArgumentError("term coefficients must be positive")
            merged[expo] = merged[expo] + c if expo in merged else c
        object.__setattr__(self, "terms", _ordered_terms(merged))

    @classmethod
    def _from_terms(cls, nvars: int, merged: dict) -> "PolynomialForm":
        """Build without validation, for terms the library built.

        Precondition: nvars is an int >= 1, and ``merged`` maps each distinct
        exponent vector, a tuple of nvars ints >= 0, to its coefficient, a
        positive Fraction: exactly what ``__post_init__`` would have merged.
        Nothing checks it; a breach gives a form that compares, hashes and
        evaluates wrongly."""
        form = object.__new__(cls)
        object.__setattr__(form, "nvars", nvars)
        object.__setattr__(form, "terms", _ordered_terms(merged))
        return form

    @classmethod
    def from_pattern(cls, pattern: Pattern) -> "PolynomialForm":
        merged = {}
        for row in pattern.edges:  # distinct rows, each of total size >= 1
            coeff = factorial(sum(row))
            for k in row:
                coeff //= factorial(k)
            merged[row] = Fraction(coeff)
        return cls._from_terms(pattern.n, merged)

    @classmethod
    def from_hypergraph(cls, graph: Hypergraph) -> "PolynomialForm":
        """The form sum_e |e|! prod_{i in e} x_i, built from the 0/1 rows of
        the edges, as ``from_pattern(Pattern.from_hypergraph(graph))`` would."""
        n = graph.n
        if n < 1:
            raise InvalidHypergraphError("pattern needs at least one vertex")
        merged = {}
        for e in graph.edges:
            row = [0] * n
            for v in e:
                row[v] = 1
            merged[tuple(row)] = Fraction(factorial(len(e)))
        return cls._from_terms(n, merged)

    def restrict(self, support: tuple[int, ...]) -> "PolynomialForm":
        """Sub-form on the given variables (terms supported inside them).

        ``support`` must be non-empty and strictly increasing inside
        range(nvars)."""
        support = tuple(_require_int(v, "support entry")
                        for v in _require_tuple(support, "support"))
        if not (support and 0 <= support[0] and support[-1] < self.nvars
                and all(a < b for a, b in zip(support, support[1:]))):
            raise InvalidArgumentError(
                f"support must be strictly increasing variables in 0..{self.nvars - 1}, "
                f"not {support}"
            )
        index = {v: i for i, v in enumerate(support)}
        merged = {}
        for coeff, expo in self.terms:
            if all(k == 0 or i in index for i, k in enumerate(expo)):
                new = [0] * len(support)
                for i, k in enumerate(expo):
                    if k:
                        new[index[i]] = k
                merged[tuple(new)] = coeff  # 0 off the support: no two meet
        return PolynomialForm._from_terms(len(support), merged)

    def quotient(self, classes: tuple[tuple[int, ...], ...]) -> "PolynomialForm":
        """Substitute x_i = z_c / |class c| for every vertex i of class c.

        The classes must partition range(nvars) into non-empty classes."""
        classes = tuple(
            tuple(_require_int(v, "class member") for v in _require_tuple(members, "class"))
            for members in _require_tuple(classes, "classes")
        )
        if not all(classes) or sorted(itertools.chain(*classes)) != list(range(self.nvars)):
            raise InvalidArgumentError("classes must partition the variables")
        owner = {v: c for c, members in enumerate(classes) for v in members}
        merged = {}
        for coeff, expo in self.terms:
            new = [0] * len(classes)
            scale = 1
            for i, k in enumerate(expo):
                if k:
                    c = owner[i]
                    new[c] += k
                    scale *= len(classes[c]) ** k
            new = tuple(new)
            coeff /= scale
            merged[new] = merged[new] + coeff if new in merged else coeff
        return PolynomialForm._from_terms(len(classes), merged)


def polynomial_form(obj) -> PolynomialForm:
    if isinstance(obj, PolynomialForm):
        return obj
    if isinstance(obj, Pattern):
        return PolynomialForm.from_pattern(obj)
    if isinstance(obj, Hypergraph):
        return PolynomialForm.from_hypergraph(obj)
    raise InvalidArgumentError(f"cannot build a polynomial form from {type(obj)!r}")


def _point_weights(point, nvars: int):
    """The point's weights and the zero of their arithmetic: Fraction(0) when
    every weight is a Fraction or a non-bool int, else 0.0.  A raw entry
    must be a number or a bool, which is read as a float."""
    if isinstance(point, SimplexPoint):
        ws = point.weights
    else:
        ws = tuple(w if isinstance(w, bool) else _require_number(w, "point entry")
                   for w in _require_tuple(point, "point"))
    if len(ws) != nvars:
        raise InvalidArgumentError(
            f"point has {len(ws)} coordinates, expected {nvars}"
        )
    exact = all(_is_exact(w) for w in ws)
    return ws, Fraction(0) if exact else 0.0


def _sparse(form: PolynomialForm, exact: bool):
    """Each term as (coeff, ((i, k), ...)) over its nonzero exponents k in
    index order, the coefficient a Fraction when ``exact``, else a float."""
    return [
        (coeff if exact else float(coeff),
         tuple((i, k) for i, k in enumerate(expo) if k))
        for coeff, expo in form.terms
    ]


def _partials(terms, nvars: int):
    """The sparse terms of each partial derivative, in term order: d/dx_a of
    c prod x_i^k_i is (c k_a) x_a^(k_a - 1) prod_{i != a} x_i^k_i."""
    out = [[] for _ in range(nvars)]
    for coeff, factors in terms:
        for j, (a, ka) in enumerate(factors):
            lowered = ((a, ka - 1),) if ka > 1 else ()
            out[a].append((coeff * ka, factors[:j] + lowered + factors[j + 1:]))
    return out


def _total(terms, ws, zero):
    """Sum from ``zero``, in term order, of each sparse term's coefficient
    times w_i**k_i, multiplied left to right: the one term routine of
    ``evaluate``, ``gradient`` and the float ascent."""
    total = zero
    for prod, factors in terms:
        for i, k in factors:
            prod *= ws[i] ** k
        total += prod
    return total


def evaluate(obj, point):
    """Value of the form; exact Fraction for rational input, float otherwise."""
    form = polynomial_form(obj)
    ws, zero = _point_weights(point, form.nvars)
    return _total(_sparse(form, isinstance(zero, Fraction)), ws, zero)


def gradient(obj, point):
    """Partial derivatives of the form at the point, matching its arithmetic.

    At finite nonnegative weights a term with a zero factor adds +0.0 (or
    Fraction 0) to a partial that is never -0.0, so it changes no bit."""
    form = polynomial_form(obj)
    ws, zero = _point_weights(point, form.nvars)
    terms = _sparse(form, isinstance(zero, Fraction))
    return tuple(_total(p, ws, zero) for p in _partials(terms, form.nvars))


# ---------------------------------------------------------------------------
# optimizer


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 32
    max_iters: int = 10_000
    seed: int = 0

    def __post_init__(self):
        for name, least in (("restarts", 0), ("max_iters", 1), ("seed", 0)):
            object.__setattr__(self, name, _require_int(getattr(self, name), name, least))


@dataclass(frozen=True)
class LagrangianResult:
    """Maximum of a form over the simplex and how it was reached.

    ``method`` is ``"exact_kkt"`` for forms of degree <= 2, whose maximum
    ``value_exact`` is exact, and ``"ascent"`` otherwise, with
    ``value_exact`` None.
    """

    value: float
    maximizer: SimplexPoint
    certified_lower_bound: Fraction | None
    certificate_point: SimplexPoint | None
    stationarity_residual: float
    value_exact: Fraction | None
    method: str

    @property
    def support(self) -> tuple[int, ...]:
        return self.maximizer.support


def _project_simplex(v: list[float]) -> list[float]:
    """Euclidean projection onto the simplex by sort and threshold: theta is
    (the sum of the rho largest entries - 1) / rho for the last rho at which
    the rho-th largest entry exceeds (its running sum - 1) / rho."""
    css = 0.0
    theta = None
    for rho, u in enumerate(sorted(v, reverse=True), 1):
        css += u
        if u - (css - 1.0) / rho > 0:
            theta = (css - 1.0) / rho
    return [d if d > 0.0 else 0.0 for d in (w - theta for w in v)]


_ARMIJO_SIGMA = 1e-4
_STEP_TOL = 1e-10
_STEP_INIT = 0.1
_BACKTRACK = 0.5


def _ascend(terms, partials, x0: list[float], cfg: OptimizerConfig):
    """Projected gradient ascent with Armijo backtracking on a form's sparse
    float ``terms`` and their ``partials``, both read through ``_total``.

    Returns (x, value, converged).  The loop has three exits:

    - a projected step shorter than _STEP_TOL: converged;
    - a repeated state: stalled.  A step that does not strictly raise f
      leaves x unchanged, and the next step then depends on the current
      one alone, since the gradient and the line search depend only on x,
      f(x) and the step.  So once a step comes back at an unchanged x the
      loop cycles, never moving x and never meeting _STEP_TOL, and running
      it on to max_iters would return the same (x, f(x), False);
    - max_iters iterations: stalled.
    """
    x = x0
    fx = _total(terms, x, 0.0)
    step = _STEP_INIT
    converged = False
    tried = set()  # steps run since x last moved
    for _ in range(cfg.max_iters):
        if step in tried:
            break
        tried.add(step)
        g = [_total(p, x, 0.0) for p in partials]
        t = step
        y, fy = x, fx
        for _ in range(60):
            cand = _project_simplex([xi + t * gi for xi, gi in zip(x, g)])
            fcand = _total(terms, cand, 0.0)
            gain = 0.0
            for gi, ci, xi in zip(g, cand, x):
                gain += gi * (ci - xi)
            if fcand >= fx + _ARMIJO_SIGMA * gain:
                y, fy = cand, fcand
                break
            t *= _BACKTRACK
        move = math.dist(y, x)
        if fy > fx:
            x, fx = y, fy
            tried.clear()
        if move <= _STEP_TOL:
            converged = True
            break
        step = min(t * 2.0, 1.0)
    return x, fx, converged


def stationarity_residual(obj, point) -> float:
    """First-order optimality residual over the simplex.

    On the support all partials must agree; off the support they may not
    exceed the common value.  The residual is the worst violation.
    """
    form = polynomial_form(obj)
    ws = tuple(float(w) for w in _point_weights(point, form.nvars)[0])
    g = gradient(form, ws)
    on = [g[i] for i, w in enumerate(ws) if w > 0]
    off = [g[i] for i, w in enumerate(ws) if w == 0]
    if not on:
        raise InvalidArgumentError("point has empty support")
    residual = max(on) - min(on)
    if off:
        residual = max(residual, max(off) - max(on), 0.0)
    return max(residual, 0.0)


def _candidate_supports(form: PolynomialForm) -> list[tuple[int, ...]]:
    """Supports worth searching: pair-covered subsets plus the full support.

    A support J qualifies when every pair inside J lies in some term fully
    supported inside J.  Singletons need a term supported inside them (a
    constant term counts).  A term covering a pair holds both variables, so a
    pair-covered J is a clique of the co-occurrence graph, which joins two
    variables that share a term; only its cliques, met once each by
    backtracking, are tested.  The full variable set is always kept.
    """
    q = form.nvars
    masks = []
    for _, expo in form.terms:
        m = 0
        for i, k in enumerate(expo):
            if k:
                m |= 1 << i
        masks.append(m)
    cover: dict[tuple[int, int], list[int]] = {}
    near = [0] * q  # near[a]: the variables that share a term with a
    for m in masks:
        bits = [i for i in range(q) if m >> i & 1]
        for a, b in itertools.combinations(bits, 2):
            cover.setdefault((a, b), []).append(m)
            near[a] |= 1 << b
            near[b] |= 1 << a
    out = []

    def extend(sub, bits, common):  # common: the variables joined to all of bits
        # each group of terms must have one inside sub
        groups = ([masks] if len(bits) == 1
                  else (cover[pair] for pair in itertools.combinations(bits, 2)))
        if all(any(m & ~sub == 0 for m in group) for group in groups):
            out.append(tuple(bits))
        for v in range(bits[-1] + 1, q):
            if common >> v & 1:
                extend(sub | 1 << v, bits + [v], common & near[v])

    for v in range(q):
        extend(1 << v, [v], near[v])
    full = tuple(range(q))
    if full not in out:
        out.append(full)
    out.sort(key=lambda s: (len(s), s))
    return out


def _kkt_maximum(form: PolynomialForm) -> tuple[Fraction, list[Fraction]]:
    """Exact maximum and maximizer over the simplex of a form of degree <= 2.

    On the simplex the form equals z^T Q z, with every term of degree d < 2
    multiplied by (1^T z)^(2 - d): a standard quadratic program (Bomze
    1998).  A linear term c z_i adds c/2 to row i and to column i, a square
    c z_i^2 adds c to Q_ii, a cross term c z_i z_j adds c/2 to Q_ij and to
    Q_ji, and a constant adds c to every entry.

    A maximizer z with support J is stationary on its face, so it solves
    Q_J z = mu 1, 1^T z = 1 with z_J > 0, and its value is z^T Q z = mu.
    Take a maximizer of least support J.  Its system is not singular: a null
    vector (d, dmu) has d != 0 and 1^T d = 0, so
    f(z + t d) = f(z) + 2 t mu 1^T d + t^2 dmu 1^T d = f(z) until a
    coordinate of z + t d hits 0, at a maximizer on a smaller face.  J is
    also pair-covered (``_candidate_supports``): for a pair a, b in J that
    no term inside J contains, d = e_a - e_b gives
    d^T Q d = Q_aa + Q_bb - 2 Q_ab >= 0, the sum of the square coefficients
    of a and b.  So f is convex along d with a maximum at z inside the face,
    hence constant along d, and again a maximizer lies on a smaller face.  A
    singleton J = {i} holds a term, or f(e_i) = 0 would be the maximum of a
    form with positive coefficients.  So the largest mu over the positive
    solutions of the non-singular candidate systems is the maximum.  Ties go
    to the lexicographically least support.

    The systems are solved in integers: den = 2 lcm of the coefficient
    denominators makes den Q an integer matrix, with z unchanged and mu
    scaled by den.  Bareiss elimination divides each step by the previous
    pivot, and by Sylvester's identity every entry it makes is a minor, so
    each division is exact.  Only positive solutions become Fractions:
    z = nums / det and mu = num_mu / (det den).
    """
    q = form.nvars
    den = 2 * math.lcm(*(coeff.denominator for coeff, _ in form.terms))
    Q = [[0] * q for _ in range(q)]
    for coeff, expo in form.terms:
        # a factor the term lacks is 1^T z, which sums over every index
        vs = [i for i, k in enumerate(expo) for _ in range(k)]
        half = coeff.numerator * (den // 2 // coeff.denominator)  # den coeff / 2
        for i in vs[:1] or range(q):
            for j in vs[1:2] or range(q):
                Q[i][j] += half
                Q[j][i] += half

    def candidates():
        for support in _candidate_supports(form):
            solved = _solve_kkt([[Q[i][j] for j in support] for i in support])
            if solved is not None and min(solved[0]) > 0:
                nums, num_mu, det = solved
                yield Fraction(num_mu, det * den), support, [Fraction(n, det) for n in nums]

    return _pick(candidates(), q, Fraction(0))


def _pick(candidates, nvars: int, zero):
    """(value, point) of the best (value, support, weights) candidate, ties
    going to the least support, with the weights scattered into a point of
    nvars coordinates that is ``zero`` off the support."""
    value, support, weights = min(candidates, key=lambda c: (-c[0], c[1]))
    point = [zero] * nvars
    for i, w in zip(support, weights):
        point[i] = w
    return value, point


def _solve_kkt(Q: list[list[int]]):
    """Solve [Q -1; 1^T 0] [z; mu] = [0; 1] for an integer Q by fraction-free
    Gauss-Jordan elimination (Bareiss 1968): the numerators of z and of mu,
    and their denominator det > 0, the determinant up to sign; None if the
    system is singular."""
    k = len(Q)
    size = k + 1
    rows = [row + [-1, 0] for row in Q]
    rows.append([1] * k + [0, 1])
    prev = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        p = head[col]
        for r in range(size):
            if r != col:
                factor = rows[r][col]
                rows[r] = [(p * a - factor * b) // prev for a, b in zip(rows[r], head)]
        prev = p
    sign = 1 if prev > 0 else -1
    return [sign * row[size] for row in rows[:k]], sign * rows[k][size], sign * prev


def _starts(dim: int, cfg: OptimizerConfig, support_key: int):
    """The uniform point, then ``cfg.restarts`` Dirichlet(1, ..., 1) draws:
    normalized exponential variates from a generator seeded by the string
    "seed:support_key:r", which ``random`` hashes with SHA-512, so the draws
    do not depend on PYTHONHASHSEED."""
    yield [1.0 / dim] * dim
    for r in range(cfg.restarts):
        rng = random.Random(f"{cfg.seed}:{support_key}:{r}")
        draws = [rng.expovariate(1.0) for _ in range(dim)]
        total = math.fsum(draws)
        yield [d / total for d in draws]


def _ascent_maximum(form: PolynomialForm, cfg: OptimizerConfig):
    """Best point of the ascents over every candidate support of the form,
    and one converged flag per ascent.  Ties go to the least support."""
    converged_runs = []

    def candidates():
        for support in _candidate_supports(form):
            if len(support) == 1:
                yield float(evaluate(form.restrict(support), (1,))), support, (1.0,)
                continue
            terms = _sparse(form.restrict(support), False)
            partials = _partials(terms, len(support))
            key = sum(1 << i for i in support)
            runs = [_ascend(terms, partials, x0, cfg)
                    for x0 in _starts(len(support), cfg, key)]
            converged_runs.extend(conv for _, _, conv in runs)
            x, fx, _ = max(runs, key=lambda run: run[1])  # the first best run
            yield fx, support, x

    _, z = _pick(candidates(), form.nvars, 0.0)
    return z, converged_runs


def maximize(obj, config: OptimizerConfig | None = None) -> LagrangianResult:
    """Global maximum of the form over the simplex, with a rational certificate.

    Collapses equivalent vertices first (hypergraphs and simple patterns), so
    most structured inputs reduce to very few free variables.  A form of
    degree <= 2 is solved exactly (``_kkt_maximum``), ignores the restarts,
    iterations and seed of the config, and is certified at its exact
    maximizer.  Otherwise each support runs the ascent, and the certificate
    is the exact value at the maximizer rounded by ``_rationalize``; a
    maximizer short of stationarity raises ``OptimizerFailureError`` with
    the uncertified result as ``best_so_far``.
    """
    cfg = (OptimizerConfig() if config is None
           else _require_type(config, OptimizerConfig, "config"))
    if isinstance(obj, Pattern) and obj.is_simple():
        obj = obj.to_hypergraph()
    form = polynomial_form(obj)
    if not form.terms:
        raise InvalidArgumentError("cannot maximize a form with no terms")

    classes = tuple((i,) for i in range(form.nvars))
    if isinstance(obj, Hypergraph):
        classes = equivalence_classes(obj)
    qform = form.quotient(classes)
    exact = all(sum(expo) <= 2 for _, expo in qform.terms)
    if exact:
        value_exact, z = _kkt_maximum(qform)
    else:
        value_exact = None
        z, converged_runs = _ascent_maximum(qform, cfg)

    # expand the quotient point back to the original variables
    x = [None] * form.nvars
    for c, members in enumerate(classes):
        for v in members:
            x[v] = z[c] / len(members)
    if not exact:
        x = _project_simplex(x)
    value = float(value_exact) if exact else evaluate(form, x)
    maximizer = SimplexPoint(tuple(float(w) for w in x))
    residual = stationarity_residual(form, maximizer)

    # a stalled ascent can still end on a stationary point, once no float
    # step raises f near the maximum; only the residual decides
    cert_point = certified = None
    if exact or residual < STATIONARITY_TOL:
        cert_point = SimplexPoint(tuple(x)) if exact else _rationalize(maximizer)
        certified = evaluate(form, cert_point)
        if exact and certified != value_exact:
            raise TuranLabError(
                f"the form is {certified} at its KKT point, not the value {value_exact}"
            )
        if float(certified) > value + CERTIFICATE_SLACK:
            raise OptimizerFailureError(
                "certificate exceeded the numeric value beyond slack",
                best_so_far=None,
            )
    result = LagrangianResult(
        value=value,
        maximizer=maximizer,
        certified_lower_bound=certified,
        certificate_point=cert_point,
        stationarity_residual=residual,
        value_exact=value_exact,
        method="exact_kkt" if exact else "ascent",
    )
    if certified is None:
        raise OptimizerFailureError(
            f"no run reached stationarity {STATIONARITY_TOL} "
            f"(residual {residual:.3e}) "
            f"({converged_runs.count(False)} of {len(converged_runs)} "
            f"ascents stalled)",
            best_so_far=result,
        )
    return result


def _rationalize(point: SimplexPoint) -> SimplexPoint:
    """Round to denominators <= 1e6 by continued fractions, renormalize exactly."""
    approx = [
        Fraction(float(w)).limit_denominator(CERTIFICATE_DENOMINATOR_CAP)
        for w in point.weights
    ]
    total = sum(approx)
    if total == 0:
        raise InvalidArgumentError("cannot rationalize the zero vector")
    return SimplexPoint(tuple(w / total for w in approx))


def certify_at(obj, point) -> Fraction:
    """Exact rational value of the form at an exact rational simplex point."""
    if not isinstance(point, SimplexPoint):
        point = SimplexPoint(point)
    if not point.is_rational:
        raise InvalidArgumentError("certification needs exact rational weights")
    return evaluate(obj, point)
