"""Polynomial forms over the simplex and their maximization.

A hypergraph H induces the multilinear form sum_e |e|! prod_{i in e} x_i and a
pattern induces sum_e multinomial(|e|; k_1..k_n) prod x_i^{k_i}; the maximum
over the standard simplex is the quantity of interest.  The optimizer pipeline
is: collapse twin classes and enumerate candidate supports (pruned by pair
coverage, with the full support always retained as a fallback).  A form of
degree <= 2, such as that of a {1, 2}-hypergraph, is then solved exactly: on
each support the KKT system of the homogenized quadratic form is solved in
rationals, and the maximum, its point and its certificate are exact.  A form
with a term of degree >= 3 runs projected gradient ascent with Armijo
backtracking on each support, then verifies first-order optimality and
certifies a rational lower bound at a rounded rational point.  An ascent that
stalls stops at its first repeated state (see ``_ascend``); from there the
full loop would only cycle to max_iters, so the result is byte-identical to
running it out.  A failure reports how many ascents stalled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .errors import InvalidArgumentError, OptimizerFailureError, TuranLabError
from .hypercore import Hypergraph, Pattern, SimplexPoint, equivalence_classes

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
        merged: dict[tuple[int, ...], Fraction] = {}
        for coeff, expo in self.terms:
            expo = tuple(int(k) for k in expo)
            if len(expo) != self.nvars:
                raise InvalidArgumentError("exponent vector length mismatch")
            c = Fraction(coeff)
            if c <= 0:
                raise InvalidArgumentError("term coefficients must be positive")
            merged[expo] = merged.get(expo, Fraction(0)) + c
        terms = tuple(sorted(((c, e) for e, c in merged.items()), key=lambda t: t[1]))
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_pattern(cls, pattern: Pattern) -> "PolynomialForm":
        terms = []
        for row in pattern.edges:
            size = sum(row)
            coeff = factorial(size)
            for k in row:
                coeff //= factorial(k)
            terms.append((Fraction(coeff), row))
        return cls(pattern.n, tuple(terms))

    @classmethod
    def from_hypergraph(cls, graph: Hypergraph) -> "PolynomialForm":
        return cls.from_pattern(Pattern.from_hypergraph(graph))

    def restrict(self, support: tuple[int, ...]) -> "PolynomialForm":
        """Sub-form on the given variables (terms supported inside them)."""
        index = {v: i for i, v in enumerate(support)}
        keep = []
        for coeff, expo in self.terms:
            if all(k == 0 or i in index for i, k in enumerate(expo)):
                new = [0] * len(support)
                for i, k in enumerate(expo):
                    if k:
                        new[index[i]] = k
                keep.append((coeff, tuple(new)))
        return PolynomialForm(len(support), tuple(keep))

    def quotient(self, classes: tuple[tuple[int, ...], ...]) -> "PolynomialForm":
        """Substitute x_i = z_c / |class c| for every vertex i of class c."""
        owner = {}
        for c, members in enumerate(classes):
            for v in members:
                owner[v] = c
        if len(owner) != self.nvars:
            raise InvalidArgumentError("classes must partition the variables")
        terms = []
        for coeff, expo in self.terms:
            new = [0] * len(classes)
            scale = Fraction(1)
            for i, k in enumerate(expo):
                if k:
                    c = owner[i]
                    new[c] += k
                    scale *= Fraction(1, len(classes[c])) ** k
            terms.append((coeff * scale, tuple(new)))
        return PolynomialForm(len(classes), tuple(terms))


def polynomial_form(obj) -> PolynomialForm:
    if isinstance(obj, PolynomialForm):
        return obj
    if isinstance(obj, Pattern):
        return PolynomialForm.from_pattern(obj)
    if isinstance(obj, Hypergraph):
        return PolynomialForm.from_hypergraph(obj)
    raise InvalidArgumentError(f"cannot build a polynomial form from {type(obj)!r}")


def _point_weights(point, nvars: int):
    ws = point.weights if isinstance(point, SimplexPoint) else tuple(point)
    if len(ws) != nvars:
        raise InvalidArgumentError(
            f"point has {len(ws)} coordinates, expected {nvars}"
        )
    return ws


def evaluate(obj, point):
    """Value of the form; exact Fraction for rational input, float otherwise."""
    form = polynomial_form(obj)
    ws = _point_weights(point, form.nvars)
    exact = all(isinstance(w, (Fraction, int)) for w in ws)
    total = Fraction(0) if exact else 0.0
    for coeff, expo in form.terms:
        prod = coeff if exact else float(coeff)
        for w, k in zip(ws, expo):
            if k:
                prod *= w**k
        total += prod
    return total


def gradient(obj, point):
    """Partial derivatives of the form at the point, matching its arithmetic."""
    form = polynomial_form(obj)
    ws = _point_weights(point, form.nvars)
    exact = all(isinstance(w, (Fraction, int)) for w in ws)
    zero = Fraction(0) if exact else 0.0
    grads = [zero] * form.nvars
    for coeff, expo in form.terms:
        for a, ka in enumerate(expo):
            if ka == 0:
                continue
            prod = coeff if exact else float(coeff)
            prod *= ka
            dead = False
            for i, k in enumerate(expo):
                if i == a:
                    if ka > 1:
                        if ws[i] == 0:
                            dead = True
                            break
                        prod *= ws[i] ** (ka - 1)
                elif k:
                    if ws[i] == 0:
                        dead = True
                        break
                    prod *= ws[i] ** k
            if not dead:
                grads[a] += prod
    return tuple(grads)


# ---------------------------------------------------------------------------
# optimizer


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 32
    max_iters: int = 10_000
    seed: int = 0
    rational_certificate: bool = True

    def __post_init__(self):
        if self.restarts < 0 or self.max_iters < 1:
            raise InvalidArgumentError("restarts must be >= 0 and max_iters >= 1")


@dataclass(frozen=True)
class LagrangianResult:
    """Maximum of a form over the simplex and how it was reached.

    ``method`` is ``"exact_kkt"`` for forms of degree <= 2, whose maximum
    ``value_exact`` is exact, and ``"ascent"`` otherwise, with
    ``value_exact`` None.
    """

    value: float
    maximizer: SimplexPoint
    support: tuple[int, ...]
    certified_lower_bound: Fraction | None
    certificate_point: SimplexPoint | None
    stationarity_residual: float
    value_exact: Fraction | None
    method: str


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the simplex by sort and threshold."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    cond = u - css / idx > 0
    rho = np.nonzero(cond)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


class _NumericForm:
    """Float view of a PolynomialForm for the inner ascent loop."""

    def __init__(self, form: PolynomialForm):
        self.nvars = form.nvars
        self.coeffs = np.array([float(c) for c, _ in form.terms])
        self.expo = np.array([e for _, e in form.terms], dtype=float)
        self._scaled = self.coeffs[:, None] * self.expo
        self._lowered = self.expo - 1.0
        self._diagonal = np.eye(self.nvars, dtype=bool)
        self._active = [np.flatnonzero(col > 0) for col in self.expo.T]

    def value(self, x: np.ndarray) -> float:
        return float(self.coeffs @ np.prod(x[None, :] ** self.expo, axis=1))

    def grad(self, x: np.ndarray) -> np.ndarray:
        """Partials sum_t c_t k_ta x_a^(k_ta - 1) prod_{b != a} x_b^k_tb.

        Each product over b != a runs in the order of b with a factor 1.0 at
        b = a, and each partial sums its active terms as one 1-D array, so
        the rounding is that of a loop over the variables.  Inactive entries
        (k_ta = 0) may be inf or nan at a zero coordinate; they are dropped.
        """
        powers = x ** self.expo
        others = np.repeat(powers[:, None, :], self.nvars, axis=1)
        others[:, self._diagonal] = 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = self._scaled * x ** self._lowered * others.prod(axis=2)
        g = np.zeros(self.nvars)
        for a, active in enumerate(self._active):
            if active.size:
                g[a] = float(terms[active, a].sum())
        return g


_ARMIJO_SIGMA = 1e-4
_STEP_TOL = 1e-10
_STEP_INIT = 0.1
_BACKTRACK = 0.5


def _ascend(num: _NumericForm, x0: np.ndarray, cfg: OptimizerConfig):
    """Projected gradient ascent with Armijo backtracking.

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
    x = x0.copy()
    fx = num.value(x)
    step = _STEP_INIT
    converged = False
    tried = set()  # steps run since x last moved
    for _ in range(cfg.max_iters):
        if step in tried:
            break
        tried.add(step)
        g = num.grad(x)
        t = step
        y, fy = x, fx
        for _ in range(60):
            cand = _project_simplex(x + t * g)
            fcand = num.value(cand)
            gain = float(g @ (cand - x))
            if fcand >= fx + _ARMIJO_SIGMA * gain:
                y, fy = cand, fcand
                break
            t *= _BACKTRACK
        move = float(np.linalg.norm(y - x))
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
    ws = _point_weights(point, form.nvars)
    ws = tuple(float(w) for w in ws)
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
    constant term counts).  The full variable set is always kept as a
    fallback.
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
    for m in masks:
        bits = [i for i in range(q) if m >> i & 1]
        for a, b in itertools.combinations(bits, 2):
            cover.setdefault((a, b), []).append(m)
    full = tuple(range(q))
    out = []
    for sub in range(1, 1 << q):
        bits = [i for i in range(q) if sub >> i & 1]
        if len(bits) == 1:
            if any(m & ~sub == 0 for m in masks):
                out.append(tuple(bits))
            continue
        ok = True
        for a, b in itertools.combinations(bits, 2):
            if not any(m & ~sub == 0 for m in cover.get((a, b), ())):
                ok = False
                break
        if ok:
            out.append(tuple(bits))
    if full not in out:
        out.append(full)
    out.sort(key=lambda s: (len(s), s))
    return out


def _kkt_maximum(form: PolynomialForm) -> tuple[Fraction, tuple[Fraction, ...]]:
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
    """
    q = form.nvars
    Q = [[Fraction(0)] * q for _ in range(q)]
    for coeff, expo in form.terms:
        # a factor the term lacks is 1^T z, which sums over every index
        vs = [i for i, k in enumerate(expo) for _ in range(k)]
        half = coeff / 2
        for i in vs[:1] or range(q):
            for j in vs[1:2] or range(q):
                Q[i][j] += half
                Q[j][i] += half
    best = None
    for support in _candidate_supports(form):
        solved = _solve_kkt([[Q[i][j] for j in support] for i in support])
        if solved is None:
            continue
        z, mu = solved
        if min(z) <= 0:
            continue
        if best is None or mu > best[0] or (mu == best[0] and support < best[1]):
            best = (mu, support, z)
    mu, support, z = best
    point = [Fraction(0)] * q
    for i, w in zip(support, z):
        point[i] = w
    return mu, tuple(point)


def _solve_kkt(Q: list[list[Fraction]]):
    """Solve [Q -1; 1^T 0] [z; mu] = [0; 1] exactly; None if it is singular."""
    k = len(Q)
    size = k + 1
    rows = [row + [Fraction(-1), Fraction(0)] for row in Q]
    rows.append([Fraction(1)] * k + [Fraction(0), Fraction(1)])
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [v / head for v in rows[col]]
        for r in range(size):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[r][size] for r in range(k)], rows[k][size]


def _support_value_closed(form: PolynomialForm, var: int) -> float:
    total = Fraction(0)
    for coeff, expo in form.terms:
        if all(k == 0 or i == var for i, k in enumerate(expo)):
            total += coeff
    return float(total)


def _starts(dim: int, cfg: OptimizerConfig, support_key: int):
    yield np.full(dim, 1.0 / dim)
    for r in range(cfg.restarts):
        seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(support_key, r))
        rng = np.random.default_rng(seq)
        yield rng.dirichlet(np.ones(dim))


def maximize(obj, config: OptimizerConfig | None = None) -> LagrangianResult:
    """Global maximum of the form over the simplex.

    Collapses equivalent vertices first (hypergraphs and simple patterns), so
    most structured inputs reduce to very few free variables.  A form of
    degree <= 2 is solved exactly (``_kkt_maximum``) and ignores the restarts,
    iterations and seed of the config.  Otherwise each support runs the
    ascent; symmetric inputs with a single class resolve by the closed
    single-variable path.
    """
    cfg = config or OptimizerConfig()
    form = polynomial_form(obj)
    if not form.terms:
        raise InvalidArgumentError("cannot maximize a form with no terms")

    graph = None
    if isinstance(obj, Hypergraph):
        graph = obj
    elif isinstance(obj, Pattern) and obj.is_simple():
        graph = obj.to_hypergraph()
    if graph is not None and graph.n == form.nvars:
        classes = equivalence_classes(graph)
    else:
        classes = tuple((i,) for i in range(form.nvars))
    qform = form.quotient(classes)
    if all(sum(expo) <= 2 for _, expo in qform.terms):
        return _exact_result(form, classes, qform, cfg)

    supports = _candidate_supports(qform)
    tasks = []
    for s_idx, support in enumerate(supports):
        if len(support) == 1:
            tasks.append((support, None))
        else:
            sub = qform.restrict(support)
            tasks.append((support, _NumericForm(sub)))

    converged_runs = []  # one flag per ascent, over every support

    def run(task):
        support, num = task
        if num is None:
            value = _support_value_closed(qform, support[0])
            z = np.zeros(qform.nvars)
            z[support[0]] = 1.0
            return value, z, support, True
        key = 0
        for i in support:
            key |= 1 << i
        best = None
        any_converged = False
        for x0 in _starts(len(support), cfg, key):
            x, fx, conv = _ascend(num, x0, cfg)
            converged_runs.append(conv)
            any_converged = any_converged or conv
            if best is None or fx > best[1]:
                best = (x, fx)
        z = np.zeros(qform.nvars)
        for i, v in zip(support, best[0]):
            z[i] = v
        return best[1], z, support, any_converged

    outcomes = [run(t) for t in tasks]

    outcomes.sort(key=lambda o: (-o[0], o[2]))
    value_q, z, support_q, converged = outcomes[0]

    # expand the quotient point back to the original variables
    x_full = np.zeros(form.nvars)
    for c, members in enumerate(classes):
        if z[c] > 0:
            share = z[c] / len(members)
            for v in members:
                x_full[v] = share
    x_full = _project_simplex(x_full)

    value = _NumericForm(form).value(x_full)
    residual = stationarity_residual(form, tuple(float(w) for w in x_full))
    maximizer = SimplexPoint(tuple(float(w) for w in x_full))
    support = maximizer.support

    if not converged or residual >= STATIONARITY_TOL:
        partial = LagrangianResult(
            value=value,
            maximizer=maximizer,
            support=support,
            certified_lower_bound=None,
            certificate_point=None,
            stationarity_residual=residual,
            value_exact=None,
            method="ascent",
        )
        raise OptimizerFailureError(
            f"no run reached stationarity {STATIONARITY_TOL} "
            f"(residual {residual:.3e}) "
            f"({converged_runs.count(False)} of {len(converged_runs)} "
            f"ascents stalled)",
            best_so_far=partial,
        )

    certified = None
    cert_point = None
    if cfg.rational_certificate:
        cert_point = _rationalize(maximizer)
        certified = evaluate(form, cert_point)
        if float(certified) > value + CERTIFICATE_SLACK:
            raise OptimizerFailureError(
                "certificate exceeded the numeric value beyond slack",
                best_so_far=None,
            )

    return LagrangianResult(
        value=value,
        maximizer=maximizer,
        support=support,
        certified_lower_bound=certified,
        certificate_point=cert_point,
        stationarity_residual=residual,
        value_exact=None,
        method="ascent",
    )


def _exact_result(form, classes, qform, cfg) -> LagrangianResult:
    """The exact KKT maximum of a degree <= 2 quotient, expanded back through
    the classes with x_v = z_c / |c|."""
    value, z = _kkt_maximum(qform)
    x = [Fraction(0)] * form.nvars
    for c, members in enumerate(classes):
        for v in members:
            x[v] = z[c] / len(members)
    point = SimplexPoint(tuple(x))
    maximizer = SimplexPoint(tuple(float(w) for w in x))
    certified = None
    cert_point = None
    if cfg.rational_certificate:
        cert_point = point
        certified = evaluate(form, point)
        if certified != value:
            raise TuranLabError(
                f"the form is {certified} at its KKT point, not the value {value}"
            )
    return LagrangianResult(
        value=float(value),
        maximizer=maximizer,
        support=point.support,
        certified_lower_bound=certified,
        certificate_point=cert_point,
        stationarity_residual=stationarity_residual(form, x),
        value_exact=value,
        method="exact_kkt",
    )


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
        point = SimplexPoint(tuple(point))
    if not point.is_rational:
        raise InvalidArgumentError("certification needs exact rational weights")
    value = evaluate(obj, point)
    return Fraction(value)
