import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import turanlab.lagrangian as lagrangian
from turanlab import serialize as ser
from strategies import hypergraphs, patterns
from turanlab.errors import (
    InvalidArgumentError,
    InvalidHypergraphError,
    OptimizerFailureError,
    TuranLabError,
)
from turanlab.hypercore import (
    Hypergraph,
    Pattern,
    SimplexPoint,
    blow_up,
    chain_graph,
    complete,
    empty_graph,
    marked_clique,
)
from turanlab.lagrangian import (
    OptimizerConfig,
    PolynomialForm,
    certify_at,
    equivalence_classes,
    evaluate,
    gradient,
    maximize,
    polynomial_form,
)

F = Fraction
FAST = OptimizerConfig(restarts=8, seed=0)
K4_MINUS = Hypergraph(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
# perfbench's random3[1]: 1 of its 15 ascents at restarts=2 stalls at a point
# it can no longer move
RANDOM3_1 = Hypergraph(4, [(0, 1), (1, 2), (0, 2, 3), (1, 2, 3)])
# sha256 of the outcomes of test_output_is_pinned, one canonical JSON line each
OUTPUT_DIGEST = "a28e4c283f4922dff04954e340558e219dd1920217f7cd476d86c5ccd170837a"
# sha256 of test_arithmetic_is_pinned's reprs, one line per form and point
ARITHMETIC_DIGEST = "7755788e1095949dd2645dcc569c5862ca2d52af5ea0c8d9c6d275ac3320d34b"


def pinned_inputs():
    """80 seeded random graphs on 2-5 vertices, then eight stock inputs."""
    rng = random.Random(0)
    size_sets = ((1, 2), (2,), (2, 3), (3,), (1, 3), (1, 2, 3))
    out = []
    while len(out) < 80:
        n = rng.randint(2, 5)
        sizes = rng.choice(size_sets)
        edges = [
            e for r in sizes for e in itertools.combinations(range(n), r)
            if rng.random() < 0.4
        ]
        if edges:
            out.append(Hypergraph(n, edges))
    return out + [
        chain_graph(), complete(4, (3,)), K4_MINUS,
        Pattern(2, ((1, 1), (2, 0))), Pattern(2, ((2, 1),)),
        Pattern(3, ((1, 1, 1), (0, 2, 0))),
        marked_clique(5), blow_up(chain_graph(), (2, 3)),
    ]


def arithmetic_corpus():
    """Seeded (form, point) pairs: graphs with 1- to 4-edges, patterns with
    multiplicities and twin quotients with non-integer coefficients, each at
    exact, float and raw-tuple points, with and without zero coordinates."""
    rng = random.Random(20)
    objs = []
    while len(objs) < 30:
        n = rng.randint(2, 5)
        edges = [
            e for r in range(1, 5) for e in itertools.combinations(range(n), r)
            if rng.random() < 0.3
        ]
        if edges:
            objs.append(Hypergraph(n, edges))
    while len(objs) < 50:
        n = rng.randint(1, 4)
        rows = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(3)}
        rows = [r for r in rows if 0 < sum(r) <= 6]
        if rows:
            objs.append(Pattern(n, rows))
    for g in (
        complete(4, (2,)), complete(5, (3,)), complete(6, (2, 4)),
        marked_clique(5), blow_up(K4_MINUS, (2, 1, 3, 1)),
        blow_up(chain_graph(), (3, 2)),
    ):
        objs.append(polynomial_form(g).quotient(equivalence_classes(g)))
    out = []
    for obj in objs:
        q = polynomial_form(obj).nvars
        ints = [0] * q
        while not any(ints):
            ints = [rng.choice((0, 0, 1, 2, 5)) for _ in range(q)]
        total = sum(ints)
        out.append((obj, SimplexPoint.uniform(q)))
        out.append((obj, SimplexPoint(tuple(F(k, total) for k in ints))))
        out.append((obj, SimplexPoint(tuple(k / total for k in ints))))
        out.append((obj, tuple(ints)))
        out.append((obj, tuple(F(k, 3) if i % 2 else k / 7 for i, k in enumerate(ints))))
        out.append((obj, tuple(int(i == q - 1) for i in range(q))))
    return out


@st.composite
def forms_at_points(draw):
    """A form with a 3-edge or a repeated variable, at a float simplex point
    with some zero coordinates."""
    obj = draw(
        st.one_of(
            hypergraphs(max_n=6, min_edges=1).filter(
                lambda g: any(len(e) == 3 for e in g.edges)
            ),
            patterns(max_n=4, max_size=4).filter(
                lambda p: any(k > 1 for row in p.edges for k in row)
            ),
        )
    )
    form = polynomial_form(obj)
    cuts = draw(
        st.lists(
            st.one_of(st.just(0), st.integers(min_value=1, max_value=24)),
            min_size=form.nvars, max_size=form.nvars,
        ).filter(any)
    )
    return form, tuple(c / sum(cuts) for c in cuts)


class TestPolynomialForm:
    def test_hypergraph_coefficients_are_factorials(self):
        form = polynomial_form(chain_graph())
        by_total = {sum(expo): coeff for coeff, expo in form.terms}
        assert by_total == {1: F(1), 2: F(2)}

    def test_pattern_coefficients_are_multinomials(self):
        # row (2, 1): coefficient 3!/2! = 3; row (2, 0): 2!/2! = 1
        form = polynomial_form(Pattern(2, ((2, 1), (2, 0))))
        got = {expo: coeff for coeff, expo in form.terms}
        assert got == {(2, 1): F(3), (2, 0): F(1)}

    def test_merges_duplicate_terms(self):
        form = PolynomialForm(2, ((F(1), (1, 1)), (F(2), (1, 1))))
        assert form.terms == ((F(3), (1, 1)),)

    def test_refuses_non_integer_exponents(self):
        # int() would have read the exponent 1
        with pytest.raises(InvalidArgumentError, match="exponent .* not 1.5"):
            PolynomialForm(2, ((1, (1.5, 0)),))

    def test_refuses_negative_exponents(self):
        # x^-1 y is no polynomial: evaluate divided by zero at x = 0
        with pytest.raises(InvalidArgumentError,
                           match="^exponent must be >= 0, not -1$"):
            PolynomialForm(2, ((1, (-1, 1)),))

    def test_refuses_mismatched_exponents_and_zero_coefficients(self):
        with pytest.raises(InvalidArgumentError,
                           match="^exponent vector length mismatch$"):
            PolynomialForm(2, ((1, (1,)),))
        with pytest.raises(InvalidArgumentError,
                           match="^term coefficients must be positive$"):
            PolynomialForm(2, ((0, (1, 1)),))

    def test_quotient_refuses_classes_that_do_not_partition(self):
        form = polynomial_form(chain_graph())
        # too few, overlapping, overlapping and covering, empty, out of range
        for classes in (((0,),), ((0,), (0,)), ((0,), (0, 1)), ((0, 1), ()),
                        ((0,), (5,))):
            with pytest.raises(InvalidArgumentError,
                               match="^classes must partition the variables$"):
                form.quotient(classes)

    def test_refuses_what_is_no_form(self):
        with pytest.raises(InvalidArgumentError,
                           match="^cannot build a polynomial form from <class 'int'>$"):
            polynomial_form(3)

    def test_restrict_reindexes_to_support(self):
        form = polynomial_form(chain_graph()).restrict((0,))
        assert form.nvars == 1
        assert [expo for _, expo in form.terms] == [(1,)]

    def test_restrict_refuses_malformed_supports(self):
        form = polynomial_form(chain_graph())
        # out of range, repeated, decreasing, empty
        for support in ((0, 5), (0, 0), (1, 0), ()):
            with pytest.raises(InvalidArgumentError,
                               match="^support must be strictly increasing"):
                form.restrict(support)
        with pytest.raises(InvalidArgumentError,
                           match="^support entry must be an integer, not 0.0$"):
            form.restrict((0.0,))

    def test_refuses_a_graph_on_no_vertices(self):
        # the refusal that Pattern.from_hypergraph(graph) gives
        with pytest.raises(InvalidHypergraphError,
                           match="^pattern needs at least one vertex$"):
            PolynomialForm.from_hypergraph(Hypergraph(0, ()))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(hypergraphs(max_n=5), patterns(max_n=4, max_size=4)))
    def test_unchecked_forms_are_what_the_constructor_makes(self, obj):
        # _from_terms skips the checks; every form built through it must be
        # the one the checked constructor makes of its terms, types included
        if isinstance(obj, Hypergraph):
            form = PolynomialForm.from_hypergraph(obj)
            built = [form, form.quotient(equivalence_classes(obj))]
        else:
            form = PolynomialForm.from_pattern(obj)
            # maximize's classes for a pattern with multiplicities
            built = [form, form.quotient(tuple((i,) for i in range(obj.n)))]
        built += [form.restrict(s) for s in lagrangian._candidate_supports(form)]
        for f in built:
            checked = PolynomialForm(f.nvars, f.terms)
            assert f == checked
            assert repr(f) == repr(checked)


class TestEvaluate:
    def test_exact_rational(self):
        assert evaluate(chain_graph(), SimplexPoint((F(3, 4), F(1, 4)))) == F(9, 8)

    def test_float_point(self):
        v = evaluate(chain_graph(), SimplexPoint((0.75, 0.25)))
        assert isinstance(v, float)
        assert abs(v - 1.125) < 1e-12

    @given(hypergraphs(max_n=4))
    def test_matches_direct_formula(self, g):
        point = SimplexPoint.uniform(g.n)
        assert evaluate(g, point) == oracles.poly_value_exact(g, point.weights)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            evaluate(chain_graph(), SimplexPoint((F(1),)))

    def test_residual_refuses_a_point_with_empty_support(self):
        with pytest.raises(InvalidArgumentError, match="^point has empty support$"):
            lagrangian.stationarity_residual(chain_graph(), (0.0, 0.0))

    def test_bool_weights_are_not_exact(self):
        # a SimplexPoint refuses bools, and a raw bool tuple is read as floats
        with pytest.raises(InvalidArgumentError,
                           match="^simplex weights entry must be a number, not True$"):
            SimplexPoint((True, False))
        v = evaluate(chain_graph(), (True, False))
        assert isinstance(v, float) and v == 1.0


class TestGradient:
    def test_chain_exact(self):
        g = gradient(chain_graph(), SimplexPoint((F(1, 2), F(1, 2))))
        assert g == (F(2), F(1))

    @given(patterns(max_n=4, max_size=3))
    @settings(max_examples=30)
    def test_matches_central_differences(self, p):
        n = p.n
        x = [1.0 / n] * n
        grad = gradient(p, SimplexPoint(tuple(x)))
        form = polynomial_form(p)

        def raw(xs):
            total = 0.0
            for coeff, expo in form.terms:
                term = float(coeff)
                for v, k in enumerate(expo):
                    term *= xs[v] ** k
                total += term
            return total

        numeric = oracles.central_diff_gradient(raw, x)
        for a, b in zip(grad, numeric):
            assert abs(float(a) - b) < 1e-6

    @given(forms_at_points())
    def test_ascent_kernel_is_evaluate_and_gradient(self, form_point):
        # the ascent's value and partials are the public ones, to the last bit
        form, x = form_point
        terms = lagrangian._sparse(form, False)
        partials = lagrangian._partials(terms, form.nvars)
        total = lagrangian._total
        assert total(terms, list(x), 0.0) == evaluate(form, x)
        assert tuple(total(p, list(x), 0.0) for p in partials) == gradient(form, x)


class TestArithmeticPin:
    def test_corpus_has_non_integer_coefficients(self):
        forms = [polynomial_form(obj) for obj, _ in arithmetic_corpus()]
        assert any(c.denominator > 1 for f in forms for c, _ in f.terms)
        assert any(max(e) == 4 for f in forms for _, e in f.terms)

    def test_arithmetic_is_pinned(self):
        # every bit of every value, -0.0 against 0.0 included, and every
        # refusal, in both Fraction and float arithmetic
        digest = hashlib.sha256()
        fns = (evaluate, gradient, lagrangian.stationarity_residual, certify_at)
        for obj, point in arithmetic_corpus():
            line = []
            for fn in fns:
                try:
                    line.append(repr(fn(obj, point)))
                except TuranLabError as exc:
                    line.append(f"{type(exc).__name__}: {exc}")
            digest.update(" | ".join(line).encode() + b"\n")
        assert digest.hexdigest() == ARITHMETIC_DIGEST


class TestMaximize:
    # frozen: classical closed forms, certified exactly
    @pytest.mark.parametrize("t", range(2, 9))
    def test_complete_pair_graphs(self, t):
        result = maximize(complete(t, (2,)), FAST)
        expect = F(t - 1, t)
        assert abs(result.value - float(expect)) < 1e-8
        assert result.certified_lower_bound == expect
        assert result.value_exact == expect

    def test_chain_certificate(self):
        result = maximize(chain_graph(), FAST)
        assert result.certified_lower_bound == F(9, 8)
        assert result.certificate_point.weights == (F(3, 4), F(1, 4))

    @pytest.mark.parametrize("t", range(2, 7))
    def test_complete_mixed_graphs(self, t):
        result = maximize(complete(t, (1, 2)), FAST)
        assert abs(result.value - float(2 - F(1, t))) < 1e-8

    def test_marked_clique_value(self):
        result = maximize(marked_clique(3), FAST)
        assert result.certified_lower_bound == F(7, 6)

    def test_empty_form_is_rejected(self):
        with pytest.raises(InvalidArgumentError):
            maximize(empty_graph(3), FAST)

    @pytest.mark.parametrize(
        "graph", [chain_graph(), marked_clique(4), K4_MINUS],
        ids=["chain", "marked_clique4", "k4_minus"],
    )
    def test_simple_pattern_is_its_hypergraph(self, graph):
        # a simple pattern is maximized as its hypergraph, twin classes and
        # all: K4(3)- ascends on its 2 classes, not on 4 free variables
        got = ser.result_to_obj(maximize(Pattern.from_hypergraph(graph), FAST))
        want = ser.result_to_obj(maximize(graph, FAST))
        assert ser.dumps_canonical(got) == ser.dumps_canonical(want)

    @given(hypergraphs(max_n=4, sizes=(1, 2), min_edges=1))
    @settings(max_examples=15)
    def test_certificate_below_value(self, g):
        result = maximize(g, FAST)
        assert result.certified_lower_bound <= F(result.value) + F(1, 10**9)
        assert result.stationarity_residual < 1e-7

    @given(hypergraphs(max_n=3, sizes=(1, 2), min_edges=1))
    @settings(max_examples=15)
    def test_dominates_every_rational_point(self, g):
        result = maximize(g, FAST)
        point = SimplexPoint.uniform(g.n)
        assert F(result.value) + F(1, 10**7) >= certify_at(g, point)

    def test_grid_search_agreement(self):
        # the zooming grid oracle and the ascent agree on a non-symmetric form
        got = maximize(marked_clique(3), FAST).value
        ref = oracles.grid_lagrangian(marked_clique(3), steps=60)
        assert abs(got - ref) < 1e-6

    def test_seed_changes_are_harmless_on_easy_forms(self):
        # forms of degree <= 2 never reach the seeded ascent; K4(3)- does
        a = maximize(K4_MINUS, OptimizerConfig(restarts=1, seed=1))
        b = maximize(K4_MINUS, OptimizerConfig(restarts=1, seed=2))
        assert a.method == b.method == "ascent"
        assert abs(a.value - b.value) < 1e-9
        assert abs(a.value - 8 / 27) < 1e-9

    def test_failure_carries_partial_result(self):
        # one iteration cannot reach stationarity from the uniform start
        with pytest.raises(OptimizerFailureError) as info:
            maximize(K4_MINUS, OptimizerConfig(restarts=0, max_iters=1))
        # the quotient of K4(3)- has one support of two classes: one ascent
        assert str(info.value).endswith("(1 of 1 ascents stalled)")
        assert info.value.best_so_far is not None
        assert info.value.best_so_far.value > 0
        assert info.value.best_so_far.method == "ascent"
        assert info.value.best_so_far.value_exact is None

    def test_stalled_ascent_on_a_stationary_point_succeeds(self, monkeypatch):
        # all three ascents stall once no float step raises f, at a point
        # whose residual is below STATIONARITY_TOL: that is the maximum, not
        # a failure
        graph = Hypergraph(4, [(0, 2), (1, 2), (2, 3), (0, 1, 3)])
        converged = []
        ascend = lagrangian._ascend

        def recorded(*args):
            run = ascend(*args)
            converged.append(run[2])
            return run

        monkeypatch.setattr(lagrangian, "_ascend", recorded)
        result = maximize(graph, OptimizerConfig(restarts=2, seed=0))
        assert converged == [False] * 3
        assert result.method == "ascent"
        assert result.stationarity_residual < lagrangian.STATIONARITY_TOL
        assert abs(result.value - oracles.grid_lagrangian(graph)) < 1e-6

    def test_stalled_ascent_returns_early(self, monkeypatch):
        # a stalled ascent stops at its first repeated step; running its
        # stall on to max_iters would take about 10 000 gradients
        calls = []
        partials = lagrangian._partials

        class Counted(list):
            # one pass over the partials is one gradient evaluation
            def __iter__(self):
                calls.append(None)
                return super().__iter__()

        monkeypatch.setattr(
            lagrangian, "_partials", lambda *args: Counted(partials(*args))
        )
        result = maximize(RANDOM3_1, OptimizerConfig(restarts=2, seed=0))
        assert 0 < len(calls) < 2000
        assert result.certified_lower_bound == F(128, 243)

    def test_output_is_pinned(self):
        # every result, failure text and partial result, both exact and
        # ascent, at a full config and at one that fails most ascents
        digest = hashlib.sha256()
        configs = (
            OptimizerConfig(restarts=2, seed=0),
            OptimizerConfig(restarts=0, max_iters=1),
        )
        for cfg in configs:
            for obj in pinned_inputs():
                try:
                    out = ser.result_to_obj(maximize(obj, cfg))
                except OptimizerFailureError as exc:
                    best = exc.best_so_far
                    out = [str(exc), None if best is None else ser.result_to_obj(best)]
                digest.update(ser.dumps_canonical(out).encode() + b"\n")
        assert digest.hexdigest() == OUTPUT_DIGEST

    def test_pattern_with_multiplicities(self):
        # single row (2,): f = x^2, maximum 1 at x = 1
        result = maximize(Pattern(1, ((2,),)), FAST)
        assert abs(result.value - 1.0) < 1e-10
        # f = 2xy + x^2 = 2x - x^2 on the segment, increasing up to x = 1
        result = maximize(Pattern(2, ((1, 1), (2, 0))), FAST)
        assert abs(result.value - 1.0) < 1e-8
        assert result.stationarity_residual < 1e-7

    @given(hypergraphs(max_n=6, sizes=(1, 2), min_edges=1))
    def test_exact_on_12_graphs(self, g):
        result = maximize(g, FAST)
        assert result.method == "exact_kkt"
        assert result.value_exact == oracles.kkt_lagrangian_12(g)
        assert result.certified_lower_bound == result.value_exact
        assert result.value == float(result.value_exact)

    @pytest.mark.parametrize(
        "obj,expect",
        [
            # perfbench's KNOWN_FAILURE and KNOWN_INEXACT: float ascent with
            # restarts=2 did not converge on the first and returned a
            # 21-digit lower bound on the second
            (Hypergraph(4, [(1,), (3,), (0, 1), (0, 3), (2, 3)]), F(9, 8)),
            (Hypergraph(4, [(1,), (2,), (3,), (0, 2), (0, 3), (1, 3), (2, 3)]), F(3, 2)),
            # square terms: 2xy + x^2, and the quotient (3/4) z^2 of K4
            (Pattern(2, ((1, 1), (2, 0))), F(1)),
            (complete(4, (2,)), F(3, 4)),
            # a constant term: every point is a maximizer
            (PolynomialForm(2, ((F(3), (0, 0)),)), F(3)),
        ],
    )
    def test_exact_values(self, obj, expect):
        result = maximize(obj, FAST)
        assert result.method == "exact_kkt"
        assert result.value_exact == expect
        assert result.certified_lower_bound == expect
        assert certify_at(obj, result.certificate_point) == expect

    def test_quotient_of_k4_is_one_square_term(self):
        graph = complete(4, (2,))
        qform = polynomial_form(graph).quotient(equivalence_classes(graph))
        assert qform.terms == ((F(3, 4), (2,)),)

    @pytest.mark.parametrize(
        "obj",
        [chain_graph(), marked_clique(4), Pattern(2, ((1, 1), (2, 0))),
         Hypergraph(4, [(1,), (3,), (0, 1), (0, 3), (2, 3)])],
    )
    def test_degree_two_forms_never_ascend(self, obj, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("float ascent ran on a form of degree <= 2")

        monkeypatch.setattr(lagrangian, "_ascend", refuse)
        monkeypatch.setattr(lagrangian, "_rationalize", refuse)
        result = maximize(obj, OptimizerConfig(restarts=0, max_iters=1))
        assert result.method == "exact_kkt"


@st.composite
def small_forms(draw):
    """A form on 1-8 variables with 1-10 terms of degree 0-3, each a
    multiset of at most three variables, so constant terms, squares and
    cubes occur, with small positive rational coefficients."""
    q = draw(st.integers(min_value=1, max_value=8))
    expo = st.lists(st.integers(min_value=0, max_value=q - 1), max_size=3).map(
        lambda vs: tuple(vs.count(i) for i in range(q))
    )
    expos = draw(st.lists(expo, min_size=1, max_size=10, unique=True))
    coeffs = st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6)
    return PolynomialForm(q, tuple((draw(coeffs), e) for e in expos))


def twin_free_12_graphs(count, sizes, seed):
    """Seeded twin-free random {1, 2}-graphs: pair probability 1/2, each
    vertex marked with probability 1/5."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice(sizes)
        edges = [(v,) for v in range(n) if rng.random() < 0.2]
        edges += [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        graph = Hypergraph(n, edges)
        if len(equivalence_classes(graph)) == n:
            out.append(graph)
    return out


class TestExactSolver:
    @given(small_forms())
    # a constant term makes every singleton a candidate
    @example(PolynomialForm(3, ((F(1), (0, 0, 0)), (F(2), (1, 1, 0)))))
    @settings(max_examples=200)
    def test_candidate_supports_are_the_pair_covered_subsets(self, form):
        assert lagrangian._candidate_supports(form) == oracles.brute_candidate_supports(form)

    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda k: st.lists(st.lists(st.integers(min_value=-2, max_value=2),
                                    min_size=k, max_size=k),
                           min_size=k, max_size=k)))
    # singular: two equal rows of Q give two equal rows of the system
    @example([[1, 1], [1, 1]])
    @example([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    @settings(max_examples=300)
    def test_integer_solve_matches_fraction_elimination(self, Q):
        k = len(Q)
        rows = [[F(v) for v in row] + [F(-1), F(0)] for row in Q]
        rows.append([F(1)] * k + [F(0), F(1)])
        want = oracles._solve_linear(rows)
        got = lagrangian._solve_kkt(Q)
        if want is None:
            assert got is None
        else:
            nums, num_mu, det = got
            assert det > 0
            assert [F(n, det) for n in nums] + [F(num_mu, det)] == want

    @pytest.mark.parametrize("graph", twin_free_12_graphs(4, (9, 10), seed=33))
    def test_exact_on_twin_free_12_graphs(self, graph):
        form = polynomial_form(graph)
        # the clique walk prunes: most of the 2^n subsets are not tested
        assert len(lagrangian._candidate_supports(form)) < 2 ** graph.n // 4
        assert maximize(graph).value_exact == oracles.kkt_lagrangian_12(graph)


class TestCertifyAt:
    def test_exact_values(self):
        assert certify_at(chain_graph(), SimplexPoint((F(3, 4), F(1, 4)))) == F(9, 8)
        t = 5
        rest = tuple(F(1, 2 * t) for _ in range(t - 1))
        point = SimplexPoint((F(t + 1, 2 * t),) + rest)
        assert certify_at(marked_clique(t), point) == F(5, 4) - F(1, 4 * t)

    def test_needs_rational_point(self):
        with pytest.raises(InvalidArgumentError):
            certify_at(chain_graph(), SimplexPoint((0.75, 0.25)))


class TestEquivalenceClasses:
    def test_marked_clique_splits_marked_vertex(self):
        assert equivalence_classes(marked_clique(3)) == ((0,), (1, 2))

    def test_complete_graph_is_one_class(self):
        assert equivalence_classes(complete(4, (2,))) == ((0, 1, 2, 3),)

    def test_chain_has_singletons(self):
        assert equivalence_classes(chain_graph()) == ((0,), (1,))


class TestOptimizerConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            OptimizerConfig(restarts=-1)
        with pytest.raises(InvalidArgumentError):
            OptimizerConfig(max_iters=0)

    def test_certificate_is_not_optional(self):
        with pytest.raises(TypeError):
            OptimizerConfig(rational_certificate=False)
