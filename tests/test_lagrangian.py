import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import turanlab.lagrangian as lagrangian
from strategies import hypergraphs, patterns
from turanlab.errors import InvalidArgumentError, OptimizerFailureError
from turanlab.hypercore import (
    Hypergraph,
    Pattern,
    SimplexPoint,
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
# perfbench's random3[1]: 4 of its 15 ascents at restarts=2 stall at a point
# they can no longer move
RANDOM3_1 = Hypergraph(4, [(0, 1), (1, 2), (0, 2, 3), (1, 2, 3)])


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


def grad_by_variable(num, x):
    """_NumericForm.grad as a loop over the variables, in the same float
    operations and order: the reference its vectorized kernel must match."""
    g = np.zeros(num.nvars)
    for a in range(num.nvars):
        k = num.expo[:, a]
        active = k > 0
        if active.any():
            rest = np.delete(num.expo[active], a, axis=1)
            prod = np.prod(np.delete(x, a)[None, :] ** rest, axis=1)
            xa = x[a] ** (k[active] - 1.0)
            g[a] = float((num.coeffs[active] * k[active] * xa * prod).sum())
    return g


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

    def test_restrict_reindexes_to_support(self):
        form = polynomial_form(chain_graph()).restrict((0,))
        assert form.nvars == 1
        assert [expo for _, expo in form.terms] == [(1,)]


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
    def test_numeric_grad_matches_gradient(self, form_point):
        # the ascent's vectorized partials against the term-by-term loop
        form, x = form_point
        num = lagrangian._NumericForm(form)
        got = num.grad(np.array(x))
        for a, b in zip(got, gradient(form, x)):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)
        # same float operations in the same order: equal to the last bit
        assert got.tolist() == grad_by_variable(num, np.array(x)).tolist()


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

    def test_stalled_ascent_returns_early(self, monkeypatch):
        # a stalled ascent stops at its first repeated step; running its 4
        # stalls on to max_iters would take about 40 000 gradients
        calls = []
        grad = lagrangian._NumericForm.grad

        def counted(self, x):
            calls.append(None)
            return grad(self, x)

        monkeypatch.setattr(lagrangian._NumericForm, "grad", counted)
        result = maximize(RANDOM3_1, OptimizerConfig(restarts=2, seed=0))
        assert len(calls) < 2000
        assert result.certified_lower_bound == F(128, 243)

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
