"""The four benchmark workloads: inputs, library operations, CLI calls, checks.

Every operation calls the public ``turanlab`` API through module attributes
(``tl.maximize``, ``ser.dumps_canonical``, ...) at call time, so the traced
run can rebind those names.  Checks compare each answer with an independent
reference from ``reference.py`` and run after the timed region.

Why each workload exists, and which layer it stresses, is in README.md.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import turanlab as tl
import turanlab.lagrangian as lag
import turanlab.serialize as ser

import oracles  # tests/oracles.py; run.py puts tests/ on sys.path
import reference as ref

F = Fraction

# Float answers must lie within this distance of their reference, as in the
# acceptance tests' oracle comparisons.
TOL = 1e-6

# Explicit optimizer settings for the Lagrangian workloads.  restarts=2 is
# the smallest value at which the known OptimizerFailureError of the seed
# commit still shows (KNOWN_FAILURE below).
OPT = tl.OptimizerConfig(restarts=2, seed=0)
# `certify` on the command line has no --restarts flag; its default is 32.
CERTIFY_OPT = tl.OptimizerConfig(restarts=32, seed=0)

# Fixed random draws use this generator seed, not --seed: at the seed commit
# one maximize call costs 0.003 s to 12 s depending on the graph and even on
# its vertex labels, so per-seed draws would spread solve_s far past any
# usable bound.  --seed draws the parts whose cost does not depend on it.
FIXED_DRAW_SEED = 1403

# A {1,2}-graph on which maximize(restarts=2) raises OptimizerFailureError,
# and one on which it returns a 21-digit certified bound instead of the exact
# value.  Both stay in lambda12 so that the fix shows in failed and
# exact_share.
KNOWN_FAILURE = tl.Hypergraph(4, [(1,), (3,), (0, 1), (0, 3), (2, 3)])
KNOWN_INEXACT = tl.Hypergraph(
    4, [(1,), (2,), (3,), (0, 2), (0, 3), (1, 3), (2, 3)]
)

FANO = tl.Hypergraph(
    7,
    [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)],
)
P3 = tl.Hypergraph(3, [(0, 1), (1, 2)])
AMBIENT_12 = tl.EdgeTypeSet((1, 2))


@dataclass(frozen=True)
class Check:
    ok: bool
    exact: bool | None  # None: the answer has no exact reference
    detail: str = ""


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Check]
    exact_ref: bool = False  # counts in the base of exact_share
    # JSON payload the CLI would print for this result; serialized inside
    # the timed operation, as the CLI does
    payload: Callable[[object], dict] | None = None


@dataclass(frozen=True)
class CliCall:
    args: tuple[str, ...]  # after `python -m turanlab`; args[0] is the subcommand
    stdin: str
    op: str  # the operation whose payload is the expected stdout


@dataclass
class Workload:
    ops: list[Op]
    cli: list[CliCall]
    # Least rounds per untraced run, so that every time is a median over at
    # least two passes, and runs of the CLI calls per round.
    rounds: int = 2
    cli_repeats: int = 2


def _value_of(reference):
    """A reference is a value, or a cached function computing it on first
    use, outside the timed region."""
    return reference() if callable(reference) else reference


# ---------------------------------------------------------------------------
# checks


def _check_lagrangian(reference, exact: bool):
    """Float value within TOL; a certified bound never above the reference."""

    def check(result) -> Check:
        expected = _value_of(reference)
        no = False if exact else None
        if abs(result.value - float(expected)) > TOL:
            return Check(False, no, f"value {result.value!r} vs reference {expected}")
        bound = result.certified_lower_bound
        if bound is None:
            return Check(True, no)
        above = bound > expected if exact else float(bound) > expected + TOL
        if above:
            return Check(False, no, f"certified bound {bound} exceeds {expected}")
        if float(expected) - float(bound) > TOL:
            return Check(False, no, f"certified bound {bound} too far below {expected}")
        return Check(True, bound == expected if exact else None)

    return check


def _check_equal(reference):
    def check(result) -> Check:
        expected = _value_of(reference)
        if result != expected:
            return Check(False, False, f"{result!r} != {expected!r}")
        return Check(True, True)

    return check


def _check_certificate(alpha):
    """A strong certificate for the chain family: the chain's Lagrangian
    9/8 exceeds alpha, so the gap is 9/8 - alpha."""

    def check(cert) -> Check:
        gap = F(9, 8) - alpha
        ok = cert.kind == "strong_jump" and cert.gap == gap
        return Check(ok, ok, f"{cert.kind} with gap {cert.gap}, expected {gap}")

    return check


def _check_pi(family, n, reference):
    induced = family.mode == "induced"

    def check(record) -> Check:
        expected = _value_of(reference)
        if record.pi_n != expected or not record.exhaustive:
            return Check(False, False,
                         f"pi_{n} = {record.pi_n} (exhaustive={record.exhaustive})"
                         f" vs {expected}")
        for g in record.extremal:
            if oracles.brute_lubell(g) != expected:
                return Check(False, False, f"extremal graph {g.edges} misscored")
            if any(oracles.brute_contains(g, m, induced) for m in family.members):
                return Check(False, False, f"extremal graph {g.edges} not free")
        return Check(True, True)

    return check


def _check_sigma(reference):
    def check(report) -> Check:
        expected = _value_of(reference)
        if report.value > expected:
            return Check(False, False, f"sigma {report.value} above {expected}")
        if report.exhaustive and report.value != expected:
            return Check(False, False, f"sigma {report.value} vs {expected}")
        return Check(True, report.exhaustive and report.value == expected)

    return check


# ---------------------------------------------------------------------------
# input helpers


def _draw_graph(rng, sizes, n_lo, n_hi, p=0.5):
    """A random graph with edges of the given sizes, each kept with prob. p."""
    while True:
        n = rng.randint(n_lo, n_hi)
        pool = [e for r in sizes for e in itertools.combinations(range(n), r)]
        edges = [e for e in pool if rng.random() < p]
        if edges:
            return tl.Hypergraph(n, edges)


def _draw_point(rng, n):
    """A random exact simplex point; some coordinates may be 0."""
    while True:
        weights = [rng.randint(0, 6) for _ in range(n)]
        total = sum(weights)
        if total:
            return tuple(F(w, total) for w in weights)


def _relabel(rng, graph):
    perm = list(range(graph.n))
    rng.shuffle(perm)
    return tl.Hypergraph(graph.n, [tuple(perm[v] for v in e) for e in graph.edges])


def _lagrangian_op(name, graph, reference, exact=True, config=OPT):
    return Op(
        name,
        lambda: tl.maximize(graph, config),
        _check_lagrangian(reference, exact),
        exact_ref=exact,
        payload=ser.result_to_obj,
    )


def _point_op(name, graph, point):
    """Exact value and stationarity residual of the form at a point."""

    def call():
        return (
            lag.evaluate(graph, point),
            lag.stationarity_residual(graph, point),
        )

    def check(result) -> Check:
        value, residual = result
        if value != oracles.poly_value_exact(graph, point):
            return Check(False, False, f"evaluate gave {value}")
        expected = float(ref.stationarity_exact(graph, point))
        if abs(residual - expected) > 1e-9 * max(1.0, expected):
            return Check(False, False, f"residual {residual} vs {expected}")
        return Check(True, True)

    return Op(name, call, check, exact_ref=True)


def _graph_stdin(graph) -> str:
    return ser.dumps_canonical(ser.graph_to_obj(graph))


# ---------------------------------------------------------------------------
# workloads


def lambda12(seed: int) -> Workload:
    """maximize on {1,2}-graphs, certificates and the classify12 grid."""
    rng = random.Random(seed)
    ops = [_lagrangian_op("maximize chain", tl.chain_graph(), F(9, 8))]
    for t in range(2, 7):
        ops.append(_lagrangian_op(f"maximize pair_clique({t})",
                                  tl.complete(t, (2,)), F(t - 1, t)))
        ops.append(_lagrangian_op(f"maximize mixed_clique({t})",
                                  tl.complete(t, (1, 2)), 2 - F(1, t)))
    for t in range(3, 7):
        ops.append(_lagrangian_op(f"maximize marked_clique({t})",
                                  tl.marked_clique(t), F(5, 4) - F(1, 4 * t)))

    # blow-ups keep the Lagrangian; class sizes >= 2 keep the twin quotient
    # of every draw the same shape, so the cost does not depend on --seed
    bases = [("chain", tl.chain_graph(), F(9, 8)),
             ("marked_clique(3)", tl.marked_clique(3), F(7, 6))]
    for label, base, value in bases:
        for kind, sizes in (("fixed", (2,) * base.n),
                            ("seeded", tuple(rng.randint(2, 3) for _ in range(base.n)))):
            ops.append(Op(
                f"maximize blow_up({label}, {kind} {sizes})",
                lambda base=base, sizes=sizes: tl.maximize(tl.blow_up(base, sizes), OPT),
                _check_lagrangian(value, True),
                exact_ref=True,
            ))

    for label, graph in (("known_failure", KNOWN_FAILURE),
                         ("known_inexact", KNOWN_INEXACT)):
        exact_value = functools.cache(lambda g=graph: ref.lagrangian_12_exact(g.n, g.edges))
        ops.append(_lagrangian_op(f"maximize {label}", graph, exact_value))

    chain_family = tl.ForbiddenFamily(AMBIENT_12, (tl.chain_graph(),))
    alphas = [F(11, 10)]
    while len(alphas) < 4:
        q = rng.randint(9, 60)
        alpha = 1 + F(rng.randint(1, (q - 1) // 8), q)  # strong: inside (1, 9/8)
        if alpha not in alphas:
            alphas.append(alpha)
    for alpha in alphas:
        ops.append(Op(
            f"build_certificate {alpha} strict",
            lambda alpha=alpha: tl.build_certificate(
                alpha, chain_family, strict=True, config=CERTIFY_OPT),
            _check_certificate(alpha),
            exact_ref=True,
            payload=ser.certificate_to_obj,
        ))

    grid = [F(i, 5000) for i in range(10001)]
    grid += [F(rng.randint(0, 2 * q), q) for q in (rng.randint(1, 1000) for _ in range(200))]

    def classify_grid():
        return [tl.classify12(a).verdict for a in grid]

    def check_grid(verdicts) -> Check:
        weak = oracles.weak_jump_values(5000)
        for a, verdict in zip(grid, verdicts):
            if verdict != ("weak_jump" if a in weak else "strong_jump"):
                return Check(False, None, f"classify12({a}) = {verdict}")
        return Check(True, None)

    ops.append(Op("classify12 grid", classify_grid, check_grid))

    def witness_call():
        alpha = F(9, 8)
        return tl.classify12(alpha), tl.weak_jump_witness(alpha)

    def witness_payload(result):
        verdict, witness = result
        obj = ser.classify_to_obj(verdict)
        obj["witness"] = None if witness is None else ser.weak_witness_to_obj(witness)
        return obj

    def witness_check(result) -> Check:
        verdict, witness = result
        if verdict.verdict != "weak_jump" or witness is None:
            return Check(False, False, "9/8 is a weak jump with a witness")
        value = oracles.poly_value_exact(witness.graph, witness.point.weights)
        return Check(value == F(9, 8), value == F(9, 8), f"witness value {value}")

    ops.append(Op("classify12 9/8 witness", witness_call, witness_check,
                  exact_ref=True, payload=witness_payload))

    randoms = [_draw_graph(rng, (1, 2), 3, 6) for _ in range(8)]
    for i, g in enumerate(randoms):
        ops.append(_point_op(f"evaluate random12[{i}]", g, _draw_point(rng, g.n)))
    lubell_graph = randoms[0]
    ops.append(Op(
        "lubell random12[0]",
        lambda: tl.lubell(lubell_graph),
        _check_equal(functools.cache(lambda: oracles.brute_lubell(lubell_graph))),
        exact_ref=True,
        payload=lambda value: {
            "n": lubell_graph.n,
            "edge_count": len(lubell_graph.edges),
            "value": ser.format_fraction(value),
        },
    ))

    cli = [
        CliCall(("lagrangian", "-", "--restarts", "2", "--seed", "0",
                               "--certify"),
                _graph_stdin(tl.chain_graph()), "maximize chain"),
        CliCall(("certify", "11/10", "-", "--strict"),
                ser.dumps_canonical(ser.family_to_obj(chain_family)),
                "build_certificate 11/10 strict"),
        CliCall(("classify12", "9/8", "--witness"), "",
                "classify12 9/8 witness"),
        CliCall(("lubell", "-"), _graph_stdin(lubell_graph),
                "lubell random12[0]"),
    ]
    return Workload(ops, cli)


def lambda3(seed: int) -> Workload:
    """maximize on forms with 3-edges: the float-ascent path."""
    rng = random.Random(seed)
    k4 = tl.complete(4, (3,))
    k4_minus = tl.Hypergraph(4, k4.edges[:3])
    forms = [("K4(3)", k4, F(3, 8)), ("K4(3)-", k4_minus, F(8, 27)),
             ("fano", FANO, F(2, 9))]
    ops = [_lagrangian_op(f"maximize {label}", g, value) for label, g, value in forms]

    fixed = random.Random(FIXED_DRAW_SEED)
    drawn = [_draw_graph(fixed, sizes, 4, 4) for sizes in ((3,), (2, 3))]
    for i, g in enumerate(drawn):
        grid_value = functools.cache(lambda g=g: oracles.grid_lagrangian(g))
        ops.append(_lagrangian_op(f"maximize random3[{i}]", g, grid_value, exact=False))

    for label, g in [(label, g) for label, g, _ in forms] + [
        (f"random3[{i}]", g) for i, g in enumerate(drawn)
    ]:
        ops.append(_point_op(f"evaluate {label}", g, _draw_point(rng, g.n)))

    cli = [CliCall(("lagrangian", "-", "--restarts", "2", "--seed", "0",
                                  "--certify"),
                   _graph_stdin(k4_minus), "maximize K4(3)-")]
    return Workload(ops, cli)


def pi_small_n(seed: int) -> Workload:
    """Exhaustive pi_n: canonical forms, containment and the frontier.

    The seed relabels every member's vertices; no answer may change.
    """
    rng = random.Random(seed)

    def family(sizes, members, mode="subgraph"):
        relabeled = tuple(_relabel(rng, m) for m in members)
        return tl.ForbiddenFamily(tl.EdgeTypeSet(sizes), relabeled, mode)

    triangle_free = family((2,), [tl.complete(3, (2,))])
    k4_free = family((2,), [tl.complete(4, (2,))])
    mixed_pair = family((1, 2), [tl.complete(2, (1, 2))])
    marked_pair = family((1, 2), [tl.marked_clique(3), tl.complete(2, (1, 2))])
    k43_free = family((3,), [tl.complete(4, (3,))])
    induced_p3 = family((2,), [P3], mode="induced")

    cases = [
        ("triangle_free", triangle_free, 7, ref.turan_density(7, 2)),
        ("k4_free", k4_free, 6, ref.turan_density(6, 3)),
        ("mixed_pair", mixed_pair, 6, ref.mixed_pair_pi(6)),
        ("marked_pair", marked_pair, 5, functools.cache(lambda: ref.marked_pair_pi(5))),
        ("k4(3)_free", k43_free, 5,
         functools.cache(lambda: oracles.brute_pi_n(k43_free.members, (3,), 5))),
        # the complete graph has no induced P3 and density 1, the maximum
        ("induced_p3", induced_p3, 6, F(1)),
    ]
    ops = [
        Op(f"pi_n {label} n={n}",
           lambda fam=fam, n=n: tl.pi_n(fam, n),
           _check_pi(fam, n, value),
           exact_ref=True)
        for label, fam, n, value in cases
    ]

    def check_sequence(bound) -> Check:
        got = [(r.n, r.pi_n, r.exhaustive) for r in bound.records]
        want = [(n, ref.turan_density(n, 2), True) for n in range(2, 7)]
        return Check(got == want, got == want, f"records {got}")

    ops.append(Op("density_sequence triangle_free n_max=6",
                  lambda: tl.density_sequence(triangle_free, 6),
                  check_sequence, exact_ref=True, payload=ser.bound_to_obj))
    cli = [CliCall(("turan", "-", "--n-max", "6"),
                   ser.dumps_canonical(ser.family_to_obj(triangle_free)),
                   "density_sequence triangle_free n_max=6")]
    return Workload(ops, cli)


def sigma_seq(seed: int) -> Workload:
    """sigma_t over generated sequences.  No part of it is random, so the
    seed changes nothing."""
    del seed
    turan2 = tl.SequenceGenerator.turan_generator(2, n_start=4, n_step=2)
    turan3 = tl.SequenceGenerator.turan_generator(3, n_start=3, n_step=3)
    marks = tl.SequenceGenerator.blow_up_generator(
        tl.Hypergraph(1, [(0,)]), (1,), n_start=4, n_step=2)
    union = tl.SequenceGenerator.union_generator(marks, turan2)
    chain = tl.SequenceGenerator.blow_up_generator(
        tl.chain_graph(), (F(3, 4), F(1, 4)), n_start=4, n_step=4)

    cases = [(f"turan(2) t={t}", turan2, t, ref.turan_density(t, 2)) for t in (4, 5, 6)]
    # members 13 and up of turan(3) exceed the exhaustive cap at t = 6
    cases += [(f"turan(3) t={t}", turan3, t, ref.turan_density(t, 3)) for t in (5, 6)]
    # every vertex of the marks sequence carries a 1-edge, which adds 1
    cases += [(f"marks+turan(2) t={t}", union, t, 1 + ref.turan_density(t, 2))
              for t in (4, 5, 6)]
    cases += [("chain(3/4,1/4) t=4", chain, 4, ref.chain_blowup_sigma(4))]
    ops = [
        Op(f"sigma_t {label} members 0..13",
           lambda gen=gen, t=t: tl.sigma_t(gen, t, i_range=(0, 13)),
           _check_sigma(value),
           exact_ref=True,
           payload=ser.report_to_obj)
        for label, gen, t, value in cases
    ]

    def check_trend(trend) -> Check:
        want_sizes = tuple(3 + 3 * i for i in range(14))
        want = tuple(ref.turan_density(n, 3) for n in want_sizes)
        ok = trend.sizes == want_sizes and trend.values == want
        return Check(ok, ok, f"sizes {trend.sizes}")

    ops.append(Op("density_estimate turan(3) i_max=13",
                  lambda: tl.density_estimate(turan3, 13),
                  check_trend, exact_ref=True))
    # t = 4, whose search is short: a child that spends 0.5 s in sigma_t
    # (t = 6) varied by about 13% from one child to the next even in
    # reference seconds, which scale children by process start-up.  The
    # search itself is timed in process.
    cli = [CliCall(("sigma", "-", "--t", "4", "--i-to", "13"),
                   ser.dumps_canonical(ser.genspec_to_obj(turan2)),
                   "sigma_t turan(2) t=4 members 0..13")]
    # The sampled sigma_t path sorts large numpy arrays and slows less than
    # refclock.calibrate() when the machine slows, so it reads up to 20%
    # apart between fast and slow moments even in reference seconds.  A
    # third pass keeps the medians steadier.
    return Workload(ops, cli, rounds=3)


WORKLOADS = {
    "lambda12": lambda12,
    "lambda3": lambda3,
    "pi_small_n": pi_small_n,
    "sigma_seq": sigma_seq,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
