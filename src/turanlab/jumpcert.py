"""Jump classification on [0, 2] for edge types {1, 2} and jump certificates.

Over the edge sizes {1, 2} every density value in [0, 2] is a jump; the weak
jumps (jumps that are not strong) are exactly

    0, 1/2, 2/3, ..., k/(k+1), ..., 1,
    9/8, 7/6, ..., 1 + k/(4(k+1)), ..., 5/4,
    3/2, 5/3, ..., (2k+1)/(k+1), ..., 2.

Membership is decided exactly by solving each closed form for an integer k.
A certificate that alpha is a (strong) jump consists of a finite family F
with density evidence pi(F) <= alpha (strictly below for strong) together
with a certified rational lower bound lambda(F) > alpha for every member.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CertificateError,
    InvalidArgumentError,
    OutOfRangeError,
)
from .hypercore import (
    EdgeTypeSet,
    Hypergraph,
    SimplexPoint,
    chain_graph,
    complete,
    empty_graph,
    is_isomorphic,
    marked_clique,
)
from .lagrangian import OptimizerConfig, certify_at, maximize
from .turansearch import ForbiddenFamily, pi_n

__all__ = [
    "ClassifyResult",
    "WeakJumpWitness",
    "LambdaWitness",
    "PiEvidence",
    "JumpCertificate",
    "classify12",
    "weak_jump_witness",
    "known_turan_density",
    "build_certificate",
]

_AMBIENT_12 = EdgeTypeSet((1, 2))


@dataclass(frozen=True)
class ClassifyResult:
    alpha: Fraction
    verdict: str  # "weak_jump" | "strong_jump"
    matched_form: str | None = None
    k: int | None = None
    interval: tuple[Fraction, Fraction] | None = None
    note: str | None = None


def _require_fraction(alpha) -> Fraction:
    if isinstance(alpha, float):
        raise InvalidArgumentError(
            "alpha must be an exact rational; convert floats explicitly"
        )
    try:
        return Fraction(alpha)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"cannot read {alpha!r} as a rational") from exc


def _integer_or_none(x: Fraction) -> int | None:
    return int(x) if x.denominator == 1 else None


def classify12(alpha) -> ClassifyResult:
    """Exact weak/strong verdict for a rational alpha in [0, 2]."""
    a = _require_fraction(alpha)
    if a < 0 or a > 2:
        raise OutOfRangeError(f"alpha = {a} lies outside [0, 2]")

    if a == 0:
        return ClassifyResult(
            a, "weak_jump", matched_form="k/(k+1)", k=0,
            note="left endpoint; realized by edgeless graphs",
        )
    if a == 1:
        return ClassifyResult(
            a, "weak_jump", matched_form="1",
            note="limit of k/(k+1); density of chain-free graphs",
        )
    if a == Fraction(5, 4):
        return ClassifyResult(
            a, "weak_jump", matched_form="5/4",
            note="limit of 1 + k/(4(k+1))",
        )
    if a == 2:
        return ClassifyResult(
            a, "weak_jump", matched_form="2",
            note="right endpoint; full Lubell range for two edge types",
        )

    if a < 1:
        k = _integer_or_none(a / (1 - a))
        if k is not None:
            return ClassifyResult(a, "weak_jump", matched_form="k/(k+1)", k=k)
        kf = int(a / (1 - a))
        lo = Fraction(kf, kf + 1)
        hi = Fraction(kf + 1, kf + 2)
    elif a < Fraction(5, 4):
        beta = a - 1
        k = _integer_or_none(4 * beta / (1 - 4 * beta))
        if k is not None and k >= 1:
            return ClassifyResult(a, "weak_jump", matched_form="1+k/(4(k+1))", k=k)
        kf = int(4 * beta / (1 - 4 * beta))
        lo = 1 + Fraction(kf, 4 * (kf + 1)) if kf >= 1 else Fraction(1)
        hi = 1 + Fraction(kf + 1, 4 * (kf + 2))
    else:
        k = _integer_or_none(1 / (2 - a) - 1)
        if k is not None and k >= 1:
            return ClassifyResult(a, "weak_jump", matched_form="(2k+1)/(k+1)", k=k)
        if a < Fraction(3, 2):
            lo, hi = Fraction(5, 4), Fraction(3, 2)
        else:
            kf = int(1 / (2 - a) - 1)
            lo = Fraction(2 * kf + 1, kf + 1)
            hi = Fraction(2 * kf + 3, kf + 2)

    return ClassifyResult(a, "strong_jump", interval=(lo, hi))


# ---------------------------------------------------------------------------
# witnesses for the weak jumps


@dataclass(frozen=True)
class WeakJumpWitness:
    alpha: Fraction
    kind: str  # "lambda_graph" | "pi_family"
    description: str
    graph: Hypergraph | None = None
    point: SimplexPoint | None = None
    family: ForbiddenFamily | None = None
    pi_value: Fraction | None = None


def weak_jump_witness(alpha) -> WeakJumpWitness | None:
    """Why alpha cannot be a strong jump: a graph with lambda = alpha or a
    family with density exactly alpha.  None for strong jumps."""
    a = _require_fraction(alpha)
    result = classify12(a)
    if result.verdict != "weak_jump":
        return None

    if a == 0:
        return WeakJumpWitness(
            a, "lambda_graph",
            "the edgeless graph has lambda = 0",
            graph=empty_graph(1), point=SimplexPoint((Fraction(1),)),
        )
    if a == 1:
        fam = ForbiddenFamily(_AMBIENT_12, (chain_graph(),))
        return WeakJumpWitness(
            a, "pi_family",
            "chain-free graphs have density exactly 1",
            family=fam, pi_value=Fraction(1),
        )
    if a == 2:
        fam = ForbiddenFamily(_AMBIENT_12, ())
        return WeakJumpWitness(
            a, "pi_family",
            "with nothing forbidden the complete graphs reach density 2",
            family=fam, pi_value=Fraction(2),
        )
    if a < 1:
        k = result.k
        t = k + 1
        return WeakJumpWitness(
            a, "lambda_graph",
            f"the complete pair graph on {t} vertices has lambda = {a}",
            graph=complete(t, (2,)), point=SimplexPoint.uniform(t),
        )
    if a == Fraction(9, 8):
        return WeakJumpWitness(
            a, "lambda_graph",
            "the chain has lambda = 9/8 at (3/4, 1/4)",
            graph=chain_graph(),
            point=SimplexPoint((Fraction(3, 4), Fraction(1, 4))),
        )
    if a < Fraction(5, 4):
        t = result.k + 2
        fam = ForbiddenFamily(
            _AMBIENT_12, (marked_clique(t), complete(2, (1, 2)))
        )
        return WeakJumpWitness(
            a, "pi_family",
            f"the marked-clique pair family with t = {t} has density {a}",
            family=fam, pi_value=a,
        )
    if a == Fraction(5, 4):
        fam = ForbiddenFamily(_AMBIENT_12, (complete(2, (1, 2)),))
        return WeakJumpWitness(
            a, "pi_family",
            "forbidding the two-vertex complete {1,2}-graph gives density 5/4",
            family=fam, pi_value=Fraction(5, 4),
        )
    t = result.k + 1
    return WeakJumpWitness(
        a, "lambda_graph",
        f"the complete {{1,2}}-graph on {t} vertices has lambda = {a}",
        graph=complete(t, (1, 2)), point=SimplexPoint.uniform(t),
    )


# ---------------------------------------------------------------------------
# known closed-form densities


def known_turan_density(family: ForbiddenFamily) -> tuple[Fraction, str] | None:
    """Closed-form density for a recognized family, or None.

    Recognized shapes (subgraph mode): the empty family; a chain; the complete
    {1,2}-graph on t vertices; the complete pair graph on t vertices in ambient
    {2}; the pair {single 1-edge vertex, complete pair graph on t}; and the
    pair {marked clique on t, complete {1,2}-graph on 2}.
    """
    if family.mode != "subgraph":
        return None
    members = family.members
    ambient = tuple(family.ambient.sizes)

    if not members:
        value = Fraction(len(family.ambient))
        return value, "nothing is forbidden: complete graphs are free"

    if len(members) == 1 and ambient == (1, 2):
        m = members[0]
        if is_isomorphic(m, chain_graph()):
            return Fraction(1), "chain-free graphs have density 1"
        t = m.n
        if t >= 2 and is_isomorphic(m, complete(t, (1, 2))):
            if t == 2:
                return Fraction(5, 4), (
                    "forbidding the complete {1,2}-graph on 2 vertices "
                    "gives density 5/4"
                )
            return 2 - Fraction(1, t - 1), (
                f"forbidding the complete {{1,2}}-graph on {t} vertices "
                f"gives density 2 - 1/{t - 1}"
            )

    if len(members) == 1 and ambient == (2,):
        m = members[0]
        t = m.n
        if t >= 2 and is_isomorphic(m, complete(t, (2,))):
            return 1 - Fraction(1, t - 1), (
                f"pair graphs without a complete graph on {t} vertices "
                f"have density 1 - 1/{t - 1}"
            )

    if len(members) == 2 and ambient == (1, 2):
        small = min(members, key=lambda g: g.n)
        large = max(members, key=lambda g: g.n)
        t = large.n
        if is_isomorphic(small, Hypergraph(1, ((0,),))):
            if t >= 2 and is_isomorphic(large, complete(t, (2,))):
                return 1 - Fraction(1, t - 1), (
                    "no 1-edges plus a pair layer without a complete graph "
                    f"on {t} vertices: density 1 - 1/{t - 1}"
                )
        if (
            t >= 3
            and is_isomorphic(small, complete(2, (1, 2)))
            and is_isomorphic(large, marked_clique(t))
        ):
            return Fraction(5, 4) - Fraction(1, 4 * (t - 1)), (
                f"the marked-clique pair family with t = {t} has density "
                f"5/4 - 1/(4({t} - 1))"
            )
    return None


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class LambdaWitness:
    member: Hypergraph
    point: SimplexPoint
    value: Fraction  # exact lower bound for lambda(member)


@dataclass(frozen=True)
class PiEvidence:
    grade: str  # "closed_form" | "exhaustive" | "asserted"
    value: Fraction
    detail: str
    n: int | None = None

    def __post_init__(self):
        if self.grade not in ("closed_form", "exhaustive", "asserted"):
            raise InvalidArgumentError(f"unknown evidence grade {self.grade!r}")


@dataclass(frozen=True)
class JumpCertificate:
    """A validated jump certificate; construction is the one place its
    conditions are checked.

    For every member F a certified rational point with lambda(F) > alpha; the
    density evidence satisfies value <= alpha (strictly below for the strong
    kind).  Every failed condition, a missing ``pi_evidence`` included, is
    listed in one CertificateError.  ``gap`` is the positive margin
    min lambda - alpha.
    """

    alpha: Fraction
    kind: str  # "jump" | "strong_jump"
    family: ForbiddenFamily
    lambda_witnesses: tuple[LambdaWitness, ...]
    pi_evidence: PiEvidence

    def __post_init__(self):
        a = self.alpha
        failures = []
        if self.kind not in ("jump", "strong_jump"):
            failures.append(f"unknown certificate kind {self.kind!r}")
        if not self.lambda_witnesses:
            failures.append("no lambda witnesses")
        for w in self.lambda_witnesses:
            if w.value <= a:
                failures.append(
                    f"condition on lambda fails: certified bound {w.value} <= {a} "
                    f"for a member on {w.member.n} vertices"
                )
        evidence = self.pi_evidence
        if evidence is None:
            failures.append(
                "no density evidence: supply pi_evidence or exhaustive_n, "
                "or use a recognized family"
            )
        elif self.kind == "strong_jump" and evidence.value >= a:
            failures.append(
                f"strict condition fails: density evidence {evidence.value} "
                f"is not strictly below alpha {a}"
            )
        elif self.kind == "jump" and evidence.value > a:
            failures.append(
                f"condition fails: density evidence {evidence.value} "
                f"exceeds alpha {a}"
            )
        if failures:
            raise CertificateError(failures)

    @property
    def gap(self) -> Fraction:
        return min(w.value for w in self.lambda_witnesses) - self.alpha


def _lambda_witness(member: Hypergraph, point, config) -> LambdaWitness:
    if point is not None:
        pt = point if isinstance(point, SimplexPoint) else SimplexPoint(tuple(point))
        return LambdaWitness(member, pt, certify_at(member, pt))
    if not member.edges:
        pt = SimplexPoint.uniform(max(member.n, 1))
        return LambdaWitness(member, pt, Fraction(0))
    result = maximize(member, config)
    return LambdaWitness(
        member, result.certificate_point, result.certified_lower_bound
    )


def build_certificate(
    alpha,
    family: ForbiddenFamily,
    strict: bool = False,
    config: OptimizerConfig | None = None,
    lambda_points=None,
    pi_evidence: PiEvidence | None = None,
    exhaustive_n: int | None = None,
) -> JumpCertificate:
    """Assemble a jump certificate, or raise CertificateError.

    This resolves one lambda witness per member and the density evidence,
    then constructs the certificate, whose constructor checks the conditions.
    Density evidence is resolved in order: explicit ``pi_evidence``, a
    recognized closed form, then exhaustive pi_n at ``exhaustive_n``.  A
    strict request never silently downgrades: if the evidence only gives
    pi <= alpha the strong certificate fails.
    """
    a = _require_fraction(alpha)
    cfg = config or OptimizerConfig(rational_certificate=True)
    if not family.members:
        raise CertificateError(
            ["a certificate needs at least one forbidden member"]
        )

    points = list(lambda_points) if lambda_points is not None else [None] * len(
        family.members
    )
    if len(points) != len(family.members):
        raise InvalidArgumentError("one witness point per member expected")
    witnesses = tuple(
        _lambda_witness(member, point, cfg)
        for member, point in zip(family.members, points)
    )

    evidence = pi_evidence
    if evidence is None:
        known = known_turan_density(family)
        if known is not None:
            value, detail = known
            evidence = PiEvidence("closed_form", value, detail)
    if evidence is None and exhaustive_n is not None:
        record = pi_n(family, exhaustive_n)
        evidence = PiEvidence(
            "exhaustive",
            record.pi_n,
            f"exhaustive search at n = {exhaustive_n}",
            n=exhaustive_n,
        )
    return JumpCertificate(
        alpha=a,
        kind="strong_jump" if strict else "jump",
        family=family,
        lambda_witnesses=witnesses,
        pi_evidence=evidence,
    )
