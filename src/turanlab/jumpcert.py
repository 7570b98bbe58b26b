"""Jump classification on [0, 2] for edge types {1, 2} and jump certificates.

Over the edge sizes {1, 2} every density value in [0, 2] is a jump.  The weak
jumps (jumps that are not strong) are three sequences L - s/(k+1), k >= k_min,
each accumulating at its limit L:

    (L, s, k_min) = (1, 1, 0):      0, 1/2, 2/3, ..., k/(k+1), ..., 1,
    (L, s, k_min) = (5/4, 1/4, 1):  9/8, 7/6, ..., 1 + k/(4(k+1)), ..., 5/4,
    (L, s, k_min) = (2, 1, 1):      3/2, 5/3, ..., (2k+1)/(k+1), ..., 2.

The table ``_ROWS`` holds one row per sequence with its witnesses and texts,
and ``classify12``, ``weak_jump_witness`` and ``known_turan_density`` all read
it.  Membership is decided exactly, in integers: with alpha = p/q, L = Ln/Ld
and s = sn/sd, the row is the first with p*Ld <= Ln*q, and one
divmod(sn*Ld*q, sd*(Ln*q - p*Ld)) solves k + 1 = s/(L - alpha) for k; alpha
is weak exactly when it is a row's limit or the division leaves no remainder
and k >= k_min.  The third row starts at k = 1, so no weak value lies between
5/4 and 3/2.

A strong alpha lies strictly between two consecutive weak values of its row,
so its interval depends only on the row and k, not on alpha: ``_interval``
builds its two Fraction ends once per (row, k) and keeps them in a bounded
memo.  The 9 950 strong alpha of the grid i/5000 share 324 intervals, so the
grid builds 646 Fractions.  ``ClassifyResult`` is a ``NamedTuple``, not a
frozen dataclass: a tuple is built in one step, where a frozen dataclass sets
each of its six fields through ``object.__setattr__``.  Its repr, fields,
immutability and hash are those of the dataclass; unlike it, the result
compares equal to the plain tuple of its values.

A certificate that alpha is a (strong) jump consists of a finite family F
with density evidence pi(F) <= alpha (strictly below for strong) together
with a certified rational lower bound lambda(F) > alpha for every member.
The certificate types check themselves: a ``LambdaWitness`` computes its
value from its point, and a ``JumpCertificate`` checks its conditions and
any closed-form evidence against the catalogue when it is constructed.
``build_certificate`` reads the density evidence from exactly one source.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    CertificateError,
    InvalidArgumentError,
    OutOfRangeError,
)
from .hypercore import (
    MAX_LABELING_VERTICES,
    EdgeTypeSet,
    Hypergraph,
    SimplexPoint,
    _require_int,
    _require_rational,
    _require_tuple,
    _require_type,
    canonical_form,
    chain_graph,
    complete,
    marked_clique,
)
from .lagrangian import OptimizerConfig, certify_at, maximize
from .turansearch import ENUMERATION_CAP, ForbiddenFamily, pi_n

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
    "MAX_WITNESS_VERTICES",
]

_AMBIENT_12 = EdgeTypeSet((1, 2))
MAX_WITNESS_VERTICES = 1024  # complete witnesses cost time and memory ~ n^2
_INTERVAL_MEMO = 1024  # (row, k) intervals kept; the i/5000 grid fills 324


def _complete_witness(t: int, sizes) -> tuple[Hypergraph, SimplexPoint]:
    t = _require_int(t, "lambda witness vertex count", cap=MAX_WITNESS_VERTICES)
    return complete(t, sizes), SimplexPoint.uniform(t)


@dataclass(frozen=True)
class _Row:
    """The weak values L - s/(k+1), k >= k_min, and their witnesses.  The
    texts of values are str.format templates over t (vertices), a (alpha),
    j = t - 1 and v (the density: alpha, or ``family_form``)."""

    limit: Fraction  # L
    step: Fraction  # s
    k_min: int
    form: str  # classify12's matched_form
    # k -> a graph with lambda = value(k) and its maximizer, or None where
    # family(k + 2) is the witness
    lambda_graph: Callable[[int], tuple[Hypergraph, SimplexPoint] | None]
    lambda_text: str
    family: Callable[[int], tuple[Hypergraph, ...]]  # density value(t - 2)
    family_text: str
    family_form: str
    limit_family: tuple[Hypergraph, ...]  # density L
    limit_note: str  # classify12
    limit_text: str  # weak_jump_witness
    limit_detail: str | None  # known_turan_density
    # (Ln, Ld, sn, sd) with L = Ln/Ld and s = sn/sd
    terms: tuple[int, int, int, int] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "terms", (
            self.limit.numerator, self.limit.denominator,
            self.step.numerator, self.step.denominator,
        ))

    def value(self, k: int) -> Fraction:
        ln, ld, sn, sd = self.terms
        return Fraction(ln * sd * (k + 1) - sn * ld, ld * sd * (k + 1))


_ROWS = (
    _Row(
        Fraction(1), Fraction(1), 0, "k/(k+1)",
        lambda k: _complete_witness(k + 1, (2,)),
        "the complete pair graph on {t} vertices has lambda = {a}",
        lambda t: (Hypergraph(1, ((0,),)), complete(t, (2,))),
        "no 1-edges plus a pair layer without a complete graph on {t} "
        "vertices: density {v}",
        "1 - 1/{j}",
        (chain_graph(),),
        "limit of k/(k+1); density of chain-free graphs",
        "chain-free graphs have density exactly 1",
        "chain-free graphs have density 1",
    ),
    _Row(
        Fraction(5, 4), Fraction(1, 4), 1, "1+k/(4(k+1))",
        lambda k: (
            chain_graph(), SimplexPoint((Fraction(3, 4), Fraction(1, 4)))
        ) if k == 1 else None,
        "the chain has lambda = 9/8 at (3/4, 1/4)",
        lambda t: (marked_clique(t), complete(2, (1, 2))),
        "the marked-clique pair family with t = {t} has density {v}",
        "5/4 - 1/(4({t} - 1))",
        (complete(2, (1, 2)),),
        "limit of 1 + k/(4(k+1))",
        "forbidding the two-vertex complete {1,2}-graph gives density 5/4",
        "forbidding the complete {1,2}-graph on 2 vertices gives density 5/4",
    ),
    _Row(
        Fraction(2), Fraction(1), 1, "(2k+1)/(k+1)",
        lambda k: _complete_witness(k + 1, (1, 2)),
        "the complete {{1,2}}-graph on {t} vertices has lambda = {a}",
        lambda t: (complete(t, (1, 2)),),
        "forbidding the complete {{1,2}}-graph on {t} vertices gives "
        "density {v}",
        "2 - 1/{j}",
        (),
        "right endpoint; full Lubell range for two edge types",
        "with nothing forbidden the complete graphs reach density 2",
        None,  # known_turan_density reads the empty family before the rows
    ),
)


class ClassifyResult(NamedTuple):
    alpha: Fraction
    verdict: str  # "weak_jump" | "strong_jump"
    matched_form: str | None = None
    k: int | None = None
    interval: tuple[Fraction, Fraction] | None = None
    note: str | None = None


def _locate(alpha) -> tuple[Fraction, int, int | None, bool]:
    """(a, i, k, weak) for alpha in [0, 2]: a = alpha as a Fraction, i the
    index in ``_ROWS`` of the first row with a <= L, k = floor(s/(L - a)) - 1
    (None at a = L), and whether a is weak.  Integer arithmetic only."""
    a = _require_rational(alpha, "alpha")
    p, q = a.numerator, a.denominator
    if p < 0 or p > 2 * q:
        raise OutOfRangeError(f"alpha = {a} lies outside [0, 2]")
    for i, row in enumerate(_ROWS):
        ln, ld, sn, sd = row.terms
        gap = ln * q - p * ld  # (L - a) * Ld * q
        if gap >= 0:
            break
    if gap == 0:
        return a, i, None, True
    # k + 1 = s/(L - a) = sn*Ld*q / (sd*gap); a lies above the limit of the
    # row before, so k >= 0 on every row
    k1, rem = divmod(sn * ld * q, sd * gap)
    k = k1 - 1
    return a, i, k, rem == 0 and k >= row.k_min


def classify12(alpha) -> ClassifyResult:
    """Exact weak/strong verdict for a rational alpha in [0, 2]."""
    a, i, k, weak = _locate(alpha)
    row = _ROWS[i]
    if k is None:
        return ClassifyResult(
            a, "weak_jump", matched_form=str(a), note=row.limit_note
        )
    if weak:
        note = "left endpoint; realized by edgeless graphs" if a == 0 else None
        return ClassifyResult(a, "weak_jump", matched_form=row.form, k=k, note=note)
    return ClassifyResult(a, "strong_jump", interval=_interval(i, k))


@lru_cache(maxsize=_INTERVAL_MEMO)
def _interval(i: int, k: int) -> tuple[Fraction, Fraction]:
    """The ends of the strong interval of row ``_ROWS[i]`` above its k-th
    weak value: (value(k), value(k + 1)), or the row before's limit on the
    left below the row's first weak value."""
    row = _ROWS[i]
    # the first row starts at k = 0, so only a later row falls back to the
    # limit of the row before
    lo = row.value(k) if k >= row.k_min else _ROWS[i - 1].limit
    return lo, row.value(k + 1)


# ---------------------------------------------------------------------------
# witnesses for the weak jumps


@dataclass(frozen=True)
class WeakJumpWitness:
    """Why alpha is not a strong jump: a ``graph`` with lambda = alpha at
    ``point``, or a ``family`` of density exactly alpha.  ``pi_value``, that
    density, is derived: alpha when there is a family, else None."""

    alpha: Fraction
    kind: str  # "lambda_graph" | "pi_family"
    description: str
    graph: Hypergraph | None = None
    point: SimplexPoint | None = None
    family: ForbiddenFamily | None = None

    @property
    def pi_value(self) -> Fraction | None:
        return None if self.family is None else self.alpha


def weak_jump_witness(alpha) -> WeakJumpWitness | None:
    """Why alpha cannot be a strong jump: a graph with lambda = alpha or a
    family with density exactly alpha.  None for strong jumps.  A lambda
    graph on more than MAX_WITNESS_VERTICES vertices, or a family member on
    more than MAX_LABELING_VERTICES, raises ``UnsupportedSizeError`` before
    anything is built."""
    a, i, k, weak = _locate(alpha)
    if not weak:
        return None
    row = _ROWS[i]
    found = None if k is None else row.lambda_graph(k)
    if found is not None:
        graph, point = found
        text = "the edgeless graph has lambda = {a}" if a == 0 else row.lambda_text
        return WeakJumpWitness(
            a, "lambda_graph", text.format(t=graph.n, a=a),
            graph=graph, point=point,
        )
    if k is None:
        members, text = row.limit_family, row.limit_text
    else:
        t = _require_int(k + 2, "witness family vertex count", cap=MAX_LABELING_VERTICES)
        members, text = row.family(t), row.family_text.format(t=t, v=a)
    return WeakJumpWitness(
        a, "pi_family", text, family=ForbiddenFamily(_AMBIENT_12, members)
    )


# ---------------------------------------------------------------------------
# known closed-form densities


def _keys(members) -> list[bytes]:
    return sorted({canonical_form(m) for m in members})


def known_turan_density(family: ForbiddenFamily) -> tuple[Fraction, str] | None:
    """Closed-form density for a recognized family, or None.

    Recognized (subgraph mode): the empty family in any ambient; the complete
    pair graph on t vertices in ambient {2}; and in ambient {1, 2} every
    family of the catalogue ``_ROWS``, up to isomorphism of its members.
    """
    _require_type(family, ForbiddenFamily, "family")
    if family.mode != "subgraph":
        return None
    members = family.members
    if not members:
        value = Fraction(len(family.ambient))
        return value, "nothing is forbidden: complete graphs are free"
    t = max(m.n for m in members)
    keys = _keys(members)
    ambient = tuple(family.ambient.sizes)
    if ambient == (2,) and t >= 2 and keys == _keys([complete(t, (2,))]):
        return 1 - Fraction(1, t - 1), (
            f"pair graphs without a complete graph on {t} vertices "
            f"have density 1 - 1/{t - 1}"
        )
    if ambient != (1, 2):
        return None
    for row in _ROWS:
        if t - 2 >= row.k_min and keys == _keys(row.family(t)):
            form = row.family_form.format(t=t, j=t - 1)
            return row.value(t - 2), row.family_text.format(t=t, v=form)
        if keys == _keys(row.limit_family):
            return row.limit, row.limit_detail
    return None


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class LambdaWitness:
    """A member and a rational point.  ``value``, the exact lower bound for
    lambda(member), is the form's value at the point, computed here; it is 0
    for an edgeless member, and a member on 0 vertices takes any point."""

    member: Hypergraph
    point: SimplexPoint
    value: Fraction = field(init=False)

    def __post_init__(self):
        _require_type(self.member, Hypergraph, "member")
        _require_type(self.point, SimplexPoint, "point")
        value = Fraction(0)
        if self.member.n:
            value = certify_at(self.member, self.point)
        object.__setattr__(self, "value", value)


@dataclass(frozen=True)
class PiEvidence:
    """Density evidence pi(F) <= value of one grade.  ``n``, the vertex
    count of the search, is given exactly when the grade is exhaustive."""

    grade: str  # "closed_form" | "exhaustive" | "asserted"
    value: Fraction
    detail: str
    n: int | None = None

    def __post_init__(self):
        # a plain int value is stored as the rational it stands for
        value = _require_rational(self.value, "density value")
        object.__setattr__(self, "value", value)
        _require_type(self.detail, str, "detail")
        if self.grade not in ("closed_form", "exhaustive", "asserted"):
            raise InvalidArgumentError(f"unknown evidence grade {self.grade!r}")
        if (self.n is None) == (self.grade == "exhaustive"):
            need = "needs" if self.n is None else "takes no"
            raise InvalidArgumentError(f"{self.grade} evidence {need} n")
        if self.n is not None:
            object.__setattr__(self, "n", _require_int(self.n, "n", 1))


@dataclass(frozen=True)
class JumpCertificate:
    """A validated jump certificate; construction is the one place its
    conditions are checked.

    For every member F a certified rational point with lambda(F) > alpha,
    where each witness value is computed from its point; the density
    evidence satisfies value <= alpha (strictly below for the strong kind),
    and closed-form evidence must be the catalogue's value for the family
    (``known_turan_density``).  Every failed condition, a missing
    ``pi_evidence`` included, is listed in one CertificateError.  ``gap`` is
    the positive margin min lambda - alpha.
    """

    alpha: Fraction
    kind: str  # "jump" | "strong_jump"
    family: ForbiddenFamily
    lambda_witnesses: tuple[LambdaWitness, ...]
    pi_evidence: PiEvidence

    def __post_init__(self):
        a = _require_rational(self.alpha, "alpha")
        object.__setattr__(self, "alpha", a)
        _require_type(self.family, ForbiddenFamily, "family")
        # a list of witnesses is stored as a tuple, so the certificate hashes
        witnesses = _require_tuple(self.lambda_witnesses, "lambda_witnesses")
        for w in witnesses:
            _require_type(w, LambdaWitness, "lambda_witnesses entry")
        object.__setattr__(self, "lambda_witnesses", witnesses)
        if self.pi_evidence is not None:
            _require_type(self.pi_evidence, PiEvidence, "pi_evidence")
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
        if evidence is not None and evidence.grade == "closed_form":
            known = known_turan_density(self.family)
            if known is None or known[0] != evidence.value:
                failures.append(
                    f"closed-form density evidence {evidence.value} does not "
                    "match the recognized-family catalog"
                )
        if failures:
            raise CertificateError(failures)

    @property
    def gap(self) -> Fraction:
        return min(w.value for w in self.lambda_witnesses) - self.alpha


def _lambda_witness(member: Hypergraph, config) -> LambdaWitness:
    if not member.edges:
        return LambdaWitness(member, SimplexPoint.uniform(max(member.n, 1)))
    return LambdaWitness(member, maximize(member, config).certificate_point)


def build_certificate(
    alpha,
    family: ForbiddenFamily,
    strict: bool = False,
    config: OptimizerConfig | None = None,
    pi_evidence: PiEvidence | None = None,
    exhaustive_n: int | None = None,
) -> JumpCertificate:
    """Assemble a jump certificate, or raise CertificateError.

    This resolves one lambda witness per member and the density evidence,
    then constructs the certificate, whose constructor checks the conditions.
    Density evidence comes from exactly one source: ``pi_evidence`` as
    given, exhaustive pi_n at ``exhaustive_n`` (run even for a recognized
    family), or, when the caller gives neither, the recognized closed form
    of ``known_turan_density``.  Giving both raises InvalidArgumentError
    before any witness is computed.  A strict request never silently
    downgrades: if the evidence only gives pi <= alpha the strong
    certificate fails.
    """
    a = _require_rational(alpha, "alpha")
    _require_type(family, ForbiddenFamily, "family")
    if exhaustive_n is not None:
        exhaustive_n = _require_int(exhaustive_n, "exhaustive_n", 1, ENUMERATION_CAP)
        if pi_evidence is not None:
            raise InvalidArgumentError("give pi_evidence or exhaustive_n, not both")
    if not family.members:
        raise CertificateError(
            ["a certificate needs at least one forbidden member"]
        )
    witnesses = tuple(_lambda_witness(m, config) for m in family.members)

    evidence = pi_evidence
    if exhaustive_n is not None:
        evidence = PiEvidence("exhaustive", pi_n(family, exhaustive_n).pi_n,
                              f"exhaustive search at n = {exhaustive_n}", n=exhaustive_n)
    elif evidence is None and (known := known_turan_density(family)) is not None:
        evidence = PiEvidence("closed_form", *known)
    return JumpCertificate(
        alpha=a,
        kind="strong_jump" if strict else "jump",
        family=family,
        lambda_witnesses=witnesses,
        pi_evidence=evidence,
    )
