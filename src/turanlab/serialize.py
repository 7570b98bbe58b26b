"""JSON object mapping for every public value, plus canonical dumps.

Conventions: exact rationals are strings "p/q" in lowest terms with an
explicit denominator; floats stay JSON numbers; every mapping is strict on
read (unknown or missing keys, wrong types, duplicate edges all raise
ParseError).  dumps_canonical produces byte-stable output: sorted keys and
compact separators, so identical values serialize identically.

Writing is one encoder, ``_encode``, and one table, ``_KEYS``, of each
result type's JSON keys; the public ``*_to_obj`` names of those types are
all bound to it, so a new result type is one more row.  ``_KEYS`` is keyed
by class name, so that this module loads only ``errors`` and ``hypercore``;
each parser imports the class it builds when it runs.  Patterns, generator
specs and density bounds keep their own encoders, because their JSON is not
a copy of their fields.  Reading stays hand-written: each parser checks its
keys and types strictly and names the place of a fault.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ParseError, TuranLabError
from .hypercore import EdgeTypeSet, Hypergraph, Pattern, SimplexPoint

# The result classes of the other modules appear here only in annotations,
# which are never evaluated, and in the functions that import them.

__all__ = [
    "format_fraction",
    "parse_fraction",
    "dumps_canonical",
    "graph_to_obj",
    "graph_from_obj",
    "pattern_to_obj",
    "pattern_from_obj",
    "point_to_obj",
    "point_from_obj",
    "family_to_obj",
    "family_from_obj",
    "result_to_obj",
    "record_to_obj",
    "bound_to_obj",
    "bound_to_tsv",
    "classify_to_obj",
    "weak_witness_to_obj",
    "evidence_to_obj",
    "evidence_from_obj",
    "certificate_to_obj",
    "certificate_from_obj",
    "genspec_to_obj",
    "genspec_from_obj",
    "report_to_obj",
]


def format_fraction(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(s) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise ParseError(f"expected a rational string, got {type(s).__name__}")
    try:
        if "/" in s:
            p, q = s.split("/")
            return Fraction(int(p), int(q))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {s!r}") from exc


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# the encoder

# class name -> its JSON keys; a (key, attribute) pair renames the attribute.
# PiRecord.elapsed is left out, so JSON output stays byte-identical.
_KEYS = {
    "LagrangianResult": (
        "value", "maximizer", "support", "certified_lower_bound",
        "certificate_point", "stationarity_residual", "value_exact", "method",
    ),
    "ForbiddenFamily": ("ambient", "members", "mode"),
    "PiRecord": (
        "n", "pi_n", "extremal", ("count", "graphs_enumerated"), "exhaustive",
    ),
    "ClassifyResult": ("alpha", "verdict", "matched_form", "k", "interval", "note"),
    "WeakJumpWitness": (
        "alpha", "kind", "description", "graph", "point", "family", "pi_value",
    ),
    "LambdaWitness": ("member", "point", "value"),
    "PiEvidence": ("grade", "value", "detail", "n"),
    "JumpCertificate": (
        "alpha", "kind", "family", "lambda_witnesses", "pi_evidence", "gap",
    ),
    "UpperDensityReport": (
        "t", "value", "attaining", "h_values", "exhaustive", "i_range",
    ),
}
# the same as (key, attribute) pairs, so _encode need not test for renames
_FIELDS = {
    kind: tuple(k if isinstance(k, tuple) else (k, k) for k in keys)
    for kind, keys in _KEYS.items()
}


def _encode(value):
    kind = type(value)
    if kind is Fraction:
        return f"{value.numerator}/{value.denominator}"
    if kind is tuple:
        return [_encode(v) for v in value]
    if kind is Hypergraph:
        # the hot path for large witnesses: edges hold plain ints
        return {"n": value.n, "edges": [list(e) for e in value.edges]}
    if kind is SimplexPoint:
        return [_encode(w) for w in value.weights]
    if kind is EdgeTypeSet:
        return list(value.sizes)
    fields = _FIELDS.get(kind.__name__)
    if fields is None:
        return value
    return {key: _encode(getattr(value, attr)) for key, attr in fields}


graph_to_obj = point_to_obj = family_to_obj = record_to_obj = _encode
result_to_obj = classify_to_obj = weak_witness_to_obj = _encode
evidence_to_obj = certificate_to_obj = _encode


# ---------------------------------------------------------------------------
# helpers


def _expect_keys(obj, where: str, required: tuple, optional: tuple = ()):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    keys = set(obj)
    missing = set(required) - keys
    if missing:
        raise ParseError(f"{where}: missing keys {sorted(missing)}")
    extra = keys - set(required) - set(optional)
    if extra:
        raise ParseError(f"{where}: unknown keys {sorted(extra)}")


def _expect_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{where}: expected an integer")
    return value


def _expect_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{where}: expected a string")
    return value


def _expect_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list")
    return value


def _wrap(where: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except TuranLabError as exc:
        raise ParseError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# graphs and patterns


def graph_from_obj(obj, where: str = "graph") -> Hypergraph:
    _expect_keys(obj, where, ("n", "edges"))
    n = _expect_int(obj["n"], f"{where}.n")
    raw = _expect_list(obj["edges"], f"{where}.edges")
    edges = []
    for i, e in enumerate(raw):
        e = _expect_list(e, f"{where}.edges[{i}]")
        edges.append(tuple(_expect_int(v, f"{where}.edges[{i}]") for v in e))
    normalized = [tuple(sorted(e)) for e in edges]
    if len(set(normalized)) != len(normalized):
        raise ParseError(f"{where}: duplicate edges")
    return _wrap(where, Hypergraph, n, tuple(edges))


def pattern_to_obj(pattern: Pattern) -> dict:
    # pattern edges are multiplicity vectors, wrapped as {"mults": [...]}
    # objects so graph and pattern files stay distinguishable
    return {
        "n": pattern.n,
        "edges": [{"mults": list(r)} for r in pattern.edges],
    }


def pattern_from_obj(obj, where: str = "pattern") -> Pattern:
    _expect_keys(obj, where, ("n", "edges"))
    n = _expect_int(obj["n"], f"{where}.n")
    raw = _expect_list(obj["edges"], f"{where}.edges")
    rows = []
    for i, item in enumerate(raw):
        here = f"{where}.edges[{i}]"
        _expect_keys(item, here, ("mults",))
        r = _expect_list(item["mults"], f"{here}.mults")
        rows.append(tuple(_expect_int(v, f"{here}.mults") for v in r))
    return _wrap(where, Pattern, n, tuple(rows))


def point_from_obj(obj, where: str = "point") -> SimplexPoint:
    ws = _expect_list(obj, where)
    if not ws:
        raise ParseError(f"{where}: empty weight list")
    if all(isinstance(w, str) for w in ws):
        weights = tuple(parse_fraction(w) for w in ws)
    elif all(isinstance(w, (int, float)) and not isinstance(w, bool) for w in ws):
        weights = tuple(float(w) for w in ws)
    else:
        raise ParseError(f"{where}: mix of rational strings and numbers")
    return _wrap(where, SimplexPoint, weights)


# ---------------------------------------------------------------------------
# families and density bounds


def family_from_obj(obj, where: str = "family") -> ForbiddenFamily:
    from .turansearch import ForbiddenFamily

    _expect_keys(obj, where, ("ambient", "members"), ("mode",))
    sizes = _expect_list(obj["ambient"], f"{where}.ambient")
    ambient = _wrap(
        f"{where}.ambient", EdgeTypeSet,
        tuple(_expect_int(s, f"{where}.ambient") for s in sizes),
    )
    members = tuple(
        graph_from_obj(m, f"{where}.members[{i}]")
        for i, m in enumerate(_expect_list(obj["members"], f"{where}.members"))
    )
    mode = obj.get("mode", "subgraph")
    return _wrap(where, ForbiddenFamily, ambient, members, _expect_str(mode, f"{where}.mode"))


def bound_to_obj(bound: DensityBound) -> dict:
    return {
        "family": _encode(bound.family),
        "mode": bound.family.mode,
        "records": _encode(bound.records),
    }


def bound_to_tsv(bound: DensityBound) -> str:
    lines = ["n\tpi_n\tcount\tseconds"]
    for r in bound.records:
        lines.append(
            f"{r.n}\t{format_fraction(r.pi_n)}\t{r.graphs_enumerated}"
            f"\t{r.elapsed:.3f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# certificates


def evidence_from_obj(obj, where: str = "pi_evidence") -> PiEvidence:
    from .jumpcert import PiEvidence

    _expect_keys(obj, where, ("grade", "value", "detail"), ("n",))
    n = obj.get("n")
    if n is not None:
        n = _expect_int(n, f"{where}.n")
    return _wrap(
        where, PiEvidence,
        _expect_str(obj["grade"], f"{where}.grade"),
        parse_fraction(obj["value"]),
        _expect_str(obj["detail"], f"{where}.detail"),
        n,
    )


def certificate_from_obj(obj, where: str = "certificate") -> JumpCertificate:
    """Parse a certificate; constructing it re-verifies it.

    Each witness computes its value exactly from its point, and the
    certificate checks its conditions and any closed-form evidence against
    the recognized-family catalog.  A stated value or gap that differs from
    the recomputed one, or a failed check, raises ParseError.
    """
    from .jumpcert import JumpCertificate, LambdaWitness

    _expect_keys(
        obj, where,
        ("alpha", "kind", "family", "lambda_witnesses", "pi_evidence"),
        ("gap",),
    )
    alpha = parse_fraction(obj["alpha"])
    kind = _expect_str(obj["kind"], f"{where}.kind")
    family = family_from_obj(obj["family"], f"{where}.family")
    witnesses = []
    for i, w in enumerate(_expect_list(obj["lambda_witnesses"],
                                       f"{where}.lambda_witnesses")):
        wwhere = f"{where}.lambda_witnesses[{i}]"
        _expect_keys(w, wwhere, ("member", "point", "value"))
        member = graph_from_obj(w["member"], f"{wwhere}.member")
        point = point_from_obj(w["point"], f"{wwhere}.point")
        claimed = parse_fraction(w["value"])
        witness = _wrap(wwhere, LambdaWitness, member, point)
        if witness.value != claimed:
            raise ParseError(
                f"{wwhere}: stated value {format_fraction(claimed)} "
                f"differs from the recomputed {format_fraction(witness.value)}"
            )
        witnesses.append(witness)
    evidence = evidence_from_obj(obj["pi_evidence"], f"{where}.pi_evidence")
    cert = _wrap(
        where, JumpCertificate, alpha, kind, family, tuple(witnesses), evidence,
    )
    if "gap" in obj and parse_fraction(obj["gap"]) != cert.gap:
        raise ParseError(f"{where}.gap: stated gap differs from the recomputed one")
    return cert


# ---------------------------------------------------------------------------
# sequence generators and density reports


def genspec_to_obj(gen: SequenceGenerator) -> dict:
    from .seqdensity import SequenceGenerator

    if gen.kind == "union":
        # the size sequence is implied by the components
        components = [genspec_to_obj(c) for c in gen.components]
        return {"kind": "union", "params": {"components": components}}
    params = ({"ns": list(gen.ns)} if gen.ns is not None
              else {"n_start": gen.n_start, "n_step": gen.n_step})
    kind, k = gen.kind, gen.base.n
    if kind == "constant":
        params["graph"] = _encode(gen.base)
    elif k >= 2 and gen == SequenceGenerator.turan_generator(k, **params):
        # the short spelling of an equal-proportion blow-up of complete(k, (2,))
        kind, params["parts"] = "turan", k
    else:
        params["base"] = _encode(gen.base)
        params["proportions"] = [format_fraction(w) for w in gen.proportions]
    return {"kind": kind, "params": params}


_SIZE_KEYS = ("ns", "n_start", "n_step")

# kind -> SequenceGenerator constructor name and its params besides the
# size rule, in parse order; every params key has its parser in _GENSPEC_PARAMS
_GENSPEC_KINDS = {
    "turan": ("turan_generator", ("parts",)),
    "blowup": ("blow_up_generator", ("base", "proportions")),
    "constant": ("constant_generator", ("graph",)),
}
_GENSPEC_PARAMS = {
    "parts": _expect_int,
    "base": graph_from_obj,
    "graph": graph_from_obj,
    "proportions": lambda ws, where: tuple(
        parse_fraction(w) for w in _expect_list(ws, where)
    ),
    "ns": lambda ns, where: tuple(
        _expect_int(n, where) for n in _expect_list(ns, where)
    ),
    "n_start": _expect_int,
    "n_step": _expect_int,
}


def genspec_from_obj(obj, where: str = "generator") -> SequenceGenerator:
    from .seqdensity import SequenceGenerator

    _expect_keys(obj, where, ("kind",), ("params",))
    kind = _expect_str(obj["kind"], f"{where}.kind")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ParseError(f"{where}.params: expected an object")
    pw = f"{where}.params"
    if kind == "union":
        _expect_keys(params, pw, ("components",))
        components = tuple(
            genspec_from_obj(c, f"{pw}.components[{i}]")
            for i, c in enumerate(_expect_list(params["components"], f"{pw}.components"))
        )
        return _wrap(where, SequenceGenerator.union_generator, *components)
    if kind not in _GENSPEC_KINDS:
        raise ParseError(
            f"{where}.kind: expected blowup, turan, union, or constant, got {kind!r}"
        )
    constructor, keys = _GENSPEC_KINDS[kind]
    _expect_keys(params, pw, keys, _SIZE_KEYS)
    args = [_GENSPEC_PARAMS[key](params[key], f"{pw}.{key}") for key in keys]
    # the size rule, read once: a null or missing key is left unset
    sizes = {key: _GENSPEC_PARAMS[key](value, f"{pw}.{key}")
             for key in _SIZE_KEYS if (value := params.get(key)) is not None}
    return _wrap(where, getattr(SequenceGenerator, constructor), *args, **sizes)


def report_to_obj(report: UpperDensityReport) -> dict:
    obj = _encode(report)
    member, subset = report.attaining
    obj["attaining"] = {"member": member, "subset": list(subset)}
    return obj
