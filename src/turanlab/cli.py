"""Command line front end.

Subcommands: lubell, lagrangian, turan, classify12, certify, sigma.  Inputs
are JSON files ("-" reads stdin); output is canonical JSON on stdout, or a
TSV table for the tabular turan command.  When stdout is a terminal the
exact rationals in the result are echoed as decimal hints on stderr.

Exit codes: 0 success, 2 bad input (parsing or validation), 3 a computation
that ran but could not produce the requested answer (optimizer failure,
certificate refusal).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import serialize as ser
from .errors import (
    CertificateError,
    InvalidArgumentError,
    OptimizerFailureError,
    ParseError,
    TuranLabError,
)

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_BAD_INPUT = 2
_EXIT_FAILED = 3


def _read_json(path: str, where: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ParseError(f"{where}: cannot read {path}: {exc.strerror}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: {path} is not valid JSON: {exc}") from exc


def _cli_fraction(text: str) -> Fraction:
    try:
        return ser.parse_fraction(text)
    except ParseError:
        raise ParseError(
            f"{text!r} is not an exact rational; write it like 11/10"
        ) from None


def _graph_or_pattern(obj, where: str):
    # pattern edges are {"mults": [...]} objects, graph edges are plain lists
    edges = obj.get("edges") if isinstance(obj, dict) else None
    if isinstance(edges, list) and edges and isinstance(edges[0], dict):
        return ser.pattern_from_obj(obj, where)
    return ser.graph_from_obj(obj, where)


def _emit(payload, hints) -> None:
    sys.stdout.write(ser.dumps_canonical(payload) + "\n")
    if hints and sys.stdout.isatty():
        for label, value in hints:
            sys.stderr.write(f"# {label} = {value} ~ {float(value):.6g}\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_lubell(args) -> int:
    from .hypercore import lubell

    obj = _read_json(args.graph, "graph")
    graph = ser.graph_from_obj(obj)
    value = lubell(graph)
    payload = {
        "n": graph.n,
        "edge_count": len(graph.edges),
        "value": ser.format_fraction(value),
    }
    _emit(payload, [("value", value)])
    return _EXIT_OK


def _cmd_lagrangian(args) -> int:
    from .lagrangian import OptimizerConfig, maximize

    obj = _read_json(args.graph, "input")
    target = _graph_or_pattern(obj, "input")
    config = OptimizerConfig(
        restarts=args.restarts, max_iters=args.max_iters, seed=args.seed
    )
    result = maximize(target, config)
    payload = ser.result_to_obj(result)
    hints = []
    if args.certify:
        hints.append(("certified lower bound", result.certified_lower_bound))
    else:
        payload["certified_lower_bound"] = payload["certificate_point"] = None
    _emit(payload, hints)
    return _EXIT_OK


def _cmd_turan(args) -> int:
    from .turansearch import ForbiddenFamily, density_sequence

    obj = _read_json(args.family, "family")
    family = ser.family_from_obj(obj)
    if args.mode is not None and args.mode != family.mode:
        family = ForbiddenFamily(family.ambient, family.members, args.mode)
    progress = None
    if args.progress:
        def progress(count):
            sys.stderr.write(f"  searched {count} graphs\r")
            sys.stderr.flush()
    bound = density_sequence(family, args.n_max, progress=progress)
    if args.progress:
        sys.stderr.write("\n")
    if args.format == "tsv":
        sys.stdout.write(ser.bound_to_tsv(bound) + "\n")
        return _EXIT_OK
    payload = ser.bound_to_obj(bound)
    last = bound.records[-1]
    _emit(payload, [(f"pi_{last.n}", last.pi_n)])
    return _EXIT_OK


def _cmd_classify12(args) -> int:
    from .jumpcert import classify12, weak_jump_witness

    alpha = _cli_fraction(args.alpha)
    result = classify12(alpha)
    payload = ser.classify_to_obj(result)
    if args.witness:
        witness = weak_jump_witness(alpha)
        payload["witness"] = (
            None if witness is None else ser.weak_witness_to_obj(witness)
        )
    _emit(payload, [("alpha", alpha)])
    return _EXIT_OK


def _cmd_certify(args) -> int:
    from .jumpcert import PiEvidence, build_certificate
    from .lagrangian import OptimizerConfig

    if args.pi_detail is not None and args.pi is None:
        raise InvalidArgumentError("--pi-detail needs --pi")
    alpha = _cli_fraction(args.alpha)
    family = ser.family_from_obj(_read_json(args.family, "family"))
    evidence = None
    if args.pi is not None:
        evidence = PiEvidence(
            "asserted", _cli_fraction(args.pi),
            args.pi_detail or "asserted on the command line",
        )
    config = OptimizerConfig(seed=args.seed)
    cert = build_certificate(
        alpha, family,
        strict=args.strict,
        config=config,
        pi_evidence=evidence,
        exhaustive_n=args.exhaustive_n,
    )
    payload = ser.certificate_to_obj(cert)
    _emit(payload, [("gap", cert.gap)])
    return _EXIT_OK


def _cmd_sigma(args) -> int:
    from .seqdensity import sigma_t

    gen = ser.genspec_from_obj(_read_json(args.generator, "generator"))
    report = sigma_t(gen, args.t, i_range=(args.i_from, args.i_to))
    payload = ser.report_to_obj(report)
    _emit(payload, [(f"sigma_{args.t}", report.value)])
    return _EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turanlab",
        description="Lubell densities, polynomial Lagrangians and jump certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lubell",
                       help="exact Lubell value of a hypergraph")
    p.add_argument("graph", help="graph JSON file, or - for stdin")
    p.set_defaults(run=_cmd_lubell)

    p = sub.add_parser("lagrangian",
                       help="maximize the edge polynomial over the simplex")
    p.add_argument("graph", help="graph or pattern JSON file, or - for stdin")
    # forms of degree <= 2 are solved exactly; the ascent settings below
    # only act on forms with a term of degree >= 3
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--max-iters", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0, help="deterministic seed")
    p.add_argument("--certify", action="store_true",
                   help="print the exact rational certificate, which is "
                   "always computed")
    p.set_defaults(run=_cmd_lagrangian)

    p = sub.add_parser("turan",
                       help="exact small-n density sequence for a forbidden family")
    p.add_argument("family", help="family JSON file, or - for stdin")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--mode", choices=("subgraph", "induced"), default=None,
                   help="override the containment mode from the family file")
    p.add_argument("--progress", action="store_true",
                   help="report enumeration progress on stderr")
    p.add_argument("--format", choices=("json", "tsv"), default="json",
                   help="output format")
    p.set_defaults(run=_cmd_turan)

    p = sub.add_parser("classify12",
                       help="weak/strong jump verdict for a rational in [0, 2]")
    p.add_argument("alpha", help="exact rational, e.g. 11/10")
    p.add_argument("--witness", action="store_true",
                   help="include the weak-jump witness when there is one")
    p.set_defaults(run=_cmd_classify12)

    p = sub.add_parser("certify",
                       help="build and validate a jump certificate")
    p.add_argument("alpha", help="exact rational, e.g. 11/10")
    p.add_argument("family", help="family JSON file, or - for stdin")
    p.add_argument("--strict", action="store_true",
                   help="require density evidence strictly below alpha")
    # the density evidence comes from one source: a search or an assertion
    evidence = p.add_mutually_exclusive_group()
    evidence.add_argument("--exhaustive-n", type=int, default=None,
                          help="density evidence by exhaustive search at this n")
    evidence.add_argument("--pi", default=None,
                          help="assert a density value (exact rational)")
    p.add_argument("--pi-detail", default=None,
                   help="provenance note for an asserted density value")
    p.add_argument("--seed", type=int, default=0, help="deterministic seed")
    p.set_defaults(run=_cmd_certify)

    p = sub.add_parser("sigma",
                       help="upper density of a hypergraph sequence")
    p.add_argument("generator", help="generator JSON file, or - for stdin")
    p.add_argument("--t", type=int, required=True, help="subset size")
    p.add_argument("--i-from", type=int, default=0, help="first member index")
    p.add_argument("--i-to", type=int, default=7, help="last member index")
    p.set_defaults(run=_cmd_sigma)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except OptimizerFailureError as exc:
        sys.stderr.write(f"error: {exc}\n")
        if exc.best_so_far is not None:
            sys.stderr.write(
                f"  best value reached: {exc.best_so_far.value!r}\n"
            )
        return _EXIT_FAILED
    except CertificateError as exc:
        sys.stderr.write("certificate failed:\n")
        for failure in exc.failures:
            sys.stderr.write(f"  - {failure}\n")
        return _EXIT_FAILED
    except InvalidArgumentError as exc:  # ParseError and the other refusals too
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_BAD_INPUT
    except TuranLabError as exc:
        # a computation that started from valid input but could not finish
        sys.stderr.write(f"error: {exc}\n")
        return _EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
