"""Scan a rational grid of the interval [0, 2] and classify every point.

Classifies alpha = i/denominator for i = 0..2*denominator, tallies the
verdicts, prints each weak jump with its matched closed form, and for
--certify-strong picks evenly spaced strong values and builds a verifiable
certificate for each from the stock chain family.

    python scripts/jump_scan.py --denominator 240 --certify-strong 3
"""

import argparse
import sys
from fractions import Fraction

from turanlab import (
    EdgeTypeSet,
    ForbiddenFamily,
    build_certificate,
    chain_graph,
    classify12,
)
from turanlab.errors import CertificateError
from turanlab.serialize import format_fraction


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--denominator", type=int, default=120)
    parser.add_argument(
        "--certify-strong", type=int, default=0, metavar="COUNT",
        help="build certificates for COUNT strong values near 9/8",
    )
    args = parser.parse_args(argv)
    if args.denominator < 1:
        parser.error("denominator must be positive")
    if args.certify_strong < 0:
        parser.error("certify-strong count must not be negative")

    weak = []
    strong = []
    for i in range(2 * args.denominator + 1):
        alpha = Fraction(i, args.denominator)
        res = classify12(alpha)
        if res.verdict == "weak_jump":
            weak.append(res)
        else:
            strong.append(alpha)

    print(f"grid step 1/{args.denominator}: {len(weak)} weak, {len(strong)} strong")
    for res in weak:
        note = f"  [{res.note}]" if res.note else ""
        k = f" k={res.k}" if res.k is not None else ""
        print(f"  weak  {format_fraction(res.alpha):>9}  {res.matched_form}{k}{note}")

    if args.certify_strong:
        # the chain family certifies any strong alpha in (1, 9/8)
        fam = ForbiddenFamily(EdgeTypeSet((1, 2)), (chain_graph(),))
        window = [a for a in strong if 1 < a < Fraction(9, 8)]
        step = max(1, len(window) // args.certify_strong)
        picked = window[::step][: args.certify_strong]
        for alpha in picked:
            try:
                cert = build_certificate(alpha, fam, strict=True)
            except CertificateError as exc:
                print(f"  certify {format_fraction(alpha)}: FAILED {exc}")
                return 1
            print(
                f"  certify {format_fraction(alpha):>9}: {cert.kind} "
                f"gap {format_fraction(cert.gap)} "
                f"(evidence: {cert.pi_evidence.grade})"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
