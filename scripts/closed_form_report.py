"""Compare optimizer output against the closed-form Lagrangian catalog.

Maximizes the stock {1, 2} graph families (pair cliques, mixed cliques,
marked cliques, the two-vertex chain) with the exact KKT solver, certifies
the value at its rational maximizer, and prints one table row per graph with
the gap to the known closed form.  Every form here has degree 2, so no row
runs the float ascent and the script takes no optimizer settings.

    python scripts/closed_form_report.py --t-max 8 --out report.json
"""

import argparse
import sys
from fractions import Fraction

from turanlab import chain_graph, complete, marked_clique, maximize
from turanlab.serialize import dumps_canonical, format_fraction


def catalog(t_max: int):
    rows = [("chain", chain_graph(), Fraction(9, 8))]
    for t in range(2, t_max + 1):
        rows.append((f"pair_clique_{t}", complete(t, (2,)), Fraction(t - 1, t)))
    for t in range(2, t_max + 1):
        rows.append((f"mixed_clique_{t}", complete(t, (1, 2)), 2 - Fraction(1, t)))
    for t in range(2, t_max + 1):
        rows.append(
            (f"marked_clique_{t}", marked_clique(t), Fraction(5, 4) - Fraction(1, 4 * t))
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--t-max", type=int, default=8)
    parser.add_argument("--out", help="also write the table as JSON")
    args = parser.parse_args(argv)

    results = []
    print(f"{'graph':<18} {'closed form':>12} {'optimizer':>12} {'certified':>10} {'gap':>10}")
    for name, graph, expected in catalog(args.t_max):
        res = maximize(graph)
        certified = res.certified_lower_bound
        gap = abs(res.value - float(expected))
        print(
            f"{name:<18} {format_fraction(expected):>12} {res.value:>12.9f} "
            f"{format_fraction(certified) if certified is not None else '-':>10} "
            f"{gap:>10.2e}"
        )
        results.append(
            {
                "graph": name,
                "closed_form": format_fraction(expected),
                "optimizer_value": res.value,
                "certified": format_fraction(certified) if certified is not None else None,
                "certified_matches": certified == expected,
                "float_gap": gap,
            }
        )

    bad = [r["graph"] for r in results if not r["certified_matches"]]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(dumps_canonical({"rows": results}) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if bad:
        print(f"certification mismatch: {', '.join(bad)}", file=sys.stderr)
        return 1
    print(f"all {len(results)} certified bounds match the closed forms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
