#!/usr/bin/env python3
"""Run the exact-enumeration checks over a grid of small instances and
write one JSON report.

Exit status is nonzero when any instance misses an exactness tolerance of
``ExactReport.checks``, the list the oracle-check subcommand applies. Expect
the single-draft (K=1) instances to pass at machine precision and the
multi-draft instances to report order-1e-1 gaps; the point of the battery
is to measure them. The (2, 2, 2) cell also runs two decoding iterations.
"""

import argparse
import json
import sys

from speclab.models import generate_pair
from speclab.oracle import exact_output_distribution

GRID = [(V, L, K) for V in (2, 3) for L in (1, 2, 3) for K in (1, 2, 3)]
# the cell whose report also checks a second decoding iteration
TWO_ITER_CELL = (2, 2, 2)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="oracle_battery.json")
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--similarity", type=float, default=0.5)
    args = ap.parse_args()

    rows = []
    all_ok = True
    for i, (V, L, K) in enumerate(GRID):
        pair = generate_pair(V, 1, args.seed + i, 1.0, args.similarity)
        iters = 2 if (V, L, K) == TWO_ITER_CELL else 1
        r = exact_output_distribution(pair, L, K, iterations=iters)
        ok = all(value < tol for _name, value, tol in r.checks())
        all_ok &= ok
        rows.append({"V": V, "L": L, "K": K, "passed": ok, **r.to_jsonable()})
        print(
            f"V={V} L={L} K={K}: marginal_dev={r.max_marginal_dev:.3e} "
            f"|E[tau]-bound|={abs(r.expected_tau - r.bound):.3e} "
            f"lemma_dev={r.lemma_max_dev:.3e} -> {'ok' if ok else 'MISS'}"
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=2, sort_keys=True)
    print(f"wrote {args.out}")
    return 0 if all_ok else 2


if __name__ == "__main__":
    sys.exit(main())
