#!/usr/bin/env python3
"""Scan certified block sums against their closed-form bounds.

Sweeps the deformation parameter for the dimension-2 free-unitary case and
prints a plot-ready CSV: certified sum enclosure, closed-form bound, and
whether the sum is certified below or above 1.  The crossing visible in the
table brackets the certified thresholds reported by the `threshold`
subcommand.
"""

from __future__ import annotations

import argparse
from fractions import Fraction

from qclassfun import criteria, dyadic, intervals


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=24)
    parser.add_argument("--q-min", default="0.01")
    parser.add_argument("--q-max", default="0.24")
    parser.add_argument("--bits", type=int, default=128)
    parser.add_argument("--tol", default="1e-9")
    args = parser.parse_args()

    lo, hi = Fraction(args.q_min), Fraction(args.q_max)
    step = (hi - lo) / (args.points - 1)
    print("q,sum_lo,sum_hi,bound_hi,verdict")
    for k in range(args.points):
        q = lo + k * step
        result = criteria.block_sum_S(1, q, args.tol, bits=args.bits)
        enclosure = result.sum_enclosure()
        bound = criteria.bound_S_dim2(q, bits=args.bits)
        sum_lo, sum_hi = dyadic.exact_endpoints(enclosure)
        if sum_hi < 1:
            verdict = "below-1"
        elif sum_lo > 1:
            verdict = "above-1"
        else:
            verdict = "straddles-1"
        s_lo, s_hi = intervals.to_decimal_pair(enclosure, 12)
        _, b_hi = intervals.to_decimal_pair(bound, 12)
        print(f"{float(q):.6f},{s_lo},{s_hi},{b_hi},{verdict}")


if __name__ == "__main__":
    main()
