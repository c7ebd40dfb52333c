#!/usr/bin/env python3
"""Profile the exponential decay of dimension ratios for a ladder family.

Prints, for each label n, the exact quantum/classical ratio A_n, the
certified geometric floor c^(n-1) A_1, and the square-root series term.
The final line reports the certified sum of the quasi-split series.
"""

from __future__ import annotations

import argparse
from fractions import Fraction

from qclassfun import criteria, dyadic, fusion


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", choices=["o-plus", "so3"], default="o-plus")
    parser.add_argument("--N", type=int, default=3)
    parser.add_argument("--qq", default="0.2", help="deformation (o-plus only)")
    parser.add_argument("--dimq", default=None, help="direct quantum dimension")
    parser.add_argument("--n-max", type=int, default=20)
    parser.add_argument("--tol", default="1e-8")
    args = parser.parse_args()

    if args.kind == "o-plus":
        if args.dimq is not None:
            family = fusion.su2_ladder(args.N, dim_q_fund=Fraction(args.dimq))
        else:
            family = fusion.su2_ladder(args.N, q=Fraction(args.qq))
    else:
        family = fusion.so3_ladder(args.N, dim_q_fund=Fraction(args.dimq or 5))

    # One table of labels 0..n_max, and label 1 for A_1: rows (d, D, scale), A_n = D/(d scale).
    table = fusion.scaled_dims(range(max(args.n_max, 1) + 1), family)
    a1 = Fraction(table[1][1], table[1][0] * table[1][2])
    c = 1 + (a1 - 1)
    print(f"# family={args.kind} N={args.N} A_1={a1} c={c}")
    print("n,dim,A_n,floor,term")
    floor = Fraction(1)
    for n in range(args.n_max + 1):
        classical, quantum, scale = table[n]
        a_n = Fraction(quantum, classical * scale)
        if n >= 1:
            floor = a1 * c ** (n - 1)
        term = float(a_n) ** -0.5
        print(f"{n},{classical},{float(a_n):.6g},{float(floor):.6g},{term:.6g}")

    result = criteria.quasi_split_sum_ladder(family, args.tol)
    if result.verdict is criteria.Verdict.CONVERGES:
        lo, hi = dyadic.to_decimal_pair(result.sum_enclosure(), 12)
        print(f"# series converges: [{lo}, {hi}] using {result.terms_used} terms")
    else:
        print(f"# series verdict: {result.verdict.value}")


if __name__ == "__main__":
    main()
