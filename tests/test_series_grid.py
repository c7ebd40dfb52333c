"""A frozen grid of certified series: the kernel's term counts and enclosures.

`series_grid.json` holds, for 58 block and ladder sums at tol 1e-6, the
`terms_used` and the exact endpoints of the sum enclosure as the kernel
produced them when the grid was recorded.  A change to the kernel must keep
every term count and give an enclosure that meets the recorded one.  The
fixture is regenerated (only for an intended change, explained in
CHANGES.md) with

    PYTHONPATH=src python tests/test_series_grid.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qclassfun import budgets, dyadic
from qclassfun.criteria import block_sum_S, quasi_split_sum_ladder
from qclassfun.fusion import so3_ladder, su2_ladder
from qclassfun.scalars import solve_fundamental_q

FIXTURE = Path(__file__).resolve().parent / "series_grid.json"
TOL = Fraction(1, 10**6)

#: q_q from 0.05 to 0.95 against q_c = 1, and 0.019 to 0.361 below the
#: classical root of 3 (about 0.382).
UNIT_GRID = [Fraction(k, 20) for k in range(1, 20)]
BELOW_ROOT_GRID = [Fraction(19 * k, 1000) for k in range(1, 20)]
LADDER_UNIT = [Fraction(15 * k, 100) for k in range(1, 6)]  # 0.15 .. 0.75
LADDER_BELOW = [Fraction(19, 1000), Fraction(95, 1000), Fraction(19, 100),
                Fraction(285, 1000), Fraction(361, 1000)]


def _root_of_three():
    return solve_fundamental_q(3, bits=budgets.DEFAULT_BITS)


def _cases() -> dict:
    """{name: thunk} for the 58 sums: 38 block sums and 20 ladder sums
    (o-plus N = 2 and so3 N = 3 with a classical root of exactly 1, o-plus
    N = 3 and so3 N = 4 with one below 1)."""
    cases = {}
    for q in UNIT_GRID:
        cases[f"block q_c=1 q_q={q}"] = lambda q=q: block_sum_S(1, q, TOL)
    for q in BELOW_ROOT_GRID:
        cases[f"block q_c=root3 q_q={q}"] = lambda q=q: block_sum_S(_root_of_three(), q, TOL)
    for n, grid in ((2, LADDER_UNIT), (3, LADDER_BELOW)):
        for q in grid:
            cases[f"o-plus N={n} qq={q}"] = (
                lambda n=n, q=q: quasi_split_sum_ladder(su2_ladder(n, q=q), TOL))
    for n, grid in ((3, LADDER_UNIT), (4, LADDER_BELOW)):
        for q in grid:
            cases[f"so3 N={n} dimq=1+s+1/s s={q}"] = (
                lambda n=n, q=q: quasi_split_sum_ladder(so3_ladder(n, dim_q_fund=1 + q + 1 / q),
                                                        TOL))
    return cases


CASES = _cases()


def _record(result) -> dict:
    lo, hi = dyadic.exact_endpoints(result.sum_enclosure())
    return {"terms_used": result.terms_used, "lo": str(lo), "hi": str(hi)}


def test_grid_has_58_cases():
    assert len(CASES) == 58
    assert sorted(json.loads(FIXTURE.read_text(encoding="utf-8"))) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_grid_terms_and_enclosure_meet_the_recorded_ones(name):
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))[name]
    got = _record(CASES[name]())
    assert got["terms_used"] == recorded["terms_used"]
    lo, hi = Fraction(got["lo"]), Fraction(got["hi"])
    assert lo <= Fraction(recorded["hi"]) and Fraction(recorded["lo"]) <= hi


if __name__ == "__main__":
    records = {name: _record(thunk()) for name, thunk in CASES.items()}
    FIXTURE.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
