"""The series kernel and the threshold estimate on local ints against their
reference copies in ``kernel_oracle.py``.

Over seeded grids, :func:`criteria._deformed_ratio_sum` must return the
same :class:`SeriesResult` as its reference, verdict, both enclosures and
``terms_used``, and hand the same unrounded fixed-point sums to
``dyadic.fixed_enclosure``: a floor where a ceiling belongs moves those
sums by an ulp even where rounding to `bits` hides it.  The reference is
the term-by-term kernel at ``x = 1`` and Kummer's transformation for
``x < 1``, where the term-by-term kernel's enclosure must also meet the
kernel's, in at least as many terms.  The thresholds' secant steps and
candidate bracket ends must equal their ``Fraction`` forms.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import kernel_oracle
from qclassfun import criteria, dyadic, fusion
from qclassfun.criteria import Verdict
from qclassfun.errors import DomainError

BITS = (16, 128, 1024)
MAX_TERMS = (1, 2, 3, 5, 12, 60, 400)


def _hull_roots(x: tuple[Fraction, Fraction], y: tuple[Fraction, Fraction]):
    def roots(p):
        return dyadic.fixed_hull(*x, p), dyadic.fixed_hull(*y, p)
    return roots


def _kernel_cases() -> list[tuple]:
    """Seeded ``(name, roots, y_low, step, first, tol, bits, max_terms)``."""
    rng = random.Random(20260)
    cases = []

    def tol() -> Fraction:
        return Fraction(rng.randint(1, 9), 10 ** rng.randint(3, 30))

    for i in range(480):
        step, first = rng.choice((1, 2)), rng.choice((1, 2))
        kind = i % 4
        if kind == 0:  # unit root: x = 1 exactly
            x = (Fraction(1), Fraction(1))
            y_value = Fraction(rng.randint(1, 999), 1000)
        elif kind == 1:  # x below 1, y below x
            x_value = Fraction(rng.randint(20, 999), 1000)
            x = (x_value, x_value)
            y_value = x_value * Fraction(rng.randint(1, 99), 100)
        elif kind == 2:  # not separated at 16 bits: x within 2^-j of 1, or y of x
            x_value = (1 - Fraction(1, 1 << rng.randint(50, 70)) if i % 8 == 2
                       else Fraction(rng.randint(300, 700), 1000))
            x = (x_value, x_value)
            y_value = x_value - Fraction(1, 1 << rng.randint(50, 70))
        else:  # tiny y, wide hulls, y_low 0 or a true lower bound
            x_value = Fraction(rng.randint(500, 999), 1000)
            x = (x_value, x_value + Fraction(1, 1 << rng.randint(20, 80)))
            y_value = Fraction(1, 10 ** rng.randint(2, 40))
        y = (y_value, y_value + (Fraction(1, 1 << rng.randint(30, 90)) if kind == 3 else 0))
        y_low = 0 if kind == 3 and rng.random() < 0.5 else y[0]
        bits, max_terms, tolerance = rng.choice(BITS), rng.choice(MAX_TERMS), tol()
        if kind == 2:  # the fixed point at 16 bits stops short of 2^-50
            bits, max_terms = 16, min(max_terms, 12)
            tolerance = Fraction(rng.randint(1, 9), 10 ** rng.randint(3, 6))
        cases.append((f"hull-{i}", _hull_roots(x, y), y_low, step, first, tolerance, bits,
                      max_terms))
    families = [fusion.su2_ladder(2, q="1/3"), fusion.su2_ladder(3, q="1/5"),
                fusion.so3_ladder(3, dim_q_fund="7/2"), fusion.so3_ladder(4, dim_q_fund="21/2"),
                fusion.free_unitary(2, q="3/20")]
    for family in families:
        roots, y_low = criteria._fundamental_roots(family)
        step = 2 if family.kind is fusion.FamilyKind.SO3_LADDER else 1
        for first in (1, 2):
            for bits in BITS:
                for max_terms in (3, 400):
                    cases.append((f"{family.kind.value}-{family.dim_c_fund}-{first}-{bits}",
                                  roots, y_low, step, first, tol(), bits, max_terms))
    return cases


CASES = _kernel_cases()


def _run(kernel, case, monkeypatch) -> tuple:
    """The result of `kernel` on `case` and the fixed-point sums it rounded."""
    handed = []
    fixed_enclosure = dyadic.fixed_enclosure

    def recorded(lo, hi, p, bits):
        handed.append((lo, hi, p, bits))
        return fixed_enclosure(lo, hi, p, bits)

    monkeypatch.setattr(dyadic, "fixed_enclosure", recorded)
    try:
        result = kernel(*case[1:])
    finally:
        monkeypatch.setattr(dyadic, "fixed_enclosure", fixed_enclosure)
    return result, handed


def _fields(result) -> tuple:
    return result.verdict, result.partial_sum, result.tail_bound, result.terms_used


def _first_point(case) -> int:
    """The kernel's first fixed point ``p`` for `case`."""
    _, _, y_low, _, _, tol, bits, max_terms = case
    limit = min(tol, y_low) if y_low > 0 else tol
    return criteria._point_bits(bits, limit.as_integer_ratio()) + max_terms.bit_length()


def _unit(case) -> bool:
    """The classical root of `case` is exactly 1."""
    p = _first_point(case)
    return case[1](p)[0] == (1 << p, 1 << p)


def _meet(a, b) -> bool:
    (a_lo, a_hi), (b_lo, b_hi) = dyadic.exact_endpoints(a), dyadic.exact_endpoints(b)
    return a_lo <= b_hi and b_lo <= a_hi


def test_the_kernel_matches_its_reference_on_a_seeded_grid(monkeypatch):
    seen = set()
    for case in CASES:
        expected, expected_sums = _run(kernel_oracle.deformed_ratio_sum, case, monkeypatch)
        got, got_sums = _run(criteria._deformed_ratio_sum, case, monkeypatch)
        if _unit(case):
            assert _fields(got) == _fields(expected), case[0]
            assert got_sums == expected_sums, case[0]
        elif expected.verdict is Verdict.CONVERGES:
            # summed by Kummer's transformation: an enclosure that meets the
            # reference's, in at most as many terms
            assert got.verdict is Verdict.CONVERGES, case[0]
            assert got.terms_used <= expected.terms_used, case[0]
            assert _meet(got.sum_enclosure(), expected.sum_enclosure()), case[0]
        seen.add(got.verdict)
        if got.partial_sum is not None and got.partial_sum.bits > case[6]:
            seen.add("escalated")
    # the grid reaches every exit of the kernel
    assert seen == {Verdict.CONVERGES, Verdict.UNDETERMINED, "escalated"}


def test_the_kummer_sums_match_their_reference(monkeypatch):
    # for x < 1 the kernel gives the ints of its reference written with one
    # dyadic.fixed_* call per operation, its fixed-point sums and their p included
    kummer = [case for case in CASES if not _unit(case)]
    verdicts = set()
    for case in kummer:
        expected, expected_sums = _run(kernel_oracle.kummer_sum, case, monkeypatch)
        got, got_sums = _run(criteria._deformed_ratio_sum, case, monkeypatch)
        assert _fields(got) == _fields(expected), case[0]
        assert got_sums == expected_sums, case[0]
        verdicts.add(got.verdict)
    assert len(kummer) >= 300 and verdicts == {Verdict.CONVERGES, Verdict.UNDETERMINED}


def test_the_grid_has_unseparated_roots_and_both_root_kinds():
    unseparated = unit = 0
    for case in CASES:
        p = _first_point(case)
        (x_lo, x_hi), (y_lo, y_hi) = case[1](p)
        unit += x_lo == x_hi == 1 << p
        unseparated += y_hi >= x_lo or x_lo < 1 << p <= x_hi
    assert unit >= 100 and unseparated >= 100


@pytest.mark.parametrize("which", ["dim2", "remark"])
def test_the_secant_steps_match_their_fraction_form(which):
    f = criteria._CROSSINGS[which][0]
    lo, hi = criteria._SEARCH_LO, criteria._SEARCH_HI
    rng = random.Random(33 + len(which))
    starts = [(lo, hi), (hi, lo), (Fraction(1, 5), Fraction(3, 10)), (Fraction(9, 20), hi)]
    starts += [tuple(Fraction(rng.randint(1, 499), 1000) for _ in range(2)) for _ in range(12)]
    for x0, x1 in starts:
        if x0 == x1:
            continue
        for bits, steps, stop in ((64, 64, Fraction(1, 1 << 64)), (146, 6, Fraction(1, 10**30)),
                                  (16, 3, Fraction(1, 1000)), (300, 6, Fraction(1, 10**60))):
            expected = kernel_oracle.secant(f, x0, x1, bits, steps, stop, lo, hi)
            got = criteria._secant(f, x0.as_integer_ratio(), x1.as_integer_ratio(), bits, steps,
                                   stop.as_integer_ratio())
            assert [Fraction(*x) for x in got] == list(expected), (x0, x1, bits)


def test_the_candidate_ends_match_their_fraction_form(monkeypatch):
    # every point certified below 1: the candidate ends are checked in order,
    # then the upper end of the search interval, which refutes the crossing
    checked = []
    monkeypatch.setattr(criteria, "_below_one", lambda f, x, bits: checked.append(x) or True)
    f, slopes = criteria._CROSSINGS["dim2"]
    rng = random.Random(4)
    lo, hi = Fraction(1, 100), Fraction(1, 2)
    clamped = set()
    estimates = [Fraction(1, 100), Fraction(1, 2), Fraction(5), Fraction(-1), Fraction(3, 10)]
    estimates += [Fraction(rng.randint(-100, 700), rng.randint(1, 1000)) for _ in range(200)]
    for estimate in estimates:
        for _ in range(4):
            tol = Fraction(rng.randint(1, 10**6), 10 ** rng.randint(0, 40))
            # the estimate as a reduced and as an unreduced int pair, as the secant gives it
            for given in (estimate.as_integer_ratio(),
                          (3 * estimate.numerator, 3 * estimate.denominator)):
                checked.clear()
                with pytest.raises(DomainError, match="no sign change"):
                    criteria._unit_crossing(f, slopes, lo, hi, tol, 64, given)
                got = [Fraction(*x) for x in checked]
                assert got[-1] == hi
                assert got[:-1] == kernel_oracle.candidate_ends(estimate, tol, lo, hi), (given, tol)
                clamped.update(end for end in got[:-1] if end in (lo, hi))
    assert clamped == {lo, hi}


def test_slopes_run_once_per_certificate():
    f, slopes = criteria._CROSSINGS["dim2"]
    calls = []

    def counted(x, p):
        calls.append(p)
        return slopes(x, p)

    lo, hi = criteria._SEARCH_LO, criteria._SEARCH_HI
    estimate = (861, 10000)
    for tol in (Fraction(1, 10**3), Fraction(1, 10**9), Fraction(1, 10**20)):
        criteria._unit_crossing(f, counted, lo, hi, tol, 64, estimate)
    assert len(calls) == 1
    criteria._unit_crossing(f, counted, lo, hi, Fraction(1, 10**6), 128, estimate)
    criteria._unit_crossing(f, counted, lo, hi, Fraction(1, 10**6), 128, (1, 10))
    assert len(calls) == 2
    criteria._unit_crossing(f, counted, Fraction(1, 50), hi, Fraction(1, 10**6), 64, estimate)
    assert len(calls) == 3


def test_a_failing_certificate_raises_on_every_call():
    f = criteria._CROSSINGS["dim2"][0]
    calls = []

    def falling(x, p):
        calls.append(p)
        return ((-1, 1),)

    for _ in range(3):
        with pytest.raises(DomainError, match="increasing"):
            criteria._unit_crossing(f, falling, criteria._SEARCH_LO, criteria._SEARCH_HI,
                                    Fraction(1, 1000), 64, (861, 10000))
    # every doubling from 64 to MAX_BITS, again on each call
    assert len(calls) == 3 * len(criteria._doublings(64))
