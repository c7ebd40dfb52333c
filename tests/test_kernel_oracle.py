"""The series kernel and the threshold estimate on local ints against their
reference copies in ``kernel_oracle.py``.

Over seeded grids, :func:`criteria._deformed_ratio_sum` must return the
same :class:`SeriesResult` as the reference, verdict, both enclosures and
``terms_used``, and hand the same unrounded fixed-point sums to
``dyadic.fixed_enclosure``: a floor where a ceiling belongs moves those
sums by an ulp even where rounding to `bits` hides it.  A second grid
holds the sweep's long sums, whose powers ``x^(2m)`` and ``y^(2m)`` stop
moving at the working precision long before the last term: there the
kernel stops computing roots (its steady phase), and the reference does
not.  The thresholds' secant steps and candidate bracket ends must equal
their ``Fraction`` forms.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import kernel_oracle
from qclassfun import criteria, dyadic, fusion, scalars
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


def test_the_kernel_matches_its_reference_on_a_seeded_grid(monkeypatch):
    seen = set()
    for case in CASES:
        expected, expected_sums = _run(kernel_oracle.deformed_ratio_sum, case, monkeypatch)
        got, got_sums = _run(criteria._deformed_ratio_sum, case, monkeypatch)
        assert _fields(got) == _fields(expected), case[0]
        assert got_sums == expected_sums, case[0]
        seen.add(expected.verdict)
        if expected.partial_sum is not None and expected.partial_sum.bits > case[6]:
            seen.add("escalated")
    # the grid reaches every exit of the kernel
    assert seen == {Verdict.CONVERGES, Verdict.UNDETERMINED, "escalated"}


def _steady_cases() -> list[tuple]:
    """Seeded cases of the sweep's long sums, in the form of :func:`_kernel_cases`."""
    rng = random.Random(35)
    cases = []

    def ladder(name, family, tol, bits, max_terms, first=1):
        roots, y_low = criteria._fundamental_roots(family)
        step = 2 if family.kind is fusion.FamilyKind.SO3_LADDER else 1
        cases.append((name, roots, y_low, step, first, tol, bits, max_terms))

    verdict_tol, terms = Fraction(1, 10**6), criteria.DEFAULT_MAX_TERMS + 1
    for i in range(6):  # a few hundred terms each, as in the sweep's verdicts
        q = Fraction(rng.randint(170, 200), 1000)
        ladder(f"o-plus-5-{q}", fusion.su2_ladder(5, q=q), verdict_tol, 128, terms, 1 + i % 2)
    for n_fund in (4, 5, 6):
        for _ in range(2):
            dim_q = Fraction(rng.randint(1000 * n_fund + 250, 1000 * n_fund + 350), 1000)
            ladder(f"so3-{n_fund}-{dim_q}", fusion.so3_ladder(n_fund, dim_q_fund=dim_q),
                   verdict_tol, rng.choice((64, 128)), terms, rng.choice((1, 2)))
    for n_fund, low, high in ((3, 300, 370), (4, 200, 260)):  # q_c near 0.382 and 0.268
        q_c = dyadic.exact_endpoints(scalars.solve_fundamental_q(n_fund))
        for _ in range(3):
            q_q = Fraction(rng.randint(low, high), 1000)
            cases.append((f"fund:{n_fund}-{q_q}", _hull_roots(q_c, (q_q, q_q)), q_q, 1, 2,
                          Fraction(1, 10**9), 128, criteria.DEFAULT_MAX_TERMS))
    # x^(2m) steps by about 0.15 and y^(2m) by about 0.14: their ceilings stall at 1 early,
    # and a budget-capped sum runs out of terms in the steady phase
    near = fusion.su2_ladder(3, dim_q_fund="3007/1000")
    ladder("o-plus-3-3007/1000", near, Fraction(1, 10**6), 128, 1501)
    ladder("o-plus-3-3007/1000-step-2", near, Fraction(1, 10**9), 64, 3000, 2)
    # roots nearer 1, where the ceiling of x^(2m) stalls several ulps above 0
    for x in (Fraction(9, 10), Fraction(4, 5)):
        y = x * Fraction(19, 20)
        cases.append((f"hull-{x}", _hull_roots((x, x), (y, y)), y, 1, 1, Fraction(1, 10**12),
                      64, 2000))
    # tol is the lower end of the majorant's enclosure at term 200 at the first
    # precision (p = 143): the sum runs out of terms in the steady phase with
    # that majorant not certainly above tol, so it is summed again at 256 bits.
    gap = Fraction(7456196971809983553957862677036417789218236, 1 << 143)
    ladder("escalates-after-max-terms", fusion.su2_ladder(5, q="1/5"), gap, 128, 200)
    return cases


STEADY_CASES = _steady_cases()


def _steady_term(case) -> int | None:
    """The term from which the powers ``x^(2m)`` and ``y^(2m)`` stop moving at
    the kernel's first precision, stepped as the reference steps them."""
    _, roots, y_low, step, first, tol, bits, max_terms = case
    limit = min(tol, y_low) if y_low > 0 else tol
    p = criteria._point_bits(bits, limit.as_integer_ratio()) + max_terms.bit_length()
    x, y = roots(p)
    x2, y2 = dyadic.fixed_mul(x, x, p), dyadic.fixed_mul(y, y, p)
    xs, ys = kernel_oracle.fixed_power(x2, step, p), kernel_oracle.fixed_power(y2, step, p)
    xm, ym = kernel_oracle.fixed_power(x2, first, p), kernel_oracle.fixed_power(y2, first, p)
    for term in range(1, max_terms):
        powers = dyadic.fixed_mul(xm, xs, p), dyadic.fixed_mul(ym, ys, p)
        if powers == (xm, ym):
            return term
        xm, ym = powers
    return None


def test_the_steady_phase_matches_the_reference(monkeypatch):
    escalated = 0
    for case in STEADY_CASES:
        steady = _steady_term(case)
        expected, expected_sums = _run(kernel_oracle.deformed_ratio_sum, case, monkeypatch)
        got, got_sums = _run(criteria._deformed_ratio_sum, case, monkeypatch)
        assert _fields(got) == _fields(expected), case[0]
        assert got_sums == expected_sums, case[0]
        # each case is summed at its first precision, well past the term
        # where its powers stop moving there
        assert expected_sums[0][3] == case[6], case[0]
        assert steady is not None and steady < expected.terms_used - 20, case[0]
        if expected.verdict is Verdict.UNDETERMINED and expected.partial_sum.bits > case[6]:
            escalated += 1
    assert escalated >= 1
    assert {case[3] for case in STEADY_CASES} == {1, 2}
    assert {case[4] for case in STEADY_CASES} == {1, 2}


def test_the_grid_has_unseparated_roots_and_both_root_kinds():
    unseparated = unit = 0
    for name, roots, y_low, _, _, tol, bits, max_terms in CASES:
        limit = min(tol, y_low) if y_low > 0 else tol
        p = criteria._point_bits(bits, limit.as_integer_ratio()) + max_terms.bit_length()
        (x_lo, x_hi), (y_lo, y_hi) = roots(p)
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
            checked.clear()
            with pytest.raises(DomainError, match="no sign change"):
                criteria._unit_crossing(f, slopes, lo, hi, tol, 64, estimate)
            got = [Fraction(*x) for x in checked]
            assert got[-1] == hi
            assert got[:-1] == kernel_oracle.candidate_ends(estimate, tol, lo, hi), (estimate, tol)
            clamped.update(end for end in got[:-1] if end in (lo, hi))
    assert clamped == {lo, hi}


def test_slopes_run_once_per_certificate():
    f, slopes = criteria._CROSSINGS["dim2"]
    calls = []

    def counted(x, p):
        calls.append(p)
        return slopes(x, p)

    lo, hi = criteria._SEARCH_LO, criteria._SEARCH_HI
    for tol in (Fraction(1, 10**3), Fraction(1, 10**9), Fraction(1, 10**20)):
        criteria._unit_crossing(f, counted, lo, hi, tol, 64, Fraction(861, 10000))
    assert len(calls) == 1
    criteria._unit_crossing(f, counted, lo, hi, Fraction(1, 10**6), 128, Fraction(861, 10000))
    criteria._unit_crossing(f, counted, lo, hi, Fraction(1, 10**6), 128, Fraction(1, 10))
    assert len(calls) == 2
    criteria._unit_crossing(f, counted, Fraction(1, 50), hi, Fraction(1, 10**6), 64,
                            Fraction(861, 10000))
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
                                    Fraction(1, 1000), 64, Fraction(861, 10000))
    # every doubling from 64 to MAX_BITS, again on each call
    assert len(calls) == 3 * len(criteria._doublings(64))
