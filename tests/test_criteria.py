"""Certified series, bounds, thresholds and verdict logic."""

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath.libmp import from_man_exp

from qclassfun import criteria, dyadic, fusion
from qclassfun.budgets import DEFAULT_BITS, MAX_DIM_DIGITS, MAX_TABLE_DIGITS
from qclassfun.criteria import (
    Verdict,
    VERDICT_NO_CONCLUSION,
    VERDICT_NOT_MASA,
    VERDICT_RELATIVE_COMMUTANT,
    block_sum_S,
    bound_S_dim2,
    bound_S_dimge3,
    kac_part,
    masa_verdict,
    quasi_split_sum_ladder,
    threshold_dim2,
    threshold_ratio_dimge3,
    threshold_remark,
    total_sum_free,
    verify_decay,
)
from qclassfun.errors import BudgetError, DomainError, FamilyError, KacTypeError
from qclassfun.fusion import free_unitary, so3_ladder, su2_ladder
from qclassfun.scalars import solve_fundamental_q
import kernel_oracle
from interval_oracle import context, make, to_enclosure

TOL = Fraction(1, 10**6)


def _lo(enclosure: dyadic.Enclosure) -> Fraction:
    return dyadic.exact_endpoints(enclosure)[0]


def _hi(enclosure: dyadic.Enclosure) -> Fraction:
    return dyadic.exact_endpoints(enclosure)[1]


def _holds(enclosure: dyadic.Enclosure, value) -> bool:
    return _lo(enclosure) <= value <= _hi(enclosure)


def _width(enclosure: dyadic.Enclosure) -> Fraction:
    return _hi(enclosure) - _lo(enclosure)


def _overlap(x: dyadic.Enclosure, y: dyadic.Enclosure) -> bool:
    return _lo(x) <= _hi(y) and _lo(y) <= _hi(x)


def _within(enclosure: dyadic.Enclosure, lo: str, hi: str) -> bool:
    return Fraction(lo) <= _lo(enclosure) and _hi(enclosure) <= Fraction(hi)


def ratios(labels, family) -> list[Fraction]:
    """Exact classical/quantum dimension ratios of `labels`, read from one
    table of :func:`fusion.scaled_dims`."""
    return [Fraction(classical * scale, quantum)
            for classical, quantum, scale in fusion.scaled_dims(labels, family)]


def _holds_mpf(enclosure: dyadic.Enclosure, value: mpmath.mpf) -> bool:
    """`enclosure` holds the mpmath real `value`, its endpoints read exactly."""
    lo, hi = (mpmath.mp.make_mpf(from_man_exp(*end)) for end in (enclosure.lo, enclosure.hi))
    return lo <= value <= hi


# ---------------------------------------------------------------------------
# ratio and decay


def test_ratio_examples():
    fam = su2_ladder(2, dim_q_fund=Fraction(5, 2))
    assert ratios([0, 1], fam) == [1, Fraction(4, 5)]
    assert ratios(range(6), su2_ladder(3)) == [1] * 6


def test_ratio_never_exceeds_one():
    fam = so3_ladder(4, dim_q_fund=5)
    assert all(ratio <= 1 for ratio in ratios(range(25), fam))


def test_verify_decay_examples():
    assert verify_decay(su2_ladder(3, q=Fraction(1, 5)), 30)
    assert verify_decay(so3_ladder(4, dim_q_fund=5), 30)
    with pytest.raises(KacTypeError):
        verify_decay(su2_ladder(2), 10)
    with pytest.raises(FamilyError):
        verify_decay(free_unitary(2, q=Fraction(1, 10)), 10)


def test_verify_decay_reads_one_table(monkeypatch):
    tables = []
    exact = fusion.scaled_dims

    def recorded(labels, family):
        tables.append(list(labels))
        return exact(tables[-1], family)

    monkeypatch.setattr(fusion, "scaled_dims", recorded)
    assert verify_decay(su2_ladder(3, q=Fraction(1, 5)), 30)
    assert tables == [list(range(1, 31))]
    # n_max = 0 still reads A_1, which decides the Kac case
    tables.clear()
    with pytest.raises(KacTypeError):
        verify_decay(su2_ladder(2), 0)
    assert tables == [[1]]


# ---------------------------------------------------------------------------
# ladder summation


def test_quasi_split_sum_converges_su2():
    fam = su2_ladder(2, dim_q_fund=Fraction(17, 4))  # deformation 1/4
    result = quasi_split_sum_ladder(fam, TOL)
    assert result.verdict is Verdict.CONVERGES
    assert _width(result.tail_bound) <= TOL
    # sum starts at 1 (trivial label) and stays finite
    total = result.sum_enclosure()
    assert _lo(total) > 1
    assert _hi(total) < 3


def test_quasi_split_sum_converges_so3():
    result = quasi_split_sum_ladder(so3_ladder(4, dim_q_fund=10), TOL)
    assert result.verdict is Verdict.CONVERGES


def test_quasi_split_sum_diverges_for_kac():
    assert quasi_split_sum_ladder(su2_ladder(2), TOL).verdict is Verdict.DIVERGES


def _fusion_ratio_sum(labels: list, family, ladder, ctx):
    """The independent route: ``sqrt(d/D)`` of `labels` from the exact
    dimension table, summed in `ctx`, and the paper's geometric tail after
    the last label.  The decay lemma ``A_(n+1) >= c A_n`` with
    ``c = 1 + (A_1 - 1)`` for `ladder`, the su2 ladder of the same
    dimensions, is checked exactly up to the last label and bounds each
    later term by the last one times ``c^(-1/2)`` per label."""
    terms = [ctx.sqrt(make(ratio, ctx)) for ratio in ratios(labels, family)]
    assert verify_decay(ladder, len(labels))
    rate = ctx.sqrt(make(ratios([1], ladder)[0], ctx))  # c^(-1/2) = A_1^(-1/2)
    return sum(terms, make(0, ctx)), terms[-1] * rate / (1 - rate)


def _holds_sum(result, independent, tail) -> bool:
    """The sum enclosure of `result` meets ``independent + [0, tail]``."""
    total = result.sum_enclosure()
    return (_lo(to_enclosure(independent)) <= _hi(total)
            and _lo(total) <= _hi(to_enclosure(independent + tail)))


def test_quasi_split_sum_matches_fusion_ratios():
    fam = su2_ladder(3, q=Fraction(1, 5))
    result = quasi_split_sum_ladder(fam, TOL)
    ctx = context(160)
    independent, tail = _fusion_ratio_sum(list(range(260)), fam, fam, ctx)
    assert _hi(to_enclosure(tail)) < Fraction(1, 10**30)
    assert _holds_sum(result, independent, tail)


def test_quasi_split_sum_budget_exhaustion():
    fam = su2_ladder(2, dim_q_fund=Fraction(9, 4))
    result = quasi_split_sum_ladder(fam, Fraction(1, 10**80), max_terms=5)
    assert result.verdict is Verdict.UNDETERMINED


def test_quasi_split_sum_rejects_free_family():
    with pytest.raises(FamilyError):
        quasi_split_sum_ladder(free_unitary(2), TOL)


def test_ladder_majorant_below_the_papers_at_the_stopping_index():
    families = [
        su2_ladder(2, q=Fraction(1, 4)), su2_ladder(2, q=Fraction(3, 4)),
        su2_ladder(3, q=Fraction(1, 5)), su2_ladder(5, q=Fraction(1, 10)),
        so3_ladder(3, dim_q_fund=5), so3_ladder(4, dim_q_fund=5),
    ]
    for family in families:
        result = quasi_split_sum_ladder(family, TOL)
        assert result.verdict is Verdict.CONVERGES
        n = result.terms_used - 1
        # the paper's lemma A_(k+1) >= c A_k, exactly, up to the stopping label
        assert verify_decay(family, n)
        a1 = 1 / ratios([1], family)[0]
        with mpmath.workdps(50):
            y = 1 / mpmath.sqrt(mpmath.mpf(a1.numerator) / a1.denominator)
            paper = y * y**n / (1 - y)
        assert mpmath.mp.make_mpf(from_man_exp(*result.tail_bound.hi)) <= paper


def test_oplus_dim2_ladder_is_one_plus_the_block_sum():
    for qq in (Fraction(1, 20), Fraction(1, 2), Fraction(4, 5)):
        ladder = quasi_split_sum_ladder(su2_ladder(2, q=qq), TOL).sum_enclosure()
        block = block_sum_S(1, qq, TOL).sum_enclosure()
        assert _lo(ladder) <= 1 + _hi(block) and 1 + _lo(block) <= _hi(ladder)


def test_ladder_near_unit_deformation_converges_within_budget():
    result = quasi_split_sum_ladder(su2_ladder(2, q=Fraction(99, 100)), TOL)
    assert result.verdict is Verdict.CONVERGES
    assert result.terms_used <= criteria.DEFAULT_MAX_TERMS
    assert _width(result.tail_bound) <= TOL


def test_ladder_and_block_at_tiny_deformation_converge():
    q = Fraction(1, 10**25)
    for family in (su2_ladder(2, q=q), so3_ladder(3, dim_q_fund=1 + q + 1 / q)):
        assert quasi_split_sum_ladder(family, TOL).verdict is Verdict.CONVERGES
    assert masa_verdict(free_unitary(2, q=q)).verdict_text == VERDICT_RELATIVE_COMMUTANT
    # a block sum near 4.5e-13 keeps about 128 significant bits: the fixed
    # point's scale follows the quantum root, not only tol
    lo, hi = dyadic.exact_endpoints(block_sum_S(1, q, TOL).partial_sum)
    assert 0 < hi - lo < lo / 2**120


def test_ladder_near_kac_converges():
    # 1 - w is about 2e-4: Kummer's transformation sums the terms' fast
    # remainder, where the term-by-term sum ran out of its budget
    family = su2_ladder(3, dim_q_fund=Fraction(3001, 1000))
    result = quasi_split_sum_ladder(family, TOL)
    assert result.verdict is Verdict.CONVERGES
    assert _hi(result.tail_bound) <= TOL
    assert kernel_oracle.holds_series(*dyadic.exact_endpoints(result.sum_enclosure()),
                                      kernel_oracle.family_roots(family), 1, 1)


@pytest.mark.parametrize("bits", [-5, 0, criteria.MAX_BITS + 1, 2048])
def test_series_reject_bits_outside_range(bits):
    calls = [
        lambda: quasi_split_sum_ladder(su2_ladder(3, q=Fraction(1, 5)), TOL, bits=bits),
        lambda: block_sum_S(1, Fraction(1, 20), TOL, bits=bits),
        lambda: bound_S_dim2(Fraction(1, 20), bits=bits),
        lambda: bound_S_dimge3(Fraction(1, 2), Fraction(1, 20), bits=bits),
        lambda: threshold_dim2(Fraction(1, 10**4), bits=bits),
        lambda: threshold_remark(Fraction(1, 10**4), bits=bits),
        lambda: threshold_ratio_dimge3(bits=bits),
        lambda: masa_verdict(su2_ladder(3, q=Fraction(1, 5)), bits=bits),
        lambda: masa_verdict(free_unitary(2, q=Fraction(1, 5)), bits=bits),
    ]
    for call in calls:
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("tol", [0, -1, "abc", "nan", Fraction(-1, 10**6)])
def test_series_reject_invalid_tolerance(tol):
    with pytest.raises(DomainError):
        quasi_split_sum_ladder(su2_ladder(3, q=Fraction(1, 5)), tol)
    with pytest.raises(DomainError):
        block_sum_S(1, Fraction(1, 20), tol)


# ---------------------------------------------------------------------------
# the shared series kernel against the mpmath oracle of kernel_oracle.py

KERNEL_TOL = Fraction(1, 10**10)
KERNEL_GRID = [Fraction(k, 100) for k in range(5, 100, 10)]  # 0.05 .. 0.95


def _kernel_case(kind: str, below_one: bool, qq: Fraction, bits: int):
    """The certified result at `bits` and the oracle's (roots, step, first).

    `below_one` picks a classical root below 1; otherwise it is exactly 1
    (o-plus N=2, so3 N=3, u-plus dimension 2)."""
    s = qq * Fraction(38, 100) if below_one else qq  # below the root of 3
    if kind == "o-plus":
        family = su2_ladder(3 if below_one else 2, q=s)
        return quasi_split_sum_ladder(family, KERNEL_TOL, bits=bits), (family, 1, 1)
    if kind == "so3":
        family = so3_ladder(4 if below_one else 3, dim_q_fund=1 + s + 1 / s)
        return quasi_split_sum_ladder(family, KERNEL_TOL, bits=bits), (family, 2, 1)
    q_c = solve_fundamental_q(3, bits=bits) if below_one else 1
    family = free_unitary(3 if below_one else 2, q=s)
    return block_sum_S(q_c, s, KERNEL_TOL, bits=bits), (family, 1, 2)


# Cases at the default precision keep the plain id `kind-below_one`.
@pytest.mark.parametrize("kind, below_one, bits", [
    pytest.param(kind, below_one, bits, id=f"{kind}-{below_one}"
                 + ("" if bits == DEFAULT_BITS else f"-{bits}"))
    for kind in ("o-plus", "so3", "u-plus") for below_one in (False, True)
    for bits in (16, 32, DEFAULT_BITS)
])
def test_kernel_encloses_closed_form_oracle(kind, below_one, bits):
    for qq in KERNEL_GRID:
        result, (family, step, first) = _kernel_case(kind, below_one, qq, bits)
        assert result.verdict is Verdict.CONVERGES, (kind, qq)
        assert _width(result.tail_bound) <= KERNEL_TOL
        roots = kernel_oracle.family_roots(family)
        assert kernel_oracle.holds_series(*dyadic.exact_endpoints(result.sum_enclosure()), roots,
                                          step, first), (kind, qq)


# ---------------------------------------------------------------------------
# block sums


def test_block_sum_below_one_at_small_deformation():
    result = block_sum_S(1, Fraction(5, 100), TOL)
    assert result.verdict is Verdict.CONVERGES
    assert _hi(result.sum_enclosure()) < 1


def test_block_sum_above_one_matches_remark():
    result = block_sum_S(1, Fraction(22, 100), TOL)
    assert result.verdict is Verdict.CONVERGES
    assert _lo(result.sum_enclosure()) > 1


@pytest.mark.parametrize("q_q, terms", [
    (Fraction(1, 20), 11), (Fraction(1, 5), 21), (Fraction(8029, 10000), 194),
])
def test_block_sum_terms_used_frozen(q_q, terms):
    # counts of the per-term Laurent summation this kernel replaced
    assert block_sum_S(1, q_q, TOL).terms_used == terms


def test_block_sum_enclosure_keeps_partial_lower_endpoint():
    # sum_enclosure() works at the series' own precision, not mpmath's ambient 53 bits
    result = block_sum_S(1, Fraction(1, 20), "1e-8")
    assert _lo(result.sum_enclosure()) == _lo(result.partial_sum)


def test_block_sum_kac_diverges():
    assert block_sum_S(Fraction(1, 2), Fraction(1, 2), TOL).verdict is Verdict.DIVERGES
    assert block_sum_S(1, 1, TOL).verdict is Verdict.DIVERGES
    # identical point enclosures, alone or against the exact value
    half = dyadic.rational_enclosure(Fraction(1, 2), Fraction(1, 2), 64)
    assert block_sum_S(half, half, TOL).verdict is Verdict.DIVERGES
    assert block_sum_S(Fraction(1, 2), half, TOL).verdict is Verdict.DIVERGES


@pytest.mark.parametrize("q_c, q_q", [
    (Fraction(1, 3) + Fraction(1, 10**25), Fraction(1, 3)),  # q_q < q_c by 1e-25
    (1 - Fraction(1, 10**30), Fraction(1, 2)),  # q_c below 1 by 1e-30
])
def test_block_sum_separates_close_exact_inputs_at_64_bits(q_c, q_q):
    # exact inputs enter the kernel's fixed point exactly, whose fraction
    # bits reach past the 1e-25 and 1e-30 gaps from 64 bits: no escalation,
    # and the answer agrees with the 128-bit one
    low = block_sum_S(q_c, q_q, TOL, bits=64)
    high = block_sum_S(q_c, q_q, TOL, bits=128)
    assert (low.verdict, low.terms_used) == (high.verdict, high.terms_used)
    assert low.partial_sum.bits == 64
    assert _lo(low.partial_sum) <= _lo(high.partial_sum)
    assert _hi(high.partial_sum) <= _hi(low.partial_sum)


def test_block_sum_overlapping_interval_inputs_are_undetermined():
    # no precision separates q_q from q_c, or q_c from 1: an answer, not an error
    wide = dyadic.rational_enclosure(Fraction(1, 4), Fraction(1, 2), 64)
    near_one = dyadic.rational_enclosure(Fraction(9, 10), Fraction(11, 10), 64)
    for q_c, q_q in [(wide, Fraction(3, 10)), (near_one, Fraction(1, 10))]:
        result = block_sum_S(q_c, q_q, TOL)
        assert (result.verdict, result.terms_used) == (Verdict.UNDETERMINED, 0)


def test_block_sum_domain_errors():
    with pytest.raises(DomainError):
        block_sum_S(Fraction(1, 2), Fraction(7, 10), TOL)  # q_q > q_c
    with pytest.raises(DomainError):
        block_sum_S(Fraction(3, 2), Fraction(1, 10), TOL)  # q_c > 1
    # q_q may be negative: its square root is refused, not summed as undetermined
    straddling = dyadic.rational_enclosure(Fraction(-1, 10), Fraction(1, 5), 64)
    with pytest.raises(DomainError, match="possibly negative"):
        block_sum_S(1, straddling, TOL)


def test_series_and_bounds_refuse_an_mpmath_interval():
    # an input is exact or an Enclosure; the oracle's to_enclosure converts an interval
    ctx = context(64)
    fifth = make(Fraction(1, 5), ctx)
    calls = [
        lambda: block_sum_S(1, fifth, TOL),
        lambda: block_sum_S(fifth, Fraction(1, 10), TOL),
        lambda: bound_S_dim2(fifth),
        lambda: bound_S_dimge3(Fraction(1, 2), fifth),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="need a finite rational"):
            call()
    converted = to_enclosure(fifth)
    assert block_sum_S(1, converted, TOL).verdict is Verdict.CONVERGES


def test_block_sum_increasing_in_deformation():
    # certified monotonicity on a grid of sample pairs at two fixed q_c
    for q_c in (1, Fraction(2, 5)):
        limit = Fraction(1, 4) if q_c == 1 else Fraction(1, 5)
        grid = [limit * k / 10 for k in range(1, 11)]
        sums = [
            block_sum_S(q_c, q_q, Fraction(1, 10**12)).sum_enclosure()
            for q_q in grid
        ]
        for left, right in zip(sums, sums[1:]):
            assert _hi(left) < _lo(right)


def test_block_sum_matches_family_dimensions():
    # independent route: terms from the exact family dimension recursion
    fam = free_unitary(3, dim_q_fund=5)
    ctx = context(192)
    q_c = solve_fundamental_q(3, bits=ctx.prec)
    q_q = solve_fundamental_q(5, bits=ctx.prec)
    result = block_sum_S(q_c, q_q, TOL)
    words = [fusion.alternating_word(n) for n in range(1, 300)]
    independent, tail = _fusion_ratio_sum(words, fam, su2_ladder(3, dim_q_fund=5), ctx)
    assert _hi(to_enclosure(tail)) < Fraction(1, 10**30)
    assert _holds_sum(result, independent, tail)


def _block(lo: Fraction, hi: Fraction) -> criteria.SeriesResult:
    """A converged block sum whose enclosure is the 128-bit enclosure of ``[lo, hi]``."""
    zero = dyadic.Enclosure((0, 0), (0, 0), 128)
    return criteria.SeriesResult(Verdict.CONVERGES, dyadic.rational_enclosure(lo, hi, 128), zero)


def test_total_sum_free_examples():
    zero = total_sum_free(_block(Fraction(0), Fraction(0)))
    assert zero.verdict is Verdict.CONVERGES
    assert _holds(zero.sum_enclosure(), 1)
    half = total_sum_free(_block(Fraction(1, 2), Fraction(1, 2)))
    assert _holds(half.sum_enclosure(), 3)
    assert total_sum_free(_block(Fraction(3, 2), Fraction(3, 2))).verdict is Verdict.DIVERGES
    straddle = total_sum_free(_block(Fraction(99, 100), Fraction(101, 100)))
    assert straddle.verdict is Verdict.UNDETERMINED
    with pytest.raises(DomainError):
        total_sum_free(_block(Fraction(-1), Fraction(1, 2)))
    for verdict in (Verdict.DIVERGES, Verdict.UNDETERMINED):
        assert total_sum_free(criteria.SeriesResult(verdict)).verdict is verdict


# ---------------------------------------------------------------------------
# closed-form bounds


def test_bound_dim2_frozen_values():
    # values recomputed with the exact closed form at high precision
    assert _within(bound_S_dim2("0.0861"), "0.999331", "0.999332")
    assert _within(bound_S_dim2("0.04"), "0.562050", "0.562051")


def test_bound_dim2_monotone_and_vanishing():
    small = bound_S_dim2(Fraction(1, 10**6))
    assert _hi(small) < Fraction(1, 100)
    grid = [Fraction(k, 20) for k in range(1, 16)]
    values = [bound_S_dim2(q) for q in grid]
    for left, right in zip(values, values[1:]):
        assert _hi(left) < _lo(right)


def test_bound_dimge3_frozen_value():
    assert _within(bound_S_dimge3("0.3", "0.03"), "0.484805", "0.484806")


def test_bound_dimge3_limits_and_domain():
    tiny = bound_S_dimge3(Fraction(3, 10), Fraction(3, 10**7))
    assert _hi(tiny) < Fraction(1, 100)
    with pytest.raises(DomainError):
        bound_S_dimge3(Fraction(1, 10), Fraction(2, 10))


def test_bounds_dominate_block_sums():
    small_tol = Fraction(1, 10**10)
    for q_q in (Fraction(2, 100), Fraction(5, 100), Fraction(8, 100)):
        s = block_sum_S(1, q_q, small_tol).sum_enclosure()
        assert _hi(s) <= _hi(bound_S_dim2(q_q))
    for q_c, q_q in ((Fraction(3, 10), Fraction(3, 100)),
                     (Fraction(38, 100), Fraction(4, 100))):
        s = block_sum_S(q_c, q_q, small_tol).sum_enclosure()
        assert _hi(s) <= _hi(bound_S_dimge3(q_c, q_q))


# ---------------------------------------------------------------------------
# thresholds


def test_threshold_dim2_encloses_published_value():
    enclosure = threshold_dim2(Fraction(1, 1000))
    assert _holds(enclosure, Fraction(861, 10000))
    assert _width(enclosure) <= Fraction(1, 1000)


def test_threshold_dim2_fine_tolerance_stays_in_window():
    enclosure = threshold_dim2(Fraction(1, 10**6))
    assert _width(enclosure) <= Fraction(1, 10**6)
    assert _within(enclosure, "0.086", "0.0862")


def test_threshold_ratio_value():
    enclosure = threshold_ratio_dimge3()
    assert _within(enclosure, "0.23067", "0.23069")
    assert _hi(enclosure) < 1
    q_c = solve_fundamental_q(3, bits=128)
    q_q = dyadic.rational_enclosure(_lo(q_c) * _lo(enclosure), _hi(q_c) * _hi(enclosure), 128)
    assert _holds(bound_S_dimge3(q_c, q_q), 1)


def test_threshold_remark_encloses_published_value():
    enclosure = threshold_remark(Fraction(1, 1000))
    assert _holds(enclosure, Fraction(2134, 10000))
    assert _width(enclosure) <= Fraction(1, 1000)


def test_remark_two_term_bound_brackets():
    ctx = context(128)

    def two_term(q):
        # the sum forms of [2]_q and [3]_q in the oracle's own arithmetic
        point = make(q, ctx)
        return ctx.sqrt(2 / (point**-1 + point)) + ctx.sqrt(3 / (point**-2 + 1 + point**2))

    assert two_term(Fraction(1, 4)).a > 1
    assert two_term(Fraction(1, 10)).b < 1


@pytest.mark.parametrize("tol", [Fraction(1, 10**18), Fraction(3, 10**20)])
@pytest.mark.parametrize("threshold", [threshold_dim2, threshold_remark])
def test_threshold_below_double_precision(threshold, tol):
    assert _width(threshold(tol)) <= tol


@pytest.mark.parametrize("tol, bits", [(Fraction(1, 10**18), 32), (Fraction(1, 10**6), 16)])
@pytest.mark.parametrize("threshold", [threshold_dim2, threshold_remark])
def test_threshold_width_within_tol_from_low_starting_bits(threshold, tol, bits):
    # the final bracket is rounded outward at a doubling of `bits` that
    # keeps it within tol, not at the starting bits
    enclosure = threshold(tol, bits=bits)
    assert _width(enclosure) <= tol
    assert _overlap(enclosure, threshold(tol))


def _affine(a: Fraction, b: Fraction):
    """The fixed-point form of ``x -> a x + b`` for ``a >= 0``: each end of
    ``a·x + b`` rounded outward, as the engine's functions and slopes take
    and return enclosures ``(lo, hi)·2^-p``."""
    def f(x, p):
        lo, hi = (a * Fraction(end, 1 << p) + b for end in x)
        return dyadic.to_fixed(lo, p)[0], dyadic.to_fixed(hi, p)[1]

    return f


def _constant(c: Fraction):
    """Fixed-point slopes holding the one quantity `c`."""
    return lambda x, p: (dyadic.to_fixed(c, p),)


def test_threshold_enclosure_beyond_max_bits_is_a_budget_error():
    # f(x) = 5x/2 crosses 1 at 2/5; the estimate 2 clips both candidate
    # ends to 1, so bisection starts from [1/3, 1], and three halvings leave
    # [1/3, 5/12], narrower than tol by 2^-1200; no precision up to
    # MAX_BITS rounds 1/3 and 5/12 outward by less than that
    tol = Fraction(1, 12) + Fraction(1, 2**1200)
    with pytest.raises(BudgetError):
        criteria._unit_crossing(_affine(Fraction(5, 2), 0), _constant(Fraction(5, 2)),
                                Fraction(1, 3), Fraction(1), tol, 64, (2, 1))


@pytest.mark.parametrize("threshold", [threshold_dim2, threshold_remark])
def test_threshold_past_max_bits_fails_fast_with_a_short_message(threshold):
    # below about 1e-305 the bracket ends cannot be told from the root at
    # MAX_BITS; the message shows the point to 20 digits, not as the exact
    # dyadic ratio of some 650 digits
    start = time.perf_counter()
    with pytest.raises(BudgetError, match="undecided") as info:
        threshold(Fraction(1, 10**310))
    assert time.perf_counter() - start < 1
    assert len(str(info.value)) < 200


def test_threshold_needs_a_certified_increase():
    # 2x - 1 changes sign inside [1/3, 1], so it cannot certify an increase
    twice = _affine(Fraction(2), 0)

    def slopes(x, p):
        return (tuple(end - (1 << p) for end in twice(x, p)),)

    with pytest.raises(DomainError, match="increasing"):
        criteria._unit_crossing(_affine(Fraction(5, 2), 0), slopes,
                                Fraction(1, 3), Fraction(1), Fraction(1, 100), 64, (2, 5))


def test_threshold_without_a_sign_change_is_a_domain_error():
    # x + 2 stays above 1 and x/4 below it on [1/3, 1], whatever the estimate
    for f in (_affine(Fraction(1), Fraction(2)), _affine(Fraction(1, 4), 0)):
        for estimate in ((1, 3), (1, 2), (2, 1)):
            with pytest.raises(DomainError, match="no sign change"):
                criteria._unit_crossing(f, _constant(Fraction(1)), Fraction(1, 3), Fraction(1),
                                        Fraction(1, 100), 64, estimate)


@pytest.mark.parametrize("which", ["dim2", "remark"])
def test_threshold_increase_is_certified_over_the_whole_search_interval(which):
    _, slopes = criteria._CROSSINGS[which]
    p = criteria._point_bits(16, (1, 100))
    whole = (dyadic.to_fixed(Fraction(1, 100), p)[0], dyadic.to_fixed(Fraction(1, 2), p)[1])
    assert all(lo > 0 for lo, _ in slopes(whole, p))


def test_threshold_ordering():
    dim2 = threshold_dim2(Fraction(1, 1000))
    remark = threshold_remark(Fraction(1, 1000))
    assert _hi(dim2) < _lo(remark)


def test_threshold_trivial_tolerance_returns_bracket():
    enclosure = threshold_dim2(1)
    assert _width(enclosure) <= 1
    assert _holds(enclosure, Fraction(861, 10000))


def test_thresholds_against_independent_root_finder():
    # oracle route: mpmath's own solver on plain high-precision reals
    import mpmath

    with mpmath.workdps(50):
        def b_dim2(q):
            root = mpmath.sqrt(q)
            return root * (2 - root) / (mpmath.sqrt(1 + q**2) * (1 - root) ** 2) - 1

        dim2_root = mpmath.findroot(b_dim2, mpmath.mpf("0.086"))

        def two_term(q):
            t2 = q + 1 / q
            t3 = q**2 + 1 + q**-2
            return mpmath.sqrt(2 / t2) + mpmath.sqrt(3 / t3) - 1

        remark_root = mpmath.findroot(two_term, mpmath.mpf("0.213"))

    dim2 = threshold_dim2(Fraction(1, 10**6))
    remark = threshold_remark(Fraction(1, 10**6))
    assert _holds_mpf(dim2, dim2_root)
    assert _holds_mpf(remark, remark_root)


def test_block_sum_against_plain_summation_oracle():
    # oracle route: direct non-interval summation of many terms
    import mpmath

    q_q = Fraction(1, 10)
    with mpmath.workdps(60):
        q = mpmath.mpf(1) / 10
        direct = mpmath.fsum(
            mpmath.sqrt((n + 1) / ((q**-(n + 1) - q**(n + 1)) / (q**-1 - q)))
            for n in range(1, 400)
        )
    enclosure = block_sum_S(1, q_q, Fraction(1, 10**12)).sum_enclosure()
    assert _holds_mpf(enclosure, direct)


def test_quasi_split_sum_against_plain_summation_oracle():
    import mpmath

    fam = su2_ladder(3, q=Fraction(1, 5))
    result = quasi_split_sum_ladder(fam, Fraction(1, 10**10))
    with mpmath.workdps(60):
        direct = mpmath.fsum(
            mpmath.sqrt(mpmath.mpf(ratio.numerator) / ratio.denominator)
            for ratio in ratios(range(400), fam)
        )
    enclosure = result.sum_enclosure()
    assert _holds_mpf(enclosure, direct)


# ---------------------------------------------------------------------------
# kac part and verdicts


def test_kac_part_examples():
    assert kac_part(su2_ladder(2, q=Fraction(1, 4)), 20) == [0]
    assert kac_part(su2_ladder(2), 5) == [0, 1, 2, 3, 4, 5]
    assert kac_part(su2_ladder(2, q=Fraction(1, 4)), 0) == [0]
    with pytest.raises(FamilyError):
        kac_part(free_unitary(2), 5)


def _fraction_kac_part(family, n_max: int) -> list[int]:
    """Oracle: the labels whose dimensions agree, both stepped in `Fraction`
    from ``d1 d(n) = d(n-1) + d(n+1)`` (plus ``d(n)`` on the right for so3)."""
    shift = 1 if family.kind is fusion.FamilyKind.SO3_LADDER else 0
    ladders = []
    for d1 in (Fraction(family.dim_c_fund), family.dim_q_fund):
        values = [Fraction(1), d1]
        while len(values) <= n_max:
            values.append((d1 - shift) * values[-1] - values[-2])
        ladders.append(values)
    return [n for n in range(n_max + 1) if ladders[0][n] == ladders[1][n]]


@pytest.mark.parametrize("family", [
    su2_ladder(2), su2_ladder(3), su2_ladder(2, q=Fraction(1, 2)), su2_ladder(2, q=Fraction(1, 4)),
    su2_ladder(2, dim_q_fund=Fraction(17, 4)), su2_ladder(3, q=Fraction(1, 10**23)),
    so3_ladder(3), so3_ladder(5), so3_ladder(4, dim_q_fund=5),
    so3_ladder(5, dim_q_fund=Fraction(71, 10)), so3_ladder(3, dim_q_fund=Fraction(7, 2)),
], ids=lambda f: f"{f.kind.value} N={f.dim_c_fund} dimq={f.dim_q_fund}")
def test_kac_part_matches_the_fraction_oracle(family):
    assert kac_part(family, 120) == _fraction_kac_part(family, 120)


@pytest.mark.parametrize("sup_c", [1, Fraction(3, 4), Fraction(1, 2)])
@pytest.mark.parametrize("family", [
    su2_ladder(2, q=Fraction(1, 2)), su2_ladder(3, q=Fraction(1, 5)),
    su2_ladder(2, dim_q_fund=Fraction(201, 100)), so3_ladder(4, dim_q_fund=5),
    so3_ladder(3, dim_q_fund=Fraction(31, 10)),
], ids=lambda f: f"{f.kind.value} N={f.dim_c_fund} dimq={f.dim_q_fund}")
def test_verify_decay_matches_the_fraction_oracle(family, sup_c, monkeypatch):
    # a smaller sup_c raises c, so the lemma's inequality can fail
    rates = [1 / ratio for ratio in ratios(range(1, 41), family)]
    c = 1 + (rates[0] - 1) / sup_c
    expected = all(b >= c * a for a, b in zip(rates, rates[1:]))
    monkeypatch.setattr(criteria, "LADDER_SUP_C", sup_c)
    assert verify_decay(family, 40) is expected
    if sup_c == 1:
        assert expected


#: Three scans of su2_ladder(3, q=1/5) in a child held to 1 GiB of address
#: space and 10 s of CPU: at n = 20,000 a table would hold about 2.8·10^8
#: digits (5.7 s of CPU to build), at n = 10^9 far more, so only a refusal
#: made before the recursions step finishes in time.
_TABLE_PROBE = """
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
resource.setrlimit(resource.RLIMIT_CPU, (10, 10))
from qclassfun import criteria, fusion
from qclassfun.errors import BudgetError
family = fusion.su2_ladder(3, q="1/5")
for call in (lambda: criteria.kac_part(family, 20_000),
             lambda: criteria.verify_decay(family, 20_000),
             lambda: criteria.kac_part(family, 10**9)):
    start = time.process_time()
    try:
        call()
    except BudgetError as exc:
        print("budget of" in str(exc), time.process_time() - start)
"""


def test_an_over_budget_table_is_refused_before_it_is_built():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _TABLE_PROBE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = [line.split() for line in done.stdout.splitlines()]
    assert len(lines) == 3
    for refused, seconds in lines:
        assert refused == "True" and float(seconds) < 1


def test_the_table_budget_sums_label_lengths_times_log10_a():
    # su2_ladder(2) is Kac with dimensions n + 1, so a table at its budget is cheap
    family = su2_ladder(2)
    most = MAX_TABLE_DIGITS / math.log10(2)
    n = math.isqrt(int(2 * most))
    while n * (n + 1) // 2 > most:
        n -= 1
    assert fusion.scaled_dims(range(n + 1), family)[-1] == (n + 1, n + 1, 1)
    with pytest.raises(BudgetError, match=f"budget of {MAX_TABLE_DIGITS} digits"):
        fusion.scaled_dims(range(n + 2), family)
    words = fusion.free_unitary(2)
    with pytest.raises(BudgetError):
        fusion.scaled_dims(["A" * n] * (n + 2), words)


def test_the_table_budget_admits_the_largest_cli_table():
    # (label lengths summed, digits of a) for the CLI's tables: `dims` keeps
    # N^max (dim^word_len) within MAX_DIM_DIGITS digits, and a rational of 24
    # digits gives dim_q = a/b with a below 10^47; `series` tables labels
    # 0..20 of an --N of at most 4300 digits, the int parser's default limit
    words, ladder = sum(n * 2**n for n in range(1, 13)), 400 * 401 // 2
    tables = [(words, MAX_DIM_DIGITS // 12), (words, 47), (ladder, MAX_DIM_DIGITS // 400),
              (ladder, 47), (20 * 21 // 2, 4300)]
    largest = max(length * digits for length, digits in tables)
    assert largest == 90_114 * 358 <= MAX_TABLE_DIGITS  # u-plus --word-len 12, Kac


def test_masa_verdict_ladder():
    verdict = masa_verdict(su2_ladder(3, q=Fraction(1, 5)))
    assert verdict.verdict_text == VERDICT_NOT_MASA
    assert verdict.quasi_split is criteria.QuasiSplit.YES
    assert verdict.all_nontrivial_rho_nontrivial


def test_masa_verdict_free_unitary():
    verdict = masa_verdict(free_unitary(2, q=Fraction(5, 100)))
    assert verdict.verdict_text == VERDICT_RELATIVE_COMMUTANT
    assert verdict.block_sum is not None
    assert _hi(verdict.block_sum.sum_enclosure()) < 1


def test_masa_verdict_free_unitary_large_deformation_is_inconclusive():
    verdict = masa_verdict(free_unitary(2, q=Fraction(22, 100)))
    assert verdict.series.verdict is Verdict.DIVERGES
    assert verdict.verdict_text == VERDICT_NO_CONCLUSION


def test_masa_verdict_kac_no_conclusion():
    for family in (su2_ladder(2), so3_ladder(4), free_unitary(2)):
        verdict = masa_verdict(family)
        assert verdict.verdict_text == VERDICT_NO_CONCLUSION
        assert verdict.quasi_split is criteria.QuasiSplit.UNDETERMINED


def test_masa_verdict_never_claims_masa_failure_with_nontrivial_kac_part():
    families = [
        su2_ladder(2), su2_ladder(3), so3_ladder(4),
        su2_ladder(2, q=Fraction(1, 4)), so3_ladder(4, dim_q_fund=5),
    ]
    for family in families:
        verdict = masa_verdict(family)
        if kac_part(family, 10) != [0]:
            assert verdict.verdict_text != VERDICT_NOT_MASA


@pytest.mark.parametrize("family", [
    su2_ladder(3), su2_ladder(3, q=Fraction(1, 5)), so3_ladder(4), so3_ladder(4, dim_q_fund=5),
    free_unitary(2), free_unitary(2, q=Fraction(1, 20)),
], ids=lambda f: f"{f.kind.value} N={f.dim_c_fund} dimq={f.dim_q_fund}")
def test_masa_verdict_builds_no_dimension_table(family, monkeypatch):
    calls = []
    scaled_dims = fusion.scaled_dims
    monkeypatch.setattr(fusion, "scaled_dims",
                        lambda labels, fam: calls.append(fam) or scaled_dims(labels, fam))
    verdict = masa_verdict(family)
    assert calls == []
    assert verdict.all_nontrivial_rho_nontrivial is not family.is_kac


def _theorem_grid() -> list:
    """Families of each kind at every classical dimension of the grid: Kac,
    ``dim_q = N + 10^-20`` and two seeded rationals above N."""
    rng = random.Random(39)
    grid = []
    for make, dims in ((su2_ladder, range(2, 7)), (so3_ladder, range(3, 7)),
                       (free_unitary, range(2, 5))):
        for n in dims:
            above = [Fraction(1, 10**20)] + [Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
                                             for _ in range(2)]
            grid += [make(n)] + [make(n, dim_q_fund=n + x) for x in above]
    return grid


@pytest.mark.parametrize("family", _theorem_grid(),
                         ids=lambda f: f"{f.kind.value} N={f.dim_c_fund} dimq={f.dim_q_fund}")
def test_every_nontrivial_label_has_a_larger_quantum_dimension_off_kac(family):
    # masa_verdict's proof against the exact tables: labels 1..200, or the
    # nonempty words up to length 8, have D > d·b^length off Kac (so3 N=3 has
    # the unit root t = 1 at its classical fundamental) and D = d·b^length in a
    # Kac family; the verdict reads the same from the family alone
    labels = range(1, 201) if family.is_ladder else list(fusion.all_words(8, min_len=1))
    table = fusion.scaled_dims(labels, family)
    if family.is_kac:
        assert all(dim_q == dim_c * scale for dim_c, dim_q, scale in table)
    else:
        assert all(dim_q > dim_c * scale for dim_c, dim_q, scale in table)
    if family.is_ladder:
        assert kac_part(family, 200) == (list(range(201)) if family.is_kac else [0])
    verdict = masa_verdict(family, max_terms=1)
    assert verdict.all_nontrivial_rho_nontrivial is not family.is_kac
