"""Outward-rounded interval helpers."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import iv

from qclassfun import intervals
from qclassfun.errors import DomainError

fractions = st.fractions(min_value=Fraction(-100), max_value=Fraction(100))


def test_precision_scopes_and_restores():
    before = iv.prec
    with intervals.precision(37):
        assert iv.prec == 37
    assert iv.prec == before


@given(fractions)
def test_make_encloses_fractions(f):
    with intervals.precision(64):
        assert intervals.contains(intervals.make(f), f)


def test_make_encloses_decimal_strings():
    with intervals.precision(64):
        x = intervals.make("0.3")
        assert intervals.contains(x, Fraction(3, 10))
        assert intervals.width_fraction(x) > 0  # 0.3 is not binary-exact


def test_endpoints_are_exact_beyond_double_precision():
    with intervals.precision(128):
        third = intervals.make(Fraction(1, 3))
        assert intervals.lower(third) < intervals.upper(third)
        assert intervals.contains(third, Fraction(1, 3))
        # 1e-30 away: inside one double's rounding, far outside 128 bits
        assert not intervals.contains(third, Fraction(1, 3) + Fraction(1, 10**30))
        assert not intervals.contains(third, Fraction(1, 3) - Fraction(1, 10**30))


def test_from_endpoints_and_width():
    with intervals.precision(64):
        x = intervals.from_endpoints(Fraction(1, 4), Fraction(3, 4))
        assert intervals.width_fraction(x) == Fraction(1, 2)
        assert intervals.contains(x, Fraction(1, 2))
        assert not intervals.contains(x, 1)


@given(fractions, fractions)
def test_order_certification(a, b):
    with intervals.precision(64):
        x, y = intervals.make(a), intervals.make(b)
        if intervals.certainly_lt(x, y):
            assert a < b
        if a < b and intervals.overlaps(x, y):
            # only near-ties may overlap after rounding
            assert b - a < Fraction(1, 10**15)


def test_isqrt_and_inv_guards():
    with intervals.precision(64):
        with pytest.raises(DomainError):
            intervals.isqrt(intervals.from_endpoints(-1, 1))
        with pytest.raises(DomainError):
            intervals.inv(intervals.from_endpoints(-1, 1))
        assert intervals.contains(intervals.inv(intervals.make(4)), Fraction(1, 4))


@given(fractions)
def test_decimal_pair_brackets_the_value(f):
    with intervals.precision(64):
        lo, hi = intervals.to_decimal_pair(intervals.make(f), digits=12)
    assert Fraction(lo) <= f <= Fraction(hi)


def test_decimal_pair_unbounded():
    with intervals.precision(64):
        top = iv.mpf([1, "inf"])
        lo, hi = intervals.to_decimal_pair(top, digits=8)
        assert hi == "inf"
        assert Fraction(lo) <= 1


def test_width_at_most_is_exact():
    with intervals.precision(64):
        x = intervals.from_endpoints(0, Fraction(1, 8))
        assert intervals.width_at_most(x, Fraction(1, 8))
        assert not intervals.width_at_most(x, Fraction(1, 9))
