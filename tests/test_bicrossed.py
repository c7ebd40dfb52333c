"""Scaling-time membership, center, factor report and iso invariants."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qclassfun.bicrossed import (
    FACTOR_II_INFINITY,
    NON_FACTOR,
    BicrossedParams,
    RatioIrrational,
    RatioRational,
    ScalingTime,
    center_description,
    factor_report,
    is_inner_scaling,
    is_trivial_scaling,
    iso_necessary,
)
from qclassfun.errors import DomainError

rationals = st.fractions(min_value=Fraction(-10), max_value=Fraction(10))
times = st.builds(ScalingTime, rationals, rationals)

IRRATIONAL = BicrossedParams(Fraction(1, 2), RatioIrrational())
RATIONAL_HALF = BicrossedParams(Fraction(1, 2), RatioRational(Fraction(1, 2)))
MODES = (IRRATIONAL, RATIONAL_HALF)


def T(r, s) -> ScalingTime:
    return ScalingTime(Fraction(r), Fraction(s))


def test_params_validation():
    with pytest.raises(DomainError):
        BicrossedParams(Fraction(0), RatioIrrational())
    with pytest.raises(DomainError):
        BicrossedParams(Fraction(3, 2), RatioIrrational())
    with pytest.raises(DomainError):
        RatioRational(Fraction(0))
    BicrossedParams(Fraction(-1, 2), RatioIrrational())  # negative q is fine


def test_trivial_examples():
    assert is_trivial_scaling(T(0, 1), IRRATIONAL)
    assert is_trivial_scaling(T(0, 1), RATIONAL_HALF)
    assert not is_trivial_scaling(T(1, 0), IRRATIONAL)
    assert is_trivial_scaling(T(1, Fraction(1, 2)), RATIONAL_HALF)
    assert not is_trivial_scaling(T(1, Fraction(1, 3)), RATIONAL_HALF)


def test_inner_examples():
    assert is_inner_scaling(T(Fraction(5, 3), 2), IRRATIONAL)
    assert not is_inner_scaling(T(0, Fraction(1, 2)), IRRATIONAL)
    assert is_inner_scaling(T(Fraction(7, 9), Fraction(3, 11)), RATIONAL_HALF)


@given(times)
def test_trivial_implies_inner(t):
    for params in MODES:
        if is_trivial_scaling(t, params):
            assert is_inner_scaling(t, params)


@given(times, times)
def test_membership_closed_under_addition(t1, t2):
    for params in MODES:
        if is_trivial_scaling(t1, params) and is_trivial_scaling(t2, params):
            assert is_trivial_scaling(t1 + t2, params)
        if is_inner_scaling(t1, params) and is_inner_scaling(t2, params):
            assert is_inner_scaling(t1 + t2, params)


@given(times)
def test_membership_closed_under_negation(t):
    for params in MODES:
        assert is_trivial_scaling(t, params) == is_trivial_scaling(-t, params)
        assert is_inner_scaling(t, params) == is_inner_scaling(-t, params)


@given(rationals)
def test_rational_charge_is_inner_in_every_mode(gamma):
    for params in MODES:
        assert is_inner_scaling(ScalingTime(gamma, Fraction(0)), params)


def test_center_description():
    assert center_description(IRRATIONAL).is_trivial
    by_two_thirds = BicrossedParams(Fraction(1, 2), RatioRational(Fraction(2, 3)))
    center = center_description(by_two_thirds)
    assert not center.is_trivial and center.generator == Fraction(3, 2)
    unit = BicrossedParams(Fraction(1, 2), RatioRational(Fraction(1)))
    assert center_description(unit).generator == 1
    negative = BicrossedParams(Fraction(1, 2), RatioRational(Fraction(-2, 3)))
    assert center_description(negative).generator == Fraction(3, 2)


def test_factor_report():
    report = factor_report(IRRATIONAL)
    assert report.is_factor and report.description == FACTOR_II_INFINITY
    assert report.coamenable and report.injective
    non_factor = factor_report(RATIONAL_HALF)
    assert not non_factor.is_factor and non_factor.description == NON_FACTOR
    assert non_factor.coamenable and non_factor.injective


def test_center_trivial_iff_factor():
    for params in (IRRATIONAL, RATIONAL_HALF,
                   BicrossedParams(Fraction(-3, 4), RatioRational(Fraction(5)))):
        assert center_description(params).is_trivial == factor_report(params).is_factor


def test_iso_necessary_examples():
    assert iso_necessary(IRRATIONAL, IRRATIONAL) is True
    other_q = BicrossedParams(Fraction(1, 3), RatioIrrational())
    assert iso_necessary(IRRATIONAL, other_q) is False
    assert iso_necessary(IRRATIONAL, RATIONAL_HALF) is False
    # |q| comparison ignores sign
    negated = BicrossedParams(Fraction(-1, 2), RatioIrrational(nu_note="other"))
    assert iso_necessary(IRRATIONAL, negated) is None
    assert iso_necessary(IRRATIONAL, negated, nu_ratio=Fraction(2)) is True
    with pytest.raises(DomainError):
        iso_necessary(IRRATIONAL, negated, nu_ratio=Fraction(0))
    both_rational = BicrossedParams(Fraction(1, 2), RatioRational(Fraction(7, 3)))
    assert iso_necessary(RATIONAL_HALF, both_rational) is True


@given(st.sampled_from([IRRATIONAL, RATIONAL_HALF]),
       st.sampled_from([IRRATIONAL, RATIONAL_HALF]))
def test_iso_necessary_reflexive_and_symmetric(p1, p2):
    assert iso_necessary(p1, p1) is True
    assert iso_necessary(p1, p2) == iso_necessary(p2, p1)
