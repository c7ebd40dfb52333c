"""The fixed-point threshold engine against mpmath oracles written here.

The functions and slopes of the two thresholds take an enclosure
``(lo, hi)·2^-p`` and `p` and return enclosures in the same form.  Each is
checked for containment of the true value at seeded rationals and over
seeded sub-intervals of the search interval, the certified sign check for
the verdict of a plain high-precision evaluation, and the thresholds from
the lowest starting precisions for a bracket around ``mpmath.findroot``'s
root.
"""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath
import pytest

from qclassfun import criteria, intervals

FRAC_BITS = [8, 16, 64, 128, 512]
LO, HI = Fraction(1, 100), Fraction(1, 2)


def _dim2(x):
    s = mpmath.sqrt(x)
    return s * (2 - s) / (mpmath.sqrt(1 + x * x) * (1 - s) ** 2)


def _remark(x):
    return mpmath.sqrt(2 / (x + 1 / x)) + mpmath.sqrt(3 / (x * x + 1 + x**-2))


def _dim2_slope(x):
    s = mpmath.sqrt(x)
    return 1 / s - 1 / (2 - s) - 2 * s**3 / (1 + s**4) + 2 / (1 - s)


FUNCTIONS = {"dim2": _dim2, "remark": _remark}
SLOPES = {
    "dim2": (_dim2_slope,),
    "remark": (lambda x: x**-2 - 1, lambda x: 2 * x**-3 - 2 * x),
}


def _digits(frac_bits: int) -> int:
    """80 digits, or more where ``2^-frac_bits`` needs them."""
    return max(80, frac_bits // 3 + 30)


def _mp(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def _holds(pair: tuple[int, int], frac_bits: int, value: mpmath.mpf, digits: int) -> bool:
    """`pair` contains `value`, known to `digits` digits."""
    slack = abs(value) * mpmath.mpf(10) ** (5 - digits) + mpmath.mpf(10) ** (5 - digits)
    lo, hi = (mpmath.ldexp(end, -frac_bits) for end in pair)
    return lo <= value + slack and value - slack <= hi


def _points(seed: int, count: int) -> list[Fraction]:
    rng = random.Random(seed)
    return [LO + (HI - LO) * Fraction(rng.randrange(10**12), 10**12) for _ in range(count)]


@pytest.mark.parametrize("frac_bits", FRAC_BITS)
@pytest.mark.parametrize("which", sorted(FUNCTIONS))
def test_each_function_encloses_its_value_at_seeded_rationals(which, frac_bits):
    f = criteria._CROSSINGS[which][0]
    digits = _digits(frac_bits)
    for x in [LO, HI, *_points(frac_bits, 40)]:
        pair = f(intervals.to_fixed(x, frac_bits), frac_bits)
        assert pair is not None and pair[0] <= pair[1]
        with mpmath.workdps(digits):
            assert _holds(pair, frac_bits, FUNCTIONS[which](_mp(x)), digits), (which, x)


@pytest.mark.parametrize("frac_bits", FRAC_BITS)
@pytest.mark.parametrize("which", sorted(SLOPES))
def test_each_slope_encloses_its_values_over_seeded_sub_intervals(which, frac_bits):
    slopes = criteria._CROSSINGS[which][1]
    digits = _digits(frac_bits)
    rng = random.Random(1000 + frac_bits)
    for _ in range(12):
        a, b = sorted(_points(rng.randrange(10**9), 2))
        pairs = slopes((intervals.to_fixed(a, frac_bits)[0], intervals.to_fixed(b, frac_bits)[1]),
                       frac_bits)
        assert pairs is not None and len(pairs) == len(SLOPES[which])
        samples = [a, b] + [a + (b - a) * Fraction(rng.randrange(1001), 1000) for _ in range(6)]
        with mpmath.workdps(digits):
            for pair, slope in zip(pairs, SLOPES[which]):
                assert pair[0] <= pair[1]
                for t in samples:
                    assert _holds(pair, frac_bits, slope(_mp(t)), digits), (which, a, b, t)


@pytest.mark.parametrize("which", sorted(FUNCTIONS))
def test_the_sign_check_agrees_with_a_high_precision_oracle(which):
    f = criteria._CROSSINGS[which][0]
    start, stop = Fraction(2, 100), Fraction(40, 100)
    points = [start + (stop - start) * Fraction(k, 379) for k in range(380)]
    verdicts = [criteria._below_one(f, x, 128) for x in points]
    with mpmath.workdps(60):
        oracle = [FUNCTIONS[which](_mp(x)) < 1 for x in points]
    assert verdicts == oracle
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("bits", [1, 2, 4, 8])
@pytest.mark.parametrize("which", sorted(FUNCTIONS))
def test_thresholds_from_the_lowest_starting_bits_hold_the_root(which, bits):
    # at a few bits the fixed-point ends of 1/100 and of its square root are
    # 0 or 1 ulp, so an undecided sign check must escalate, never divide by 0
    tol = Fraction(1, 1000)
    with mpmath.workdps(50):
        root = mpmath.findroot(lambda x: FUNCTIONS[which](x) - 1,
                               mpmath.mpf("0.086" if which == "dim2" else "0.2134"))
    threshold = getattr(criteria, f"threshold_{which}")
    enclosure = threshold(tol, bits=bits)
    assert intervals.width_at_most(enclosure, tol)
    assert intervals.lower(enclosure) <= root <= intervals.upper(enclosure)


def test_a_divisor_reaching_zero_leaves_the_value_undecided():
    # at 8 fraction bits 1/1000 rounds down to 0: no reciprocal is formed
    x = intervals.to_fixed(Fraction(1, 1000), 8)
    assert x[0] == 0
    assert criteria._remark_two_term(x, 8) is None
    assert criteria._remark_slopes(x, 8) is None
    assert criteria._dim2_slopes(x, 8) is None
    # and a square root of q rounding up to 1 leaves no gap 1 - sqrt(q)
    assert criteria._dim2_bound((255, 256), 8) is None


@pytest.mark.parametrize("q", [Fraction(1, 10**30), Fraction(3, 7), Fraction(1, 10**3)])
@pytest.mark.parametrize("bits", [24, 64, 128])
def test_bound_dim2_keeps_its_bits_at_small_q(q, bits):
    # the fixed point keeps `bits` bits below the leading bit of q, so the
    # bound, about 2 sqrt(q) at small q, is as tight relative to its size
    enclosure = criteria.bound_S_dim2(q, bits=bits)
    assert enclosure.ctx.prec == bits
    lo, hi = intervals.exact_endpoints(enclosure)
    assert 0 < lo and (hi - lo) / lo <= Fraction(8, 2**bits)
    with mpmath.workdps(80):
        value = _dim2(_mp(q))
    assert intervals.lower(enclosure) <= value <= intervals.upper(enclosure)


@pytest.mark.parametrize("q", [0, 1, Fraction(-1, 3), Fraction(3, 2), 1 - Fraction(1, 2**300)])
def test_bound_dim2_outside_the_open_unit_interval_is_a_domain_error(q):
    # 1 - 2^-300 is not separated from 1 at 128 bits
    with pytest.raises(criteria.DomainError, match="strictly inside"):
        criteria.bound_S_dim2(q)


def test_bound_dim2_encloses_an_interval_argument():
    with intervals.precision(96) as ctx:
        q = intervals.from_endpoints(Fraction(1, 20), Fraction(1, 10), ctx)
    enclosure = criteria.bound_S_dim2(q, bits=64)
    assert enclosure.ctx.prec == 64
    assert intervals.contains(enclosure, criteria.bound_S_dim2(Fraction(1, 20), bits=64))
    assert intervals.contains(enclosure, criteria.bound_S_dim2(Fraction(1, 10), bits=64))
