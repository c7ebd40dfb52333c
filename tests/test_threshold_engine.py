"""The fixed-point threshold engine against mpmath oracles written here.

The functions and slopes of the two thresholds take an enclosure
``(lo, hi)·2^-p`` and `p` and return enclosures in the same form.  Each is
checked for containment of the true value at seeded rationals and over
seeded sub-intervals of the search interval, the certified sign check for
the verdict of a plain high-precision evaluation, and the thresholds from
the lowest starting precisions for a bracket around ``mpmath.findroot``'s
root.  The ratio threshold and ``bound_S_dimge3`` are checked against a
high-precision value and against the mpmath interval code they replaced.
"""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import from_man_exp

from qclassfun import criteria, dyadic
from interval_oracle import context, make, to_enclosure

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


def _ends(enclosure: dyadic.Enclosure) -> tuple[mpmath.mpf, mpmath.mpf]:
    """The endpoints of `enclosure` as exact mpmath reals."""
    return tuple(mpmath.mp.make_mpf(from_man_exp(*end)) for end in (enclosure.lo, enclosure.hi))


def _width(enclosure: dyadic.Enclosure) -> Fraction:
    lo, hi = dyadic.exact_endpoints(enclosure)
    return hi - lo


def _overlap(x: dyadic.Enclosure, y: dyadic.Enclosure) -> bool:
    """`x` and `y` intersect; None is an unbounded end, as an mpmath oracle may have."""
    (x_lo, x_hi), (y_lo, y_hi) = dyadic.exact_endpoints(x), dyadic.exact_endpoints(y)
    return (None in (x_lo, y_hi) or x_lo <= y_hi) and (None in (y_lo, x_hi) or y_lo <= x_hi)


def _inside(inner: dyadic.Enclosure, outer: dyadic.Enclosure) -> bool:
    (i_lo, i_hi), (o_lo, o_hi) = dyadic.exact_endpoints(inner), dyadic.exact_endpoints(outer)
    return o_lo <= i_lo and i_hi <= o_hi


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
        pair = f(dyadic.to_fixed(x, frac_bits), frac_bits)
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
        pairs = slopes((dyadic.to_fixed(a, frac_bits)[0], dyadic.to_fixed(b, frac_bits)[1]),
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
    assert _width(enclosure) <= tol
    lo, hi = _ends(enclosure)
    assert lo <= root <= hi


def test_a_divisor_reaching_zero_leaves_the_value_undecided():
    # at 8 fraction bits 1/1000 rounds down to 0: no reciprocal is formed
    x = dyadic.to_fixed(Fraction(1, 1000), 8)
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
    assert enclosure.bits == bits
    lo, hi = dyadic.exact_endpoints(enclosure)
    assert 0 < lo and (hi - lo) / lo <= Fraction(8, 2**bits)
    with mpmath.workdps(80):
        value = _dim2(_mp(q))
    mp_lo, mp_hi = _ends(enclosure)
    assert mp_lo <= value <= mp_hi


@pytest.mark.parametrize("q", [0, 1, Fraction(-1, 3), Fraction(3, 2), 1 - Fraction(1, 2**300)])
def test_bound_dim2_outside_the_open_unit_interval_is_a_domain_error(q):
    # 1 - 2^-300 is not separated from 1 at 128 bits
    with pytest.raises(criteria.DomainError, match="strictly inside"):
        criteria.bound_S_dim2(q)


def test_bound_dim2_encloses_an_interval_argument():
    q = dyadic.rational_enclosure(Fraction(1, 20), Fraction(1, 10), 96)
    enclosure = criteria.bound_S_dim2(q, bits=64)
    assert enclosure.bits == 64
    assert _inside(criteria.bound_S_dim2(Fraction(1, 20), bits=64), enclosure)
    assert _inside(criteria.bound_S_dim2(Fraction(1, 10), bits=64), enclosure)


# ---------------------------------------------------------------------------
# the ratio closed forms: fixed point against the mpmath interval code they
# replaced, kept here as an oracle, and against a point value at three times
# the bits (at least 64)

CLOSED_FORM_BITS = [1, 8, 64, 128, 512, 1024]


def _oracle_prec(bits: int) -> int:
    return max(3 * bits, 64)


def _contains_point(enclosure, value: mpmath.mpf, prec: int) -> bool:
    """`enclosure` contains `value`, known to `prec` bits."""
    slack = abs(value) * mpmath.ldexp(1, 4 - prec)
    lo, hi = dyadic.exact_endpoints(enclosure)
    return _mp(lo) <= value + slack and value - slack <= _mp(hi)


def _ratio_value() -> mpmath.mpf:
    return (1 + mpmath.sqrt((3 * mpmath.sqrt(5) + 5) / 10)) ** -2


def _mpmath_ratio(bits: int):
    """``threshold_ratio_dimge3`` as mpmath's interval arithmetic computed it."""
    ctx = context(bits)
    u = ctx.sqrt((3 * ctx.sqrt(make(5, ctx)) + 5) / 10)
    return (1 + u) ** -2


def _dimge3_value(q_c: Fraction, q_q: Fraction) -> mpmath.mpf:
    r = mpmath.sqrt(_mp(q_q) / _mp(q_c))
    return r / (1 - r) / mpmath.sqrt(1 - _mp(q_c) ** 2)


def _mpmath_dimge3(q_c: Fraction, q_q: Fraction, bits: int):
    """``bound_S_dimge3`` as mpmath's interval arithmetic computed it, or
    None where its inputs, enclosed at `bits`, were refused."""
    ctx = context(bits)
    qc, qq = make(q_c, ctx), make(q_q, ctx)
    if qq.a <= 0 or qc.b >= 1 or not qq.b < qc.a:
        return None
    root = ctx.sqrt(qq / qc)
    return 1 / ctx.sqrt(1 - qc * qc) * root / (1 - root)


def _dimge3_pairs() -> list[tuple[Fraction, Fraction]]:
    """40 seeded pairs with q_c in (0, 0.9) and q_q/q_c below 0.81, some of
    them tiny, so that sqrt(q_q/q_c) stays below 0.9."""
    rng = random.Random(21)
    pairs = []
    for _ in range(40):
        q_c = Fraction(rng.randrange(1, 9 * 10**5), 10**6)
        ratio = Fraction(rng.randrange(1, 81 * 10**4), 10 ** (6 + rng.choice([0, 0, 0, 3, 20])))
        pairs.append((q_c, q_c * ratio))
    return pairs


def test_ratio_threshold_in_fixed_point_holds_the_value_at_every_p():
    # the value is irrational, so its floor and ceiling at p differ by one
    with mpmath.workprec(3500):
        value = _ratio_value()
        floors = [int(mpmath.floor(mpmath.ldexp(value, p))) for p in range(1, 1033)]
    for p, floor in enumerate(floors, start=1):
        lo, hi = criteria._ratio_threshold(p)
        assert lo <= floor < hi, p


def test_dimge3_bound_in_fixed_point_holds_the_value_at_seeded_pairs_and_every_p():
    # each value is irrational, so its floor and ceiling at p differ by one
    for q_c, q_q in _dimge3_pairs():
        with mpmath.workprec(1400):
            value = _dimge3_value(q_c, q_q)
            floors = [int(mpmath.floor(mpmath.ldexp(value, p))) for p in range(1, 513)]
        for p, floor in enumerate(floors, start=1):
            pair = criteria._dimge3_bound(dyadic.to_fixed(q_c, p), dyadic.to_fixed(q_q, p), p)
            if pair is None:  # a divisor reaches 0 at this p
                assert p < 64, (q_c, q_q, p)
                continue
            assert pair[0] <= floor < pair[1], (q_c, q_q, p)


@pytest.mark.parametrize("bits", CLOSED_FORM_BITS)
def test_ratio_threshold_holds_the_closed_form_and_meets_the_mpmath_enclosure(bits):
    enclosure = criteria.threshold_ratio_dimge3(bits)
    assert enclosure.bits == bits
    prec = _oracle_prec(bits)
    with mpmath.workprec(prec):
        assert _contains_point(enclosure, _ratio_value(), prec)
    assert _overlap(enclosure, to_enclosure(_mpmath_ratio(bits)))


@pytest.mark.parametrize("bits", [8, 64, 128, 512, 1024])
def test_ratio_threshold_is_one_unit_wide(bits):
    # eight guard bits leave the value's rounding to bits as the only width
    lo, hi = dyadic.exact_endpoints(criteria.threshold_ratio_dimge3(bits))
    assert hi - lo == Fraction(1, 2 ** (bits + 2))  # one unit at 2^-3 <= value < 2^-2


@pytest.mark.parametrize("bits", CLOSED_FORM_BITS)
def test_bound_dimge3_holds_the_closed_form_and_meets_the_mpmath_enclosure(bits):
    prec = _oracle_prec(bits)
    compared = 0
    for q_c, q_q in _dimge3_pairs():
        enclosure = criteria.bound_S_dimge3(q_c, q_q, bits=bits)
        assert enclosure.bits == bits
        # bits kept below the leading bit of q_q, as bound_S_dim2 keeps them
        lo, hi = dyadic.exact_endpoints(enclosure)
        assert 0 < lo and (hi - lo) / lo <= Fraction(8, 2**bits), (q_c, q_q)
        with mpmath.workprec(prec):
            assert _contains_point(enclosure, _dimge3_value(q_c, q_q), prec), (q_c, q_q)
        old = _mpmath_dimge3(q_c, q_q, bits)
        if old is not None:
            compared += 1
            try:
                old = to_enclosure(old)
            except ValueError:  # an unbounded end, which every enclosure meets
                continue
            assert _overlap(enclosure, old), (q_c, q_q)
            if bits >= 8:
                # the guard bits make it no wider than per-operation rounding
                assert _width(enclosure) <= _width(old)
    assert compared >= (6 if bits == 1 else 40)  # at 1 bit the old code refused most


@pytest.mark.parametrize("q_c, q_q", [
    (Fraction(1, 5), Fraction(1, 5)),  # q_q = q_c
    (Fraction(1, 10), Fraction(1, 5)),  # q_q > q_c
    (1 - Fraction(1, 2**300), Fraction(1, 5)),  # not separated from 1 at 128 bits
    (Fraction(1, 2), 0),
    (Fraction(1, 2), Fraction(-1, 5)),
    (1, Fraction(1, 5)),
    (Fraction(3, 2), Fraction(1, 5)),
])
def test_bound_dimge3_outside_its_domain_is_a_domain_error(q_c, q_q):
    with pytest.raises(criteria.DomainError, match="need 0 < q_q < q_c < 1"):
        criteria.bound_S_dimge3(q_c, q_q)


@pytest.mark.parametrize("call", [
    lambda: criteria.bound_S_dim2("abc"),
    lambda: criteria.bound_S_dim2("nan"),
    lambda: criteria.bound_S_dim2("inf"),
    lambda: criteria.bound_S_dimge3("0.3", "nan"),
    lambda: criteria.block_sum_S("abc", "0.1", Fraction(1, 10**6)),
], ids=["dim2 text", "dim2 nan", "dim2 inf", "dimge3 nan", "block sum text"])
def test_an_input_that_is_no_finite_rational_is_a_domain_error(call):
    with pytest.raises(criteria.DomainError, match="need a finite rational"):
        call()


def test_bound_dimge3_reads_an_interval_argument_exactly():
    q_q = dyadic.rational_enclosure(Fraction(1, 20), Fraction(1, 10), 96)
    enclosure = criteria.bound_S_dimge3(Fraction(3, 10), q_q, bits=64)
    for end in (Fraction(1, 20), Fraction(1, 10)):
        assert _inside(criteria.bound_S_dimge3(Fraction(3, 10), end, bits=64), enclosure)
