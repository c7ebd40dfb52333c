"""Dyadic rounding and decimal text against exact oracles, mpmath and the
decimal module.

:mod:`qclassfun.dyadic` must round an exact rational to its floor and
ceiling on the `bits`-bit grid, found here with `Fraction` arithmetic, which
lie inside mpmath's interval; its operations on enclosures must give
mpmath's interval endpoints; and its text of an exact endpoint must be
:mod:`decimal`'s, character for character.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import from_man_exp, round_ceiling, round_floor

from qclassfun import criteria, dyadic, fusion, report
from qclassfun.cli import main
from qclassfun.errors import BudgetError, DomainError
from interval_oracle import context, make, to_enclosure

ROUNDINGS = {"floor": decimal.ROUND_FLOOR, "ceiling": decimal.ROUND_CEILING,
             "half-even": decimal.ROUND_HALF_EVEN}


def _decimal_text(value: Fraction, digits: int, rounding: str) -> str:
    """Oracle: the Fraction/Decimal printer, dividing the exact numerator by
    the exact denominator in a Decimal context."""
    context = decimal.Context(prec=digits, rounding=ROUNDINGS[rounding])
    return str(context.divide(value.numerator, value.denominator))


def _value(m: int, e: int) -> Fraction:
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _grid_floor(x: Fraction, bits: int) -> Fraction:
    """Oracle: the largest ``m·2^e <= x`` with ``|m| < 2^bits``."""
    if x == 0:
        return x
    if x < 0:
        return -_grid_ceil(-x, bits)
    k = x.numerator.bit_length() - x.denominator.bit_length()  # floor(log2 x) or one more
    if Fraction(2) ** k > x:
        k -= 1
    unit = Fraction(2) ** (k - bits + 1)  # 2^(bits-1) <= x/unit < 2^bits
    return math.floor(x / unit) * unit


def _grid_ceil(x: Fraction, bits: int) -> Fraction:
    """Oracle: the smallest ``m·2^e >= x`` with ``|m| < 2^bits``."""
    if x <= 0:
        return -_grid_floor(-x, bits)
    k = x.numerator.bit_length() - x.denominator.bit_length()
    if Fraction(2) ** k > x:
        k -= 1
    unit = Fraction(2) ** (k - bits + 1)
    return math.ceil(x / unit) * unit


def _is_normal(x: tuple[int, int]) -> bool:
    """An odd mantissa, or zero as ``(0, 0)``."""
    return x == (0, 0) or x[0] % 2 == 1


def _assert_tightest(pair, value: Fraction, bits: int) -> None:
    """`pair` is the grid floor and ceiling of `value`, normalised, and lies
    inside mpmath's ``ctx.mpf(p) / ctx.mpf(q)``."""
    lo, hi = pair
    assert (dyadic.to_fraction(lo), dyadic.to_fraction(hi)) == (
        _grid_floor(value, bits), _grid_ceil(value, bits))
    assert _is_normal(lo) and _is_normal(hi)
    assert abs(lo[0]).bit_length() <= bits and abs(hi[0]).bit_length() <= bits
    mp_lo, mp_hi = _mpmath_endpoints(value.numerator, value.denominator, bits)
    assert dyadic.to_fraction(mp_lo) <= dyadic.to_fraction(lo)
    assert dyadic.to_fraction(hi) <= dyadic.to_fraction(mp_hi)


def _mpmath_endpoints(p: int, q: int, bits: int):
    """Oracle: the endpoints of ``ctx.mpf(p) / ctx.mpf(q)`` as ``(m, e)``."""
    ctx = context(bits)
    return tuple((-man if sign else man, exp)
                 for sign, man, exp, _ in (ctx.mpf(p) / ctx.mpf(q))._mpi_)


# ---------------------------------------------------------------------------
# decimal text

#: (m, e) pairs the text must get right: zero, +-1, short exact dyadics,
#: both sides of 1e-6 (where Decimal switches to scientific notation),
#: integers longer than the digits (positive exponents), negatives.
SHAPES = [
    (0, 0), (1, 0), (-1, 0), (1, -2), (-1, -2), (3, -3), (1, -30), (-1, -30), (5, 7),
    (1, -19), (1, -20), (-1, -20), (1, -21), (4294967, -52), (4294968, -52),
    (1, 50), (1, 56), (1, 57), (1, 70), (-1, 70), (10**17, 0), (10**18, 0), (99999999999999999, 0),
    (10**21 - 1, 0), (-(10**21 - 1), 0), (2**53 - 1, -53), (2**53 + 1, -53),
    (1, 30000), (-3, -30000), (12345678901234567890123, -29000), (7, 29970),
]


@pytest.mark.parametrize("m,e", SHAPES)
def test_text_matches_decimal_on_chosen_values(m, e):
    for digits in (1, 2, 12, 17, 40, 310):
        for rounding in ROUNDINGS:
            expected = _decimal_text(_value(m, e), digits, rounding)
            assert dyadic.to_text(m, e, digits, rounding) == expected, (digits, rounding)


@settings(derandomize=True, max_examples=400)
@given(st.integers(-(2**400), 2**400), st.integers(-30000, 30000), st.integers(1, 320),
       st.sampled_from(list(ROUNDINGS)))
def test_text_matches_decimal(m, e, digits, rounding):
    assert dyadic.to_text(m, e, digits, rounding) == _decimal_text(_value(m, e), digits, rounding)


@settings(derandomize=True, max_examples=400)
@given(st.integers(-(2**80), 2**80), st.integers(-120, 120), st.integers(1, 40),
       st.sampled_from(list(ROUNDINGS)))
def test_text_matches_decimal_near_exponent_zero(m, e, digits, rounding):
    # short values whose exact text fits the digits, and ties for half-even
    assert dyadic.to_text(m, e, digits, rounding) == _decimal_text(_value(m, e), digits, rounding)


def test_text_of_examples():
    assert dyadic.to_text(1, -2, 17, "floor") == "0.25"
    assert dyadic.to_text(1, -30, 17, "ceiling") == "9.3132257461547852E-10"
    assert dyadic.to_text(1, 70, 17, "floor") == "1.1805916207174113E+21"
    assert dyadic.to_text(-5, 0, 17, "half-even") == "-5"
    assert dyadic.to_text(10**18, 0, 17, "floor") == "1.0000000000000000E+18"


# ---------------------------------------------------------------------------
# rounding rationals


ROUNDING_BITS = [1, 2, 8, 53, 128, 1024]
operands = st.one_of(st.integers(-(2**40), 2**40), st.integers(-(10**600), 10**600))
divisors = st.one_of(st.just(1), st.integers(1, 2**40), st.integers(1, 10**600))


@pytest.mark.parametrize("bits", ROUNDING_BITS)
@settings(derandomize=True, max_examples=150)
@given(p=operands, q=divisors, k=st.one_of(st.integers(2, 2**20), st.integers(2, 10**200)))
def test_round_quotient_is_the_grid_floor_and_ceiling(bits, p, q, k):
    pair = dyadic.round_quotient(p, q, bits)
    _assert_tightest(pair, Fraction(p, q), bits)
    assert dyadic.round_quotient(p * k, q * k, bits) == pair  # the value alone decides


@pytest.mark.parametrize("bits", ROUNDING_BITS)
@pytest.mark.parametrize("p,q", [(0, 1), (0, 7), (1, 1), (-1, 1), (3, 1), (-3, 4), (2**2000 + 1, 1),
                                 (-(2**2000) - 1, 3), (1, 2**1100 - 1), (2**60 - 1, 2**60 + 1),
                                 (10**600 - 1, 10**599 + 7), (-(10**600) + 1, 3), (2**1030, 1),
                                 (2**1030 - 1, 1), (-(2**1030 - 1), 2**1030)])
def test_round_quotient_is_the_grid_floor_and_ceiling_on_chosen_values(bits, p, q):
    pair = dyadic.round_quotient(p, q, bits)
    _assert_tightest(pair, Fraction(p, q), bits)
    for k in (3, 2**64, 10**300 + 1):
        assert dyadic.round_quotient(p * k, q * k, bits) == pair


@pytest.mark.parametrize("bits", [1, 53, 128, 1024])
@pytest.mark.parametrize("value", [Fraction(0), Fraction(1, 3), Fraction(-22, 7), Fraction(5),
                                   Fraction(2**1200 + 1, 3**500), Fraction(-1, 10**400)])
def test_make_of_a_fraction_is_its_tightest_enclosure(bits, value):
    ctx = context(bits)
    made = make(value, ctx)
    assert made.ctx is ctx
    enclosure = to_enclosure(made)
    _assert_tightest((enclosure.lo, enclosure.hi), value, bits)


# ---------------------------------------------------------------------------
# the printed enclosures


def _oracle_cell(lo: Fraction, hi: Fraction, bits: int) -> dict:
    """Oracle: the cell of the exact endpoints `lo` and `hi`, printed by the
    Decimal printer at the digits of `bits`."""
    digits = dyadic.decimal_digits(bits)
    return {"lo": _decimal_text(lo, digits, "floor"), "hi": _decimal_text(hi, digits, "ceiling"),
            "mid": _decimal_text((lo + hi) / 2, digits, "half-even")}


def _oracle_payload(interval) -> dict:
    """Oracle: today's cell of an interval, its raw endpoints read as Fractions."""
    bits = interval.ctx.prec
    return _oracle_cell(*dyadic.exact_endpoints(_mpmath_enclosure(interval, bits)), bits)


def _grid_cell(value: Fraction, bits: int) -> dict:
    """Oracle: the cell of the tightest `bits`-bit enclosure of `value`."""
    return _oracle_cell(_grid_floor(value, bits), _grid_ceil(value, bits), bits)


@pytest.mark.parametrize("bits", [1, 32, 128, 256, 1024])
@pytest.mark.parametrize("value", [0, 1, 7, Fraction(1, 3), Fraction(-22, 7),
                                   Fraction(10**100 + 1, 10**30), Fraction(3, 10**40),
                                   Fraction(10**600 + 1, 7**700)])
def test_rational_payload_prints_the_tightest_enclosure(bits, value):
    p, q = Fraction(value).as_integer_ratio()
    expected = _grid_cell(Fraction(value), bits)
    assert report.rational_payload(p, q, bits) == expected
    assert report.rational_payload(p * 6, q * 6, bits) == expected  # unreduced terms
    # inside mpmath's enclosure
    mp_lo, mp_hi = (dyadic.to_fraction(end) for end in _mpmath_endpoints(p, q, bits))
    assert mp_lo <= _grid_floor(Fraction(value), bits)
    assert _grid_ceil(Fraction(value), bits) <= mp_hi


@pytest.mark.parametrize("bits", [1, 53, 128, 1024])
def test_interval_text_matches_the_decimal_printer(bits):
    ctx = context(bits)
    for interval in (ctx.mpf([-3, 5]) / 7, ctx.sqrt(ctx.mpf(2)) * 2**-40,
                     ctx.exp(ctx.mpf(300)),
                     _hull(Fraction(-1, 3), Fraction(1, 10**9), ctx)):
        expected = _oracle_payload(interval)
        enclosure = to_enclosure(interval)
        assert dyadic.to_decimal_pair(enclosure) == (expected["lo"], expected["hi"])
        assert report.enclosure_payload(enclosure) == expected
    for unbounded in (ctx.mpf([1, "inf"]), ctx.mpf(["-inf", 1])):
        with pytest.raises(ValueError, match="no infinite or NaN end"):
            to_enclosure(unbounded)


def test_dims_prints_endpoints_longer_than_the_int_to_str_limit(capsys, monkeypatch):
    # dim_q(200) of this family has about 4,600 digits, past the 4,300 digits
    # that int -> str converts by default; the command must print it all the same
    monkeypatch.delenv("QCLASSFUN_BITS", raising=False)
    assert main(["dims", "--family", "o-plus", "--N", "3", "--qq", "1e-23", "--max", "200"]) == 0
    family = fusion.su2_ladder(3, q=Fraction("1e-23"))
    assert fusion.dim(200, family, "quantum").numerator > 10**4300
    rows = []
    for n in range(201):
        dim_c, dim_q = fusion.dim(n, family, "classical"), fusion.dim(n, family, "quantum")
        rows.append({"label": str(n), "dim": dim_c, "dim_q": _grid_cell(dim_q, 128),
                     "ratio": _grid_cell(Fraction(dim_c) / dim_q, 128)})
    expected = report.Report("dims", {"family": "o-plus", "N": 3, "qq": "1e-23", "max": 200},
                             {"table": rows}, {"bits": 128, "digits": 40})
    assert capsys.readouterr().out == expected.to_json()


# ---------------------------------------------------------------------------
# fixed point: one floor and one ceiling per operation

FIXED_POINT_BITS = [8, 53, 128, 1024]
magnitudes = st.fractions(min_value=0, max_value=Fraction(16), max_denominator=10**40)
signed = st.fractions(min_value=Fraction(-16), max_value=Fraction(16), max_denominator=10**40)


def _floor(value: Fraction, frac_bits: int) -> int:
    return math.floor(value * 2**frac_bits)


def _ceil(value: Fraction, frac_bits: int) -> int:
    return math.ceil(value * 2**frac_bits)


def _fixed(a: Fraction, b: Fraction, frac_bits: int) -> tuple[int, int]:
    """The tightest fixed-point pair around the hull of `a` and `b`."""
    return _floor(min(a, b), frac_bits), _ceil(max(a, b), frac_bits)


def _fixed_value(n: int, frac_bits: int) -> Fraction:
    return Fraction(n, 2**frac_bits)


@pytest.mark.parametrize("frac_bits", FIXED_POINT_BITS)
@settings(derandomize=True, max_examples=60)
@given(signed)
def test_a_rational_enters_fixed_point_as_its_floor_and_ceiling(frac_bits, a):
    assert dyadic.to_fixed(a, frac_bits) == (_floor(a, frac_bits), _ceil(a, frac_bits))


@pytest.mark.parametrize("frac_bits", FIXED_POINT_BITS)
@settings(derandomize=True, max_examples=60)
@given(magnitudes, magnitudes, magnitudes, magnitudes)
def test_fixed_point_operations_round_once_outward(frac_bits, a, b, c, d):
    x, y = _fixed(a, b, frac_bits), _fixed(c, d, frac_bits)
    x_lo, x_hi = _fixed_value(x[0], frac_bits), _fixed_value(x[1], frac_bits)
    y_lo, y_hi = _fixed_value(y[0], frac_bits), _fixed_value(y[1], frac_bits)
    assert dyadic.fixed_mul(x, y, frac_bits) == (
        _floor(x_lo * y_lo, frac_bits), _ceil(x_hi * y_hi, frac_bits))
    if y[0] > 0:
        assert dyadic.fixed_div(x, y, frac_bits) == (
            _floor(x_lo / y_hi, frac_bits), _ceil(x_hi / y_lo, frac_bits))
    root_lo, root_hi = dyadic.fixed_sqrt(x, frac_bits)
    # floor and ceiling of the square roots, certified by squaring exactly
    assert _fixed_value(root_lo, frac_bits) ** 2 <= x_lo < _fixed_value(root_lo + 1, frac_bits) ** 2
    assert x_hi <= _fixed_value(root_hi, frac_bits) ** 2
    assert root_hi == 0 or _fixed_value(root_hi - 1, frac_bits) ** 2 < x_hi


# ---------------------------------------------------------------------------
# int enclosures against mpmath's interval operators
#
# Each result of the int layer must equal, endpoint for endpoint, what the
# same operations give in mpmath's interval context at the same precision.

ENCLOSURE_BITS = [1, 2, 7, 53, 64, 96, 128, 256, 1024]
wide_ints = st.one_of(st.integers(-(2**70), 2**70), st.integers(-(2**2100), 2**2100))


def _raw_dyadic(raw) -> tuple[int, int]:
    sign, man, exp, _ = raw
    return (-man if sign else man), exp


def _mpmath_enclosure(interval, bits: int) -> dyadic.Enclosure:
    """Oracle: the raw endpoints of an mpmath interval, as ``(m, e)``."""
    return dyadic.Enclosure(*(_raw_dyadic(raw) for raw in interval._mpi_), bits)


def _interval(x: dyadic.Enclosure, ctx: MPIntervalContext):
    """The mpmath interval in `ctx` with the endpoints of `x`, built exactly."""
    return ctx.make_mpf(tuple(from_man_exp(m, e) for m, e in (x.lo, x.hi)))


def _hull(lo: Fraction, hi: Fraction, ctx: MPIntervalContext):
    """The mpmath interval in `ctx` from the lower end of the enclosure of
    `lo` to the upper end of that of `hi`."""
    return ctx.mpf([make(lo, ctx).a, make(hi, ctx).b])


def _fixed_input(draw_lo: int, draw_hi: int, p: int, bits: int) -> dyadic.Enclosure:
    lo, hi = sorted((draw_lo, draw_hi))
    return dyadic.fixed_enclosure(lo, hi, p, bits)


@pytest.mark.parametrize("bits", ENCLOSURE_BITS)
@settings(derandomize=True, max_examples=80)
@given(wide_ints, wide_ints, st.integers(0, 2200))
def test_fixed_enclosure_is_mpmaths_from_man_exp(bits, lo, hi, p):
    expected = dyadic.Enclosure(
        _raw_dyadic(from_man_exp(lo, -p, bits, round_floor)),
        _raw_dyadic(from_man_exp(hi, -p, bits, round_ceiling)), bits)
    assert dyadic.fixed_enclosure(lo, hi, p, bits) == expected


@pytest.mark.parametrize("bits", ENCLOSURE_BITS)
@settings(derandomize=True, max_examples=60)
@given(st.integers(0, 2**300), st.integers(0, 2**300), st.integers(0, 2**300),
       st.integers(0, 2**300), st.integers(0, 400))
def test_sum_enclosure_is_mpmaths_partial_plus_tail(bits, a, b, c, d, p):
    partial, tail = _fixed_input(a, b, p, bits), _fixed_input(c, d, p, bits)
    result = criteria.SeriesResult(criteria.Verdict.CONVERGES, partial, tail, 1)
    ctx = context(bits)
    partial_interval = _interval(partial, ctx)
    total = partial_interval + _interval(tail, ctx)
    expected = ctx.mpf([partial_interval.a, total.b])
    assert result.sum_enclosure() == _mpmath_enclosure(expected, bits)


def test_sum_enclosure_refuses_enclosures_at_different_bits():
    # the counterpart of tests/conftest.py's guard on mixed interval contexts
    partial = dyadic.fixed_enclosure(3, 5, 4, 64)
    tail = dyadic.fixed_enclosure(0, 1, 4, 128)
    result = criteria.SeriesResult(criteria.Verdict.CONVERGES, partial, tail, 1)
    with pytest.raises(ValueError, match="64 bits .* 128 bits"):
        result.sum_enclosure()


@pytest.mark.parametrize("bits", ENCLOSURE_BITS)
@settings(derandomize=True, max_examples=60)
@given(st.one_of(st.just(0), st.integers(0, 2**200)), st.integers(0, 2**200),
       st.integers(1, 260))
def test_total_sum_free_is_the_tightest_enclosure_of_one_plus_geometric(bits, a, b, p):
    # 0 <= s < 1, including s.lo = 0, where the total's lower end is 1
    a, b = a % (1 << p), b % (1 << p)
    s = _fixed_input(a, b, p, bits)
    if dyadic.to_fraction(s.hi) >= 1:  # rounding up to `bits` reached 1
        s = dyadic.Enclosure(s.lo, s.lo, bits)
    zero = dyadic.Enclosure((0, 0), (0, 0), bits)
    total = criteria.total_sum_free(criteria.SeriesResult(criteria.Verdict.CONVERGES, s, zero))
    assert total.verdict is criteria.Verdict.CONVERGES
    assert total.tail_bound == zero
    # 1 + 2s/(1 - s) = (1 + s)/(1 - s) increases with s
    s_lo, s_hi = dyadic.exact_endpoints(s)
    lo, hi = dyadic.exact_endpoints(total.partial_sum)
    assert lo == _grid_floor((1 + s_lo) / (1 - s_lo), bits)
    assert hi == _grid_ceil((1 + s_hi) / (1 - s_hi), bits)
    assert total.partial_sum.bits == bits
    assert _is_normal(total.partial_sum.lo) and _is_normal(total.partial_sum.hi)
    interval = _interval(s, context(bits))  # inside mpmath's left-to-right operators
    total = 1 + 2 * interval / (1 - interval)
    mp_lo, mp_hi = dyadic.exact_endpoints(_mpmath_enclosure(total, bits))
    assert mp_lo <= lo and hi <= mp_hi


@pytest.mark.parametrize("bits", ENCLOSURE_BITS)
@settings(derandomize=True, max_examples=60)
@given(st.fractions(min_value=Fraction(1, 10**30), max_value=Fraction(2), max_denominator=10**40),
       st.fractions(min_value=0, max_value=Fraction(1, 100), max_denominator=10**40))
def test_threshold_bracket_rounding_is_the_grid_hull(bits, lo, span):
    enclosure = dyadic.rational_enclosure(lo, lo + span, bits)
    assert dyadic.exact_endpoints(enclosure) == (_grid_floor(lo, bits),
                                                 _grid_ceil(lo + span, bits))
    expected = _hull(lo, lo + span, context(bits))
    assert enclosure == _mpmath_enclosure(expected, bits)


@pytest.mark.parametrize("bits", ENCLOSURE_BITS)
@settings(derandomize=True, max_examples=60)
@given(wide_ints, wide_ints, st.integers(0, 2200))
def test_width_is_the_upper_end_of_mpmaths_delta(bits, lo, hi, p):
    x = _fixed_input(lo, hi, p, bits)
    interval = _interval(x, context(bits))
    width = dyadic.width(x)
    assert width == _raw_dyadic(interval.delta._mpi_[1])
    if dyadic.to_fraction(width) < 1:  # as `threshold` prints it: its widths are below 1
        mp_width = mpmath.mp.make_mpf(interval.delta._mpi_[1])
        assert str(float(dyadic.to_fraction(width))) == str(float(mp_width))


@pytest.mark.parametrize("bits", ENCLOSURE_BITS)
@settings(derandomize=True, max_examples=40)
@given(st.integers(-(2**150), 2**150), st.integers(-(2**150), 2**150), st.integers(0, 160))
def test_to_enclosure_reads_back_the_interval_of_an_enclosure(bits, lo, hi, p):
    x = _fixed_input(lo, hi, p, bits)
    interval = _interval(x, context(bits))
    assert to_enclosure(interval) == x
    expected = _oracle_cell(*dyadic.exact_endpoints(x), bits)
    assert dyadic.to_decimal_pair(x) == (expected["lo"], expected["hi"])
    assert report.enclosure_payload(x) == expected
    lo_text, hi_text = dyadic.to_decimal_pair(x, 12)
    x_lo, x_hi = dyadic.exact_endpoints(x)
    assert Fraction(lo_text) <= x_lo and x_hi <= Fraction(hi_text)

# ---------------------------------------------------------------------------
# pi, cosine and sine in fixed point

#: Up to MAX_BITS, and past it: a 1024-bit caller carries guard bits.
TRIG_BITS = (1, 2, 7, 53, 64, 128, 333, 1024, 1053, 1100)

#: Zero, signs, angles near and past multiples of pi/2, and 24-digit angles,
#: the most digits a CLI `--phase` takes.
ANGLES = [Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-1, 3),
          Fraction(22, 7), Fraction(-355, 113), Fraction(7, 2), Fraction(-11, 2), Fraction(100),
          Fraction(1, 10**24), Fraction(10**24 - 1), Fraction(-123456789012345678901234, 7),
          Fraction(884279719003555, 562949953421312)]  # the double nearest pi/2


def _mp(n: int, p: int) -> mpmath.mpf:
    return mpmath.ldexp(mpmath.mpf(n), -p)


def _oracle_bits(bits: int) -> int:
    """mpmath's precision for a result at `bits`: three times it, and 16
    more so that the oracle's own rounding stays far below a unit at 1 bit."""
    return 3 * bits + 16


@pytest.mark.parametrize("bits", TRIG_BITS)
def test_fixed_pi_encloses_pi_within_one_unit(bits):
    lo, hi = dyadic.fixed_pi(bits)
    with mpmath.workprec(_oracle_bits(bits)):
        assert _mp(lo, bits) < mpmath.pi < _mp(hi, bits)
    assert hi - lo == 1


@pytest.mark.parametrize("bits", TRIG_BITS)
@pytest.mark.parametrize("x", ANGLES, ids=str)
def test_fixed_cos_sin_enclose_mpmaths_values(bits, x):
    cos, sin = dyadic.fixed_cos_sin(x, bits)
    # plus the integer bits of x that the reduction consumes
    with mpmath.workprec(_oracle_bits(bits) + abs(x.numerator // x.denominator).bit_length()):
        angle = mpmath.mpf(x.numerator) / x.denominator
        for (lo, hi), value in ((cos, mpmath.cos(angle)), (sin, mpmath.sin(angle))):
            assert _mp(lo, bits) <= value <= _mp(hi, bits)
            assert hi - lo <= 3


def _fraction(x: mpmath.mpf) -> Fraction:
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize("bits", [8, 53, 128, 300])
def test_fixed_cos_sin_hold_values_next_to_a_grid_point(bits):
    # angles whose cosine or sine lies 2^-40 units of the last bit above or
    # below a multiple k 2^-bits: the enclosure keeps them only if every
    # rounding of the series is counted
    for k in (1, 3, 2**bits // 3, 2**bits - 5):
        for offset in (1, -1):
            with mpmath.workprec(3 * bits + 128):
                target = mpmath.ldexp(k + offset * mpmath.ldexp(1, -40), -bits)
                for inverse, index, function in ((mpmath.acos, 0, mpmath.cos),
                                                 (mpmath.asin, 1, mpmath.sin)):
                    angle = _fraction(inverse(target))
                    lo, hi = dyadic.fixed_cos_sin(angle, bits)[index]
                    value = function(mpmath.mpf(angle.numerator) / angle.denominator)
                    assert _mp(lo, bits) <= value <= _mp(hi, bits)


def test_fixed_cos_sin_of_zero_is_exact():
    assert dyadic.fixed_cos_sin(0, 64) == ((1 << 64, 1 << 64), (0, 0))


def test_fixed_cos_sin_budget():
    dyadic.fixed_cos_sin(Fraction(2**dyadic.MAX_BITS - 1, 3), 8)
    with pytest.raises(BudgetError):
        dyadic.fixed_cos_sin(Fraction(2**dyadic.MAX_BITS), 8)
    with pytest.raises(BudgetError):
        dyadic.fixed_cos_sin(Fraction(-(2**(dyadic.MAX_BITS + 5)), 7), 8)
    with pytest.raises(DomainError):
        dyadic.fixed_cos_sin(Fraction(1, 3), 0)


# ---------------------------------------------------------------------------
# logarithm and exponential


#: 1 and its neighbours, both sides of a power of two and of sqrt 2 (where
#: the reduction switches), 24-digit rationals and huge and tiny arguments.
LOG_ARGUMENTS = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3), Fraction(1, 3),
                 1 + Fraction(1, 10**24), 1 - Fraction(1, 10**24), Fraction(2**80 + 1, 2**80),
                 Fraction(2**90 - 1), Fraction(2**90 + 1), Fraction(1, 2**90 - 1),
                 Fraction(1414213562373095, 10**15), Fraction(1414213562373096, 10**15),
                 Fraction(10**15, 1414213562373096),
                 Fraction(123456789012345678901234, 987654321098765432109877),
                 Fraction(99999999999999999999999, 10**23), Fraction(10**300), Fraction(7, 10**300)]


@pytest.mark.parametrize("bits", TRIG_BITS)
@pytest.mark.parametrize("x", LOG_ARGUMENTS, ids=lambda x: f"{float(x):.6g}")
def test_fixed_log_encloses_mpmaths_value(bits, x):
    lo, hi = dyadic.fixed_log(x, bits)
    with mpmath.workprec(_oracle_bits(bits)):
        value = mpmath.log(mpmath.mpf(x.numerator) / x.denominator)
        assert _mp(lo, bits) <= value <= _mp(hi, bits)
    assert hi - lo <= 4
    if x == 1:
        assert (lo, hi) == (0, 0)


@pytest.mark.parametrize("bits", TRIG_BITS)
def test_fixed_log2_encloses_log_2_within_one_unit(bits):
    lo, hi = dyadic._fixed_log2(bits)
    with mpmath.workprec(_oracle_bits(bits)):
        assert _mp(lo, bits) < mpmath.log(2) < _mp(hi, bits)
    assert hi - lo == 1


def _dyadic_of(x: mpmath.mpf) -> tuple[int, int]:
    man, exp = x.man_exp
    return int(man), int(exp)


@pytest.mark.parametrize("bits", [8, 53, 128, 300])
def test_log_and_exp_hold_values_next_to_a_grid_point(bits):
    # arguments whose logarithm (exponential) lies 2^-40 units of the last
    # bit above or below a point of the fixed-point (`bits`-bit) grid: the
    # enclosure keeps them only if every rounding of the series is counted
    with mpmath.workprec(3 * bits + 128):
        for k in (1, 3, 2**bits // 3, 2**bits - 5, -(2**bits // 3), 5 * 2**bits + 1,
                  -7 * 2**bits - 3):
            for offset in (1, -1):
                target = mpmath.ldexp(k + offset * mpmath.ldexp(1, -40), -bits)
                x = _fraction(mpmath.exp(target))
                lo, hi = dyadic.fixed_log(x, bits)
                value = mpmath.log(mpmath.mpf(x.numerator) / x.denominator)
                assert _mp(lo, bits) <= value <= _mp(hi, bits), (k, offset)
        # 1.35 and 21.6 reduce to r = +0.3, where no floor error cancels
        for mantissa, exponent in ((3, -1), (2**bits - 5, -bits), (2**(bits - 1) + 1, 7),
                                   (2**bits // 3, -bits - 10), (27 * 2**bits // 40, 1 - bits),
                                   (27 * 2**bits // 40, 5 - bits)):
            for offset in (1, -1):
                target = mpmath.ldexp(mantissa + offset * mpmath.ldexp(1, -40), exponent)
                x = _dyadic_of(mpmath.log(target))
                lo, hi = dyadic.exp(x, bits, False), dyadic.exp(x, bits, True)
                value = mpmath.exp(mpmath.ldexp(*x))
                assert mpmath.ldexp(*lo) <= value <= mpmath.ldexp(*hi), (mantissa, offset)


#: Zero, tiny arguments, next to multiples of log 2 and on both sides of
#: 3/2 log 2 (where the reduction switches), a 24-digit mantissa, and
#: results far above and far below any fixed point: e^363000 is about
#: 2^523700, the largest power of the `spectral` budget.
EXP_ARGUMENTS = [(0, 0), (1, 0), (-1, 0), (1, -80), (-1, -80), (3, -1), (-3, -1),
                 (12786308645202655659, -64), (19179462967803983489, -64),
                 (19179462967803983490, -64),
                 (-38358925935607966977, -64), (123456789012345678901234, -60),
                 (-123456789012345678901234, -70), (363000, 0), (-363000, 0)]


@pytest.mark.parametrize("bits", TRIG_BITS)
@pytest.mark.parametrize("x", EXP_ARGUMENTS, ids=str)
def test_exp_brackets_mpmaths_value(bits, x):
    lo, hi = dyadic.exp(x, bits, False), dyadic.exp(x, bits, True)
    assert abs(lo[0]).bit_length() <= bits and abs(hi[0]).bit_length() <= bits
    # plus the integer bits of x, whose own rounding in mpmath e^x multiplies
    with mpmath.workprec(_oracle_bits(bits) + max(abs(x[0]).bit_length() + x[1], 0)):
        value = mpmath.exp(mpmath.ldexp(*x))
        low, high = mpmath.ldexp(*lo), mpmath.ldexp(*hi)
        assert low <= value <= high
        assert high - low <= 8 * mpmath.ldexp(value, -bits)
    if x == (0, 0):
        assert lo == hi == (1, 0)


def test_exp_budget():
    dyadic.exp((1, dyadic.MAX_BITS - 1), 8, True)
    with pytest.raises(BudgetError):
        dyadic.exp((1, dyadic.MAX_BITS), 8, True)
    with pytest.raises(BudgetError):
        dyadic.exp((-(2**40), dyadic.MAX_BITS), 8, False)


@settings(derandomize=True, max_examples=60)
@given(st.integers(-2**80, 2**80), st.integers(-200, 200), st.integers(1, 2**80),
       st.integers(-200, 200), st.integers(1, 300))
def test_divide_is_the_grid_floor_and_ceiling(m1, e1, m2, e2, bits):
    value = _value(m1, e1) / _value(m2, e2)
    lo, hi = dyadic.divide((m1, e1), (m2, e2), bits, False), dyadic.divide((m1, e1), (m2, e2), bits, True)
    assert (lo, hi) == dyadic.round_quotient(value.numerator, value.denominator, bits)


@settings(derandomize=True, max_examples=60)
@given(st.integers(-10**6, 10**6), st.integers(0, 2 * 10**6))
def test_fixed_abs_is_the_range_of_the_absolute_value(lo, span):
    hi = lo + span
    ends = (abs(lo), abs(hi))
    assert dyadic.fixed_abs((lo, hi)) == ((0 if lo < 0 < hi else min(ends)), max(ends))


def test_fixed_abs_examples():
    assert dyadic.fixed_abs((-5, 3)) == (0, 5)
    assert dyadic.fixed_abs((-3, 5)) == (0, 5)
    assert dyadic.fixed_abs((-5, -3)) == (3, 5)
    assert dyadic.fixed_abs((3, 5)) == (3, 5)


# ---------------------------------------------------------------------------
# the one reader of the package's inputs


def test_the_reader_takes_ints_fractions_text_and_an_enclosure_where_a_hull_is_wanted():
    # the kinds of input the CLI and the benchmark's library calls pass
    assert dyadic.read_rational(3) == 3 and dyadic.read_rational(10**100) == 10**100
    assert dyadic.read_rational(Fraction(-1, 3)) == Fraction(-1, 3)
    assert dyadic.read_rational(" -2.5e-3 ") == Fraction(-1, 400)
    assert dyadic.read_rational("1e-23") == Fraction(1, 10**23)  # 24 digits: the budget
    assert dyadic.read_rational("1/" + "7" * 23) == Fraction(1, int("7" * 23))
    enclosure = dyadic.rational_enclosure(Fraction(1, 3), Fraction(1, 2), 64)
    assert dyadic.read_hull(enclosure) == dyadic.exact_endpoints(enclosure)
    assert dyadic.read_hull("1/3") == (Fraction(1, 3), Fraction(1, 3))
    with pytest.raises(DomainError, match="need a finite rational"):
        dyadic.read_rational(enclosure)
    with pytest.raises(DomainError, match="need a finite rational"):
        dyadic.read_rational(None)
    with pytest.raises(DomainError, match="must be in 1..24 digits"):
        dyadic.read_rational("1e24")


def test_the_count_check_names_the_count_and_its_range():
    dyadic.check_count(0, "n", 0)
    dyadic.check_count(7, "n", 1, 7)
    for value, message in ((True, "n must be an int, got True"),
                           (2.0, "n must be an int, got 2.0"),
                           (-1, "n must be >= 0, got -1")):
        with pytest.raises(DomainError, match=f"^{message}$"):
            dyadic.check_count(value, "n", 0)
    with pytest.raises(DomainError, match="^bits must lie in 1..1024, got 1025$"):
        dyadic.check_count(1025, "bits", 1, 1024)
