"""Dyadic rounding and decimal text against mpmath and the decimal module.

:mod:`qclassfun.dyadic` must give mpmath's interval endpoints for an exact
rational and :mod:`decimal`'s text for an exact endpoint, character for
character.  The oracles below are those two computations, run directly.
"""

from __future__ import annotations

import decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.ctx_iv import MPIntervalContext

from qclassfun import dyadic, fusion, intervals, report
from qclassfun.cli import main

ROUNDINGS = {"floor": decimal.ROUND_FLOOR, "ceiling": decimal.ROUND_CEILING,
             "half-even": decimal.ROUND_HALF_EVEN}


def _decimal_text(value: Fraction, digits: int, rounding: str) -> str:
    """Oracle: the Fraction/Decimal printer, dividing the exact numerator by
    the exact denominator in a Decimal context."""
    context = decimal.Context(prec=digits, rounding=ROUNDINGS[rounding])
    return str(context.divide(value.numerator, value.denominator))


def _value(m: int, e: int) -> Fraction:
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _mpmath_endpoints(p: int, q: int, bits: int):
    """Oracle: the endpoints of ``ctx.mpf(p) / ctx.mpf(q)`` as ``(m, e)``."""
    ctx = MPIntervalContext()
    ctx.prec = bits
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


@pytest.mark.parametrize("bits", [1, 8, 53, 128, 1024])
@settings(derandomize=True, max_examples=150)
@given(p=st.one_of(st.integers(-(2**40), 2**40), st.integers(-(2**1500), 2**1500)),
       q=st.one_of(st.just(1), st.integers(1, 2**40), st.integers(1, 2**1500)))
def test_round_quotient_matches_mpmath(bits, p, q):
    assert dyadic.round_quotient(p, q, bits) == _mpmath_endpoints(p, q, bits)


@pytest.mark.parametrize("bits", [1, 8, 53, 128, 1024])
@pytest.mark.parametrize("p,q", [(0, 1), (0, 7), (1, 1), (-1, 1), (3, 1), (-3, 4), (2**2000 + 1, 1),
                                 (-(2**2000) - 1, 3), (1, 2**1100 - 1), (2**60 - 1, 2**60 + 1)])
def test_round_quotient_matches_mpmath_on_chosen_values(bits, p, q):
    assert dyadic.round_quotient(p, q, bits) == _mpmath_endpoints(p, q, bits)


@pytest.mark.parametrize("bits", [1, 53, 128, 1024])
@pytest.mark.parametrize("value", [Fraction(0), Fraction(1, 3), Fraction(-22, 7), Fraction(5),
                                   Fraction(2**1200 + 1, 3**500), Fraction(-1, 10**400)])
def test_make_of_a_fraction_is_mpmaths_quotient(bits, value):
    with intervals.precision(bits) as ctx:
        expected = ctx.mpf(value.numerator) / ctx.mpf(value.denominator)
        assert intervals.make(value, ctx)._mpi_ == expected._mpi_


# ---------------------------------------------------------------------------
# the printed enclosures


def _oracle_payload(interval) -> dict:
    """Oracle: today's cell of an interval, its endpoints read as Fractions
    and printed by the Decimal printer."""
    lo, hi = intervals.exact_endpoints(interval)
    digits = dyadic.decimal_digits(interval.ctx.prec)
    return {"lo": _decimal_text(lo, digits, "floor"), "hi": _decimal_text(hi, digits, "ceiling"),
            "mid": _decimal_text((lo + hi) / 2, digits, "half-even")}


@pytest.mark.parametrize("bits", [1, 32, 128, 256, 1024])
@pytest.mark.parametrize("value", [0, 1, 7, Fraction(1, 3), Fraction(-22, 7),
                                   Fraction(10**100 + 1, 10**30), Fraction(3, 10**40)])
def test_rational_payload_prints_mpmaths_enclosure(bits, value):
    p, q = Fraction(value).as_integer_ratio()
    with intervals.precision(bits) as ctx:
        expected = _oracle_payload(ctx.mpf(p) / ctx.mpf(q))
    assert report.rational_payload(value, bits) == expected


@pytest.mark.parametrize("bits", [1, 53, 128, 1024])
def test_interval_text_matches_the_decimal_printer(bits):
    with intervals.precision(bits) as ctx:
        for interval in (ctx.mpf([-3, 5]) / 7, ctx.sqrt(ctx.mpf(2)) * 2**-40,
                         ctx.exp(ctx.mpf(300)),
                         intervals.from_endpoints(Fraction(-1, 3), Fraction(1, 10**9), ctx)):
            expected = _oracle_payload(interval)
            assert intervals.to_decimal_pair(interval) == (expected["lo"], expected["hi"])
            assert report.enclosure_payload(interval) == expected
        unbounded = ctx.mpf([1, "inf"])
        assert report.enclosure_payload(unbounded) == {"lo": "1", "hi": "inf", "mid": "nan"}
        unbounded = ctx.mpf(["-inf", 1])
        assert report.enclosure_payload(unbounded) == {"lo": "-inf", "hi": "1", "mid": "nan"}


def test_dims_prints_endpoints_longer_than_the_int_to_str_limit(capsys, monkeypatch):
    # dim_q(200) of this family has about 4,600 digits, past the 4,300 digits
    # that int -> str converts by default; the command must print it all the same
    monkeypatch.delenv("QCLASSFUN_BITS", raising=False)
    assert main(["dims", "--family", "o-plus", "--N", "3", "--qq", "1e-23", "--max", "200"]) == 0
    family = fusion.su2_ladder(3, q=Fraction("1e-23"))
    assert fusion.dim(200, family, "quantum").numerator > 10**4300
    rows = []
    with intervals.precision(128) as ctx:
        for n in range(201):
            dim_c, dim_q = fusion.dim(n, family, "classical"), fusion.dim(n, family, "quantum")
            ratio = Fraction(dim_c) / dim_q
            rows.append({
                "label": str(n),
                "dim": dim_c,
                "dim_q": _oracle_payload(ctx.mpf(dim_q.numerator) / ctx.mpf(dim_q.denominator)),
                "ratio": _oracle_payload(ctx.mpf(ratio.numerator) / ctx.mpf(ratio.denominator)),
            })
    expected = report.Report("dims", {"family": "o-plus", "N": 3, "qq": "1e-23", "max": 200},
                             {"table": rows}, {"bits": 128, "digits": 40})
    assert capsys.readouterr().out == expected.to_json()
