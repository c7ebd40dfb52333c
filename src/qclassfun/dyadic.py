"""Exact dyadic rationals ``m·2^e``: outward rounding and decimal text with ints.

Every finite endpoint of an interval is a dyadic rational, held here as a
pair ``(m, e)`` of ints: the signed mantissa and the binary exponent.  This
module rounds exact rationals to such endpoints and prints them in decimal,
giving exactly the results of mpmath and of :mod:`decimal` without loading
either, so a command that only prints exact rationals never loads mpmath.

* :func:`round_quotient` encloses ``p/q`` between two `bits`-bit dyadics,
  as ``ctx.mpf(p) / ctx.mpf(q)`` does in mpmath's interval context at `bits`
  bits: `p` and `q` are rounded outward to `bits` bits, and the quotient of
  those bounds is rounded outward.
* :func:`to_text` prints a dyadic at `digits` significant digits, rounded
  toward -inf (``"floor"``), toward +inf (``"ceiling"``) or to nearest-even
  (``"half-even"``), as ``str(decimal.Context(prec=digits,
  rounding=...).divide(num, den))`` prints the same rational.

The decimal digits come from the exact conversion of Steele and White ("How
to print floating-point numbers accurately", PLDI 1990): one shift and one
division by a power of ten give the leading digits and the remainder that
decides the rounding.
"""

from __future__ import annotations

import math

Dyadic = tuple[int, int]  # (m, e): the value m·2^e

_LOG10_2 = math.log10(2)


def decimal_digits(bits: int) -> int:
    """Decimal digits carried by `bits` of mantissa, floored at 17."""
    return max(17, int(bits * 0.30103) + 2)


# ---------------------------------------------------------------------------
# rounding exact rationals


def _normal(m: int, e: int) -> Dyadic:
    """The same value with an odd mantissa (``(0, 0)`` for zero), the form
    mpmath stores."""
    if not m:
        return 0, 0
    zeros = (m & -m).bit_length() - 1
    return m >> zeros, e + zeros


def _round_bits(m: int, e: int, bits: int, inexact: bool, up: bool) -> Dyadic:
    """Round the positive ``m·2^e`` to `bits` bits, down or up in magnitude.
    `inexact` says that a positive amount below one unit of `m` was dropped
    before; `m` must then have at least `bits` bits."""
    extra = m.bit_length() - bits
    if extra > 0:
        inexact = inexact or m & ((1 << extra) - 1) != 0
        m >>= extra
        e += extra
    return (m + 1 if up and inexact else m), e


def _divide(x: Dyadic, y: Dyadic, bits: int, up: bool) -> Dyadic:
    """Quotient of two positive dyadics rounded to `bits` bits, down or up."""
    (mx, ex), (my, ey) = x, y
    shift = max(bits - mx.bit_length() + my.bit_length(), 0)  # quotient has >= bits bits
    quotient, remainder = divmod(mx << shift, my)
    return _normal(*_round_bits(quotient, ex - ey - shift, bits, remainder != 0, up))


def round_quotient(p: int, q: int, bits: int) -> tuple[Dyadic, Dyadic]:
    """Lower and upper endpoint, each with an odd mantissa or zero, of the
    `bits`-bit enclosure of ``p/q`` for ``q > 0``: those of
    ``ctx.mpf(p) / ctx.mpf(q)`` in mpmath's interval context at `bits` bits."""
    if not p:
        return (0, 0), (0, 0)
    a = abs(p)
    low = _divide(_round_bits(a, 0, bits, False, False), _round_bits(q, 0, bits, False, True),
                  bits, False)
    high = _divide(_round_bits(a, 0, bits, False, True), _round_bits(q, 0, bits, False, False),
                   bits, True)
    if p > 0:
        return low, high
    return (-high[0], high[1]), (-low[0], low[1])


def midpoint(lo: Dyadic, hi: Dyadic) -> Dyadic:
    """Exact midpoint of two dyadics."""
    (m1, e1), (m2, e2) = lo, hi
    e = min(e1, e2)
    return (m1 << (e1 - e)) + (m2 << (e2 - e)), e - 1


# ---------------------------------------------------------------------------
# decimal text


def to_text(m: int, e: int, digits: int, rounding: str) -> str:
    """``m·2^e`` at `digits` significant digits, rounded by `rounding`
    (``"floor"``, ``"ceiling"`` or ``"half-even"``), in the text of
    :class:`decimal.Decimal`: a value that fits in `digits` digits at an
    exponent of at most 0 is printed exactly, with no trailing zeros after
    the point; any other keeps all `digits` digits.  The exponent is shown
    when it is positive or the value is below 1e-6."""
    if not m:
        return "0"
    negative = m < 0
    m, e = _normal(abs(m), e)
    # ``point`` is the exponent of the last printed digit.  The estimate of
    # the leading digit's exponent, from ``2^(b-1) <= m·2^e < 2^b``, is
    # exact or one low: for every |b| below 10^6, ``(b-1)·log10(2)`` lies
    # farther from an integer than the float error of the product.
    point = math.floor((m.bit_length() + e - 1) * _LOG10_2) - digits + 1
    # m·2^e / 10^point = m·5^-point·2^(e-point) = numerator / denominator
    numerator, denominator = m, 1
    if point < 0:
        numerator *= 5 ** -point
    else:
        denominator = 5 ** point
    if e >= point:
        numerator <<= e - point
    else:
        denominator <<= point - e
    coefficient, remainder = divmod(numerator, denominator)
    top = 10 ** digits
    if coefficient >= top:  # the estimate was one low: drop one more digit
        coefficient, last = divmod(coefficient, 10)
        remainder += last * denominator
        denominator *= 10
        point += 1
    if remainder:
        if rounding == "half-even":
            excess = 2 * remainder - denominator
            up = excess > 0 or excess == 0 and coefficient & 1
        else:
            up = (rounding == "ceiling") != negative
        if up:
            coefficient += 1
            if coefficient == top:
                coefficient //= 10
                point += 1
    elif point <= 0:
        # exact in at most `digits` digits: Decimal strips the trailing zeros
        # down to exponent 0, and an odd m·2^e with e < 0 ends at digit e
        coefficient, point = (m << e, 0) if e >= 0 else (m * 5 ** -e, e)
    return ("-" if negative else "") + _scientific(str(coefficient), point)


def _scientific(coefficient: str, point: int) -> str:
    """Decimal's ``to_sci_string`` of the digits `coefficient` times ``10^point``."""
    leading = point + len(coefficient)
    dot = leading if point <= 0 and leading > -6 else 1
    if dot <= 0:
        text = "0." + "0" * -dot + coefficient
    elif dot >= len(coefficient):
        text = coefficient
    else:
        text = coefficient[:dot] + "." + coefficient[dot:]
    return text if leading == dot else f"{text}E{leading - dot:+d}"
