"""Exact dyadic rationals ``m·2^e``: outward rounding and decimal text with ints.

Every finite endpoint of an interval is a dyadic rational, held here as a
pair ``(m, e)`` of ints: the signed mantissa and the binary exponent.  This
module rounds exact rationals to such endpoints and prints them in decimal
without loading mpmath or :mod:`decimal`, so a command that only prints
exact rationals never loads mpmath.

* :func:`round_quotient` encloses ``p/q`` between two `bits`-bit dyadics,
  its floor and its ceiling on the `bits`-bit grid: one exact division
  rounds each end once, the tightest enclosure at `bits` bits (Brent and
  Zimmermann, "Modern Computer Arithmetic", 2010, section 1.4).
* :func:`to_text` prints a dyadic at `digits` significant digits, rounded
  toward -inf (``"floor"``), toward +inf (``"ceiling"``) or to nearest-even
  (``"half-even"``), as ``str(decimal.Context(prec=digits,
  rounding=...).divide(num, den))`` prints the same rational.

* :class:`Enclosure` is a certified result carried on ints: two such
  endpoints and the precision `bits` they were rounded to.  It has no
  arithmetic operators; :func:`fixed_enclosure` rounds a fixed-point pair
  into one as mpmath's ``from_man_exp`` does, and :func:`round_to` and
  :func:`width` round single operations outward as mpmath's interval
  operators do at the same precision.
  :func:`qclassfun.intervals.to_enclosure` converts an mpmath interval into one.
  :func:`power` and :func:`divide` round one product chain or one quotient
  of positive dyadics toward the end they bound, and :func:`below` compares
  two positive dyadics however far apart their exponents are.
* Fixed point: a pair of ints ``(lo, hi)`` stands for ``[lo, hi]·2^-p``.
  :func:`to_fixed` and :func:`fixed_hull` enclose a rational and an interval,
  and :func:`fixed_mul`, :func:`fixed_div` and :func:`fixed_sqrt` round each
  result by one floor and one ceiling.  They take nonnegative pairs only, on
  which each operation is monotone in every operand, so rounding is outward;
  :func:`fixed_abs` turns a signed pair into the nonnegative one of its
  absolute value.
* :func:`fixed_pi` and :func:`fixed_cos_sin` enclose pi and the cosine and
  sine of an exact rational in fixed point, by Machin's formula and by
  Taylor series after reduction by the nearest multiple of pi/2, each with
  the truncation error bounded by the first omitted term and the rounding
  error by the term count (Brent and Zimmermann, ch. 4), and the error of
  the reduced argument carried as a radius about its midpoint (Johansson,
  "Arb: efficient arbitrary-precision midpoint-radius interval arithmetic",
  IEEE Trans. Computers 66, 2017).

The decimal digits come from the exact conversion of Steele and White ("How
to print floating-point numbers accurately", PLDI 1990): one shift and one
division by a power of ten give the leading digits and the remainder that
decides the rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .budgets import MAX_BITS
from .errors import BudgetError, DomainError, Record

Dyadic = tuple[int, int]  # (m, e): the value m·2^e
Fixed = tuple[int, int]  # (lo, hi): the interval [lo, hi]·2^-p of a fraction bit count p

_LOG10_2 = math.log10(2)


def check_bits(bits: int) -> None:
    """The one check of a precision: `bits` outside ``1..MAX_BITS`` is a
    domain error."""
    if not 1 <= bits <= MAX_BITS:
        raise DomainError(f"bits must lie in 1..{MAX_BITS}, got {bits}")


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


def round_quotient(p: int, q: int, bits: int) -> tuple[Dyadic, Dyadic]:
    """Lower and upper endpoint, each with an odd mantissa or zero, of the
    tightest `bits`-bit enclosure of ``p/q`` for ``q > 0``: the floor and
    the ceiling of ``p/q`` on the `bits`-bit grid, from one exact division.
    They depend on the value alone, not on the terms of the fraction."""
    if p < 0:
        low, high = round_quotient(-p, q, bits)
        return negate(high), negate(low)
    shift = max(bits - p.bit_length() + q.bit_length(), 0)  # the floor has >= bits bits
    floor, remainder = divmod(p << shift, q)
    return (round_to(floor, -shift, bits, False),
            round_to(floor + (remainder != 0), -shift, bits, True))


def round_to(m: int, e: int, bits: int, ceiling: bool) -> Dyadic:
    """``m·2^e`` rounded to `bits` bits toward +inf (`ceiling`) or -inf,
    with an odd mantissa or zero: mpmath's ``from_man_exp(m, e, bits,
    round_ceiling or round_floor)``."""
    if not m:
        return 0, 0
    m_abs = abs(m)
    extra = m_abs.bit_length() - bits
    if extra > 0:
        dropped = m_abs & ((1 << extra) - 1)
        m_abs >>= extra
        e += extra
        if dropped and ceiling == (m > 0):  # away from zero
            m_abs += 1
    m_abs, e = _normal(m_abs, e)
    return (m_abs if m > 0 else -m_abs), e


def add(x: Dyadic, y: Dyadic) -> Dyadic:
    """Exact sum of two dyadics."""
    (m1, e1), (m2, e2) = x, y
    e = min(e1, e2)
    return (m1 << (e1 - e)) + (m2 << (e2 - e)), e


def _top(x: Dyadic) -> int:
    """The exponent just above the leading bit of a nonzero `x`."""
    return abs(x[0]).bit_length() + x[1]


def below(x: Dyadic, y: Dyadic) -> bool:
    """``x < y`` for positive dyadics, with no shift past the mantissa lengths."""
    if _top(x) != _top(y):
        return _top(x) < _top(y)
    return add(x, negate(y))[0] < 0


def negate(x: Dyadic) -> Dyadic:
    return -x[0], x[1]


def midpoint(lo: Dyadic, hi: Dyadic) -> Dyadic:
    """Exact midpoint of two dyadics."""
    m, e = add(lo, hi)
    return m, e - 1


def power(x: Dyadic, n: int, bits: int, ceiling: bool) -> Dyadic:
    """``x^n`` for a positive `x` and ``n >= 0`` by repeated squaring, each
    product rounded to `bits` bits toward +inf (`ceiling`) or -inf, so the
    result bounds the exact power from that side after ``2 log2(n)`` roundings."""
    result = 1, 0
    while n:
        if n & 1:
            result = round_to(result[0] * x[0], result[1] + x[1], bits, ceiling)
        n >>= 1
        if n:
            x = round_to(x[0] * x[0], 2 * x[1], bits, ceiling)
    return result


def divide(x: Dyadic, y: Dyadic, bits: int, ceiling: bool) -> Dyadic:
    """``x/y`` for a positive `y`, rounded to `bits` bits toward +inf
    (`ceiling`) or -inf."""
    m, e = round_quotient(x[0], y[0], bits)[ceiling]
    return (m, e + x[1] - y[1]) if m else (0, 0)


def to_fraction(x: Dyadic) -> Fraction:
    m, e = x
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


# ---------------------------------------------------------------------------
# enclosures


class Enclosure(Record):
    """The interval ``[lo, hi]`` between two dyadics ``(m, e)`` with odd
    mantissas (or ``(0, 0)``), each rounded to at most `bits` bits, the
    form mpmath stores.  None is an unbounded end, which only an mpmath
    interval converted by :mod:`qclassfun.intervals` has."""

    __slots__ = ("lo", "hi", "bits")

    def __init__(self, lo: Dyadic | None, hi: Dyadic | None, bits: int,
                 _set=object.__setattr__) -> None:
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "bits", bits)


def exact_endpoints(x: Enclosure) -> tuple[Fraction | None, Fraction | None]:
    """Endpoints of `x` as exact rationals; None for an unbounded end."""
    return tuple(None if end is None else to_fraction(end) for end in (x.lo, x.hi))


def fixed_enclosure(lo: int, hi: int, p: int, bits: int) -> Enclosure:
    """Enclosure of ``[lo, hi]·2^-p`` at `bits`: the lower end rounded down
    and the upper one up."""
    return Enclosure(round_to(lo, -p, bits, False), round_to(hi, -p, bits, True), bits)


def rational_enclosure(lo: Fraction, hi: Fraction, bits: int) -> Enclosure:
    """Enclosure of ``[lo, hi]`` at `bits`: the lower end of the enclosure
    of `lo` and the upper end of that of `hi`, as :func:`round_quotient`
    rounds them."""
    return Enclosure(round_quotient(lo.numerator, lo.denominator, bits)[0],
                     round_quotient(hi.numerator, hi.denominator, bits)[1], bits)


def width(x: Enclosure) -> Dyadic:
    """Upper bound of the diameter of a bounded `x`: ``hi - lo`` rounded up
    to ``x.bits``, the upper end of mpmath's ``delta``."""
    return round_to(*add(x.hi, negate(x.lo)), x.bits, True)


# ---------------------------------------------------------------------------
# fixed point


def floor_fixed(x: Dyadic, p: int) -> int:
    """``floor(m·2^(e+p))``: the floor of `x` in fixed point at `p` bits."""
    m, e = x
    return m << (e + p) if e + p >= 0 else m >> -(e + p)


def to_fixed(x: Fraction, p: int) -> Fixed:
    """Floor and ceiling of ``x·2^p``: the fixed-point enclosure of `x`."""
    scaled = x.numerator << p
    return scaled // x.denominator, -(-scaled // x.denominator)


def fixed_hull(lo: Fraction, hi: Fraction, p: int) -> Fixed:
    """Fixed-point enclosure of ``[lo, hi]``: floor of ``lo·2^p``, ceiling of ``hi·2^p``."""
    return to_fixed(lo, p)[0], to_fixed(hi, p)[1]


def fixed_mul(a: Fixed, b: Fixed, p: int) -> Fixed:
    """Product of two nonnegative fixed-point enclosures."""
    return (a[0] * b[0]) >> p, -((-a[1] * b[1]) >> p)


def fixed_div(a: Fixed, b: Fixed, p: int) -> Fixed:
    """Quotient of a nonnegative by a positive fixed-point enclosure."""
    return (a[0] << p) // b[1], -((-a[1] << p) // b[0])


def fixed_sqrt(a: Fixed, p: int) -> Fixed:
    """Square root of a nonnegative fixed-point enclosure."""
    top = a[1] << p
    root = math.isqrt(top)
    return math.isqrt(a[0] << p), root + (root * root < top)


def fixed_abs(a: Fixed) -> Fixed:
    """The nonnegative enclosure of ``|x|`` for x in the signed enclosure `a`."""
    lo, hi = a
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return 0, max(-lo, hi)


def _atan_inverse(x: int, p: int) -> tuple[int, int]:
    """``arctan(1/x)·2^p`` for an int ``x > 1`` as its series
    ``sum (-1)^k / ((2k+1) x^(2k+1))`` summed on floored terms, and a bound
    on the error.  ``power`` stays the exact floor of ``2^p / x^(2k+1)``
    (a floor of a floor divided by an int is the floor of the quotient), so
    each term is off by less than 1; the series stops at the first term
    below 1, which bounds the alternating tail."""
    power, square = (1 << p) // x, x * x
    total, k = 0, 0
    while power:
        term = power // (2 * k + 1)
        total += -term if k & 1 else term
        power //= square
        k += 1
    return total, k + 1


def fixed_pi(p: int) -> Fixed:
    """Fixed-point enclosure of pi at `p` fraction bits, by Machin's formula
    ``pi = 16 arctan(1/5) - 4 arctan(1/239)`` summed at guard bits on ints
    with the error bound of :func:`_atan_inverse`."""
    guard = p.bit_length() + 10
    fifth, fifth_error = _atan_inverse(5, p + guard)
    tail, tail_error = _atan_inverse(239, p + guard)
    centre, error = 16 * fifth - 4 * tail, 16 * fifth_error + 4 * tail_error
    return (centre - error) >> guard, -(-(centre + error) >> guard)


def fixed_cos_sin(x: int | Fraction, p: int) -> tuple[Fixed, Fixed]:
    """Signed fixed-point enclosures at `p` fraction bits of ``cos x`` and
    ``sin x`` for an exact rational `x`.

    `x` is reduced by the nearest multiple k of pi/2, with pi at ``p`` plus
    the bits of ``|x|`` plus guard bits, to ``r = x - k pi/2`` with
    ``|r| <= pi/4`` up to the error of pi.  The Taylor series of cos and sin
    are summed at the midpoint m of the enclosure of r, on floored terms
    ``t_n = floor(t_(n-1) |m| / n)``: since ``|m| <= 1`` each lies less than
    2 below the exact term, and the series stop at the first zero term, a
    bound of the omitted alternating tail.  The radius of r widens both
    results, as cos and sin are 1-Lipschitz.  An `x` of more than
    ``MAX_BITS`` integer bits raises :class:`BudgetError`.
    """
    x = Fraction(x)
    check_bits(p)
    if not x:
        return (1 << p, 1 << p), (0, 0)
    extra = (abs(x.numerator) // x.denominator).bit_length()
    if extra > MAX_BITS:
        raise BudgetError(f"reducing an angle of {extra} integer bits needs more than "
                          f"{MAX_BITS} extra bits of pi")
    guard = p.bit_length() + 10
    work = p + guard
    reduce = work + extra + 2
    pi_lo, pi_hi = fixed_pi(reduce)
    x_lo, x_hi = to_fixed(x, reduce)
    k = (4 * x_lo + pi_lo) // (2 * pi_lo)  # the nearest integer to 2x/pi
    # 2r·2^reduce, between 2x - k pi at the two ends of pi
    low, high = (2 * x_lo - k * pi_hi, 2 * x_hi - k * pi_lo) if k >= 0 else (
        2 * x_lo - k * pi_lo, 2 * x_hi - k * pi_hi)
    shift = reduce + 1 - work
    low, high = low >> shift, -(-high >> shift)
    mid = (low + high) >> 1
    radius = high - mid
    term, n, sums = 1 << work, 0, [0, 0]
    size = abs(mid)
    while term:
        sums[n & 1] += -term if n & 2 else term
        n += 1
        term = term * size // (n << work)
    error = 2 * n + 2 + radius
    cos, sin = sums[0], sums[1] if mid >= 0 else -sums[1]
    cos, sin = (cos - error, cos + error), (sin - error, sin + error)
    for _ in range(k % 4):  # a quarter turn: (cos, sin) -> (-sin, cos)
        cos, sin = (-sin[1], -sin[0]), cos
    return ((cos[0] >> guard, -(-cos[1] >> guard)),
            (sin[0] >> guard, -(-sin[1] >> guard)))


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
