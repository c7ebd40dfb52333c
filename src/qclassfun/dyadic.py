"""Exact dyadic rationals ``m·2^e``: outward rounding, elementary functions
and decimal text with ints, and the one reader of the package's inputs:
:func:`read_rational` reads every rational a caller or a command-line flag
gives, :func:`read_hull` one that an :class:`Enclosure` may stand for, and
:func:`check_count` checks every count.

Every endpoint of an enclosure is a dyadic rational, held here as a pair
``(m, e)`` of ints: the signed mantissa and the binary exponent.  This
module rounds exact rationals to such endpoints, encloses the elementary
functions the package needs and prints endpoints in decimal, without
loading mpmath or :mod:`decimal`, so no command loads mpmath.

* :func:`round_quotient` encloses ``p/q`` between two `bits`-bit dyadics,
  its floor and its ceiling on the `bits`-bit grid: one integer division,
  to the bits that are kept, rounds each end once, the tightest enclosure
  at `bits` bits (Brent and Zimmermann, "Modern Computer Arithmetic", 2010,
  section 1.4).
* :func:`to_text` prints a dyadic at `digits` significant digits, rounded
  toward -inf (``"floor"``), toward +inf (``"ceiling"``) or to nearest-even
  (``"half-even"``), as ``str(decimal.Context(prec=digits,
  rounding=...).divide(num, den))`` prints the same rational.

* :class:`Enclosure` is a certified result carried on ints: two such
  endpoints, both bounded, and the precision `bits` they were rounded to.
  It has no arithmetic operators; :func:`fixed_enclosure` rounds a
  fixed-point pair into one as mpmath's ``from_man_exp`` does, and
  :func:`round_to` and :func:`width` round single operations outward as
  mpmath's interval operators do at the same precision;
  :func:`to_decimal_pair` prints its endpoints outward.  :func:`divide`
  and :func:`exp` round one quotient of positive dyadics or one
  exponential toward the end they bound.
* Fixed point: a pair of ints ``(lo, hi)`` stands for ``[lo, hi]·2^-p``.
  :func:`to_fixed` and :func:`fixed_hull` enclose a rational and an interval,
  and :func:`fixed_mul`, :func:`fixed_div` and :func:`fixed_sqrt` round each
  result by one floor and one ceiling.  They take nonnegative pairs only, on
  which each operation is monotone in every operand, so rounding is outward;
  :func:`fixed_abs` turns a signed pair into the nonnegative one of its
  absolute value.
* :func:`fixed_pi`, :func:`fixed_log` and :func:`fixed_cos_sin` enclose
  pi, the logarithm of a positive rational and the cosine and sine of an
  exact rational in fixed point, and :func:`exp` the exponential of an
  exact dyadic as dyadic bounds: by Machin's formula, by the series of
  ``artanh`` after reduction by a power of two, and by one Taylor loop
  after reduction by the nearest multiple of pi/2 or of ``log 2``, each
  with the truncation error bounded by the first omitted term and the
  rounding error by the term count (Brent and Zimmermann, ch. 4), and the
  error of the reduced argument carried as a radius about its midpoint
  (Johansson, "Arb: efficient arbitrary-precision midpoint-radius interval
  arithmetic", IEEE Trans. Computers 66, 2017).

The decimal digits come from the exact conversion of Steele and White ("How
to print floating-point numbers accurately", PLDI 1990): one shift and one
division by a power of ten give the leading digits and the remainder that
decides the rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .budgets import MAX_BITS, MAX_RATIONAL_DIGITS
from .errors import BudgetError, DomainError, Record

Dyadic = tuple[int, int]  # (m, e): the value m·2^e
Fixed = tuple[int, int]  # (lo, hi): the interval [lo, hi]·2^-p of a fraction bit count p

_LOG10_2 = math.log10(2)


def read_rational(value: int | str | Fraction) -> Fraction:
    """An int or a ``Fraction`` as it is, or text within ``MAX_RATIONAL_DIGITS``
    digits, checked before ``Fraction`` expands its exponent.  A float or a
    bool raises ``TypeError``, as its binary value is not what it prints, and
    anything else that is no finite rational :class:`DomainError`."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (bool, float)):
        raise TypeError(f"pass an int, Fraction or decimal string for exactness, got {value!r}")
    if isinstance(value, str):
        mantissa, _, exponent = value.lower().partition("e")
        try:
            size = sum(map(str.isdecimal, mantissa)) + abs(int(exponent or 0))
        except ValueError:  # no exponent of a rational: Fraction refuses the text
            size = 0
        if size > MAX_RATIONAL_DIGITS:
            raise DomainError(f"a rational must be in 1..{MAX_RATIONAL_DIGITS} digits, "
                              f"an exponent e-n counting as n; got {size}")
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise DomainError(f"need a finite rational, got {value!r}") from None


def read_hull(value: int | str | Fraction | Enclosure) -> tuple[Fraction, Fraction]:
    """Exact ends of an :class:`Enclosure`, or a rational of :func:`read_rational` twice."""
    return exact_endpoints(value) if isinstance(value, Enclosure) else (read_rational(value),) * 2


def check_count(value: int, name: str, low: int, high: int | None = None) -> None:
    """The one check of a count, such as `bits` in ``1..MAX_BITS``: `value`
    must be an int, not a bool, in ``low..high`` (no upper end without
    `high`), or it is a domain error."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{name} must be an int, got {value!r}")
    if value < low or high is not None and value > high:
        span = f"be >= {low}" if high is None else f"lie in {low}..{high}"
        raise DomainError(f"{name} must {span}, got {value}")


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
    the ceiling of ``p/q`` on the `bits`-bit grid, from one integer
    division to the bits that are kept.  That is ``floor(p·2^-k / q)`` with
    at least `bits` bits: `p` is shifted left when it is short, and right
    when it is long, as ``floor(floor(p·2^-k)/q) = floor(p·2^-k / q)``; the
    quotient is inexact when the remainder or the dropped bits of `p` are
    nonzero.  The ends depend on the value alone, not on the terms of the
    fraction."""
    if p < 0:
        low, high = round_quotient(-p, q, bits)
        return negate(high), negate(low)
    k = p.bit_length() - q.bit_length() - bits  # the floor has >= bits bits
    if k > 0:
        floor, remainder = divmod(p >> k, q)
        remainder |= p & ((1 << k) - 1)
    else:
        floor, remainder = divmod(p << -k, q)
    return round_to(floor, k, bits, False), round_to(floor + (remainder != 0), k, bits, True)


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


def negate(x: Dyadic) -> Dyadic:
    return -x[0], x[1]


def midpoint(lo: Dyadic, hi: Dyadic) -> Dyadic:
    """Exact midpoint of two dyadics."""
    m, e = add(lo, hi)
    return m, e - 1


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
    form mpmath stores.  Both ends are bounded."""

    __slots__ = ("lo", "hi", "bits")

    def __init__(self, lo: Dyadic, hi: Dyadic, bits: int,
                 _set=object.__setattr__) -> None:
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "bits", bits)


def exact_endpoints(x: Enclosure) -> tuple[Fraction, Fraction]:
    """Endpoints of `x` as exact rationals."""
    return to_fraction(x.lo), to_fraction(x.hi)


def to_decimal_pair(x: Enclosure, digits: int | None = None) -> tuple[str, str]:
    """Outward decimal endpoints of `x`: the lower rounded down, the upper
    up; by default to the digits of its bits."""
    if digits is None:
        digits = decimal_digits(x.bits)
    return to_text(*x.lo, digits, "floor"), to_text(*x.hi, digits, "ceiling")


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
    """Upper bound of the diameter of `x`: ``hi - lo`` rounded up
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


def _atan_series(u: int, v: int, p: int, alternate: bool) -> tuple[int, int]:
    """``arctan(z)·2^p``, or ``artanh(z)·2^p`` without `alternate`, for
    ``z = u/v`` with ``0 < 3u <= v``, as the series ``sum (±1)^k z^(2k+1) /
    (2k+1)`` summed on floored terms, and a bound on the error.  For
    ``u = 1``, ``power`` stays the exact floor of ``2^p / v^(2k+1)`` (a floor
    of a floor divided by an int is the floor of the quotient), so each term
    is off by less than 1; otherwise each floored power lies less than
    ``1/(1 - z^2) <= 9/8`` below the exact one, and each term less than 2.
    The series stops at the first zero power, which bounds the tail: below
    1 when it alternates, below ``(9/8)^2 < 2`` when it does not."""
    power, square_u, square_v = (u << p) // v, u * u, v * v
    total, k = 0, 0
    while power:
        term = power // (2 * k + 1)
        total += -term if alternate and k & 1 else term
        power = power * square_u // square_v
        k += 1
    return total, (1 if u == 1 else 2) * k + (1 if alternate else 2)


@lru_cache(maxsize=128)
def fixed_pi(p: int) -> Fixed:
    """Fixed-point enclosure of pi at `p` fraction bits, by Machin's formula
    ``pi = 16 arctan(1/5) - 4 arctan(1/239)`` summed at guard bits on ints
    with the error bound of :func:`_atan_series`; computed once per `p`."""
    guard = p.bit_length() + 10
    fifth, fifth_error = _atan_series(1, 5, p + guard, True)
    tail, tail_error = _atan_series(1, 239, p + guard, True)
    centre, error = 16 * fifth - 4 * tail, 16 * fifth_error + 4 * tail_error
    return (centre - error) >> guard, -(-(centre + error) >> guard)


@lru_cache(maxsize=128)
def _fixed_log2(p: int) -> Fixed:
    """Fixed-point enclosure of ``log 2 = 2 artanh(1/3)`` at `p` fraction bits."""
    guard = p.bit_length() + 10
    centre, error = _atan_series(1, 3, p + guard, False)
    return (2 * (centre - error)) >> guard, -(-2 * (centre + error) >> guard)


def fixed_log(x: Fraction, p: int) -> Fixed:
    """Fixed-point enclosure at `p` fraction bits of ``log x`` for a positive
    rational `x`, exactly 0 at ``x = 1``.

    ``x = m·2^k`` with m in ``[1/sqrt 2, sqrt 2)``, decided exactly, and
    ``log x = 2 artanh((m - 1)/(m + 1)) + k log 2``: the series of
    :func:`_atan_series` converges by a factor ``((sqrt 2 - 1)/(sqrt 2 +
    1))^2 < 1/33`` a term, and runs with ``log 2`` at guard bits plus the
    bits of k, which multiplies its error (Brent and Zimmermann, ch. 4).
    """
    a, b = x.numerator, x.denominator
    if a == b:
        return 0, 0
    k = a.bit_length() - b.bit_length()  # x / 2^k lies in (1/2, 2)
    a, b = (a, b << k) if k >= 0 else (a << -k, b)
    if a * a >= 2 * b * b:
        b, k = b << 1, k + 1
    elif 2 * a * a < b * b:
        a, k = a << 1, k - 1
    guard = p.bit_length() + k.bit_length() + 10
    work = p + guard
    series, error = _atan_series(abs(a - b), a + b, work, False) if a != b else (0, 0)
    if a < b:
        series = -series
    ln2_lo, ln2_hi = _fixed_log2(work)
    scaled_lo, scaled_hi = sorted((k * ln2_lo, k * ln2_hi))
    low, high = 2 * (series - error) + scaled_lo, 2 * (series + error) + scaled_hi
    return low >> guard, -(-high >> guard)


def _taylor_sums(size: int, work: int) -> tuple[list[int], int]:
    """The floored Taylor terms ``t_n = floor(t_(n-1) size / (n 2^work))``
    of ``e^(size·2^-work)`` from ``t_0 = 2^work``, summed by ``n mod 4`` up to
    the first zero term, and the count n of the nonzero ones.  For ``0 <=
    size <= 2^work`` each lies less than 2 below the exact term, so each sum
    of a series read from them (cos, sin, ``e^r`` and ``e^-r``) is off by
    less than 2n before its tail."""
    term, n, sums = 1 << work, 0, [0, 0, 0, 0]
    while term:
        sums[n & 3] += term
        n += 1
        term = term * size // (n << work)
    return sums, n


def _reduce(x: Fixed, c: Fixed, shift: int) -> tuple[int, int, int]:
    """The nearest multiple k of a positive constant ``c`` to ``x``, both
    fixed-point enclosures at one precision, and the midpoint and radius of
    ``x - k c``, `shift` bits lower, floored and ceiled."""
    (x_lo, x_hi), (c_lo, c_hi) = x, c
    k = (2 * x_lo + c_lo) // (2 * c_lo)
    low, high = (x_lo - k * c_hi, x_hi - k * c_lo) if k >= 0 else (
        x_lo - k * c_lo, x_hi - k * c_hi)
    low, high = low >> shift, -(-high >> shift)
    mid = (low + high) >> 1
    return k, mid, high - mid


def fixed_cos_sin(x: int | Fraction, p: int) -> tuple[Fixed, Fixed]:
    """Signed fixed-point enclosures at `p` fraction bits of ``cos x`` and
    ``sin x`` for an exact rational `x`.

    `x` is reduced by the nearest multiple k of pi/2, with pi at ``p`` plus
    the bits of ``|x|`` plus guard bits, to ``r = x - k pi/2`` with
    ``|r| <= pi/4`` up to the error of pi.  The Taylor series of cos and sin
    are summed at the midpoint m of the enclosure of r, on the floored terms
    of :func:`_taylor_sums` (``|m| <= 1``), and the series stop at the first
    zero term, a bound of the omitted alternating tail.  The radius of r
    widens both results, as cos and sin are 1-Lipschitz.  Any ``p >= 1`` is
    taken, so a caller may carry guard bits beyond ``MAX_BITS``; an `x` of
    more than ``MAX_BITS`` integer bits raises :class:`BudgetError`.
    """
    x = Fraction(x)
    if p < 1:
        raise DomainError(f"need at least 1 fraction bit, got {p}")
    if not x:
        return (1 << p, 1 << p), (0, 0)
    extra = (abs(x.numerator) // x.denominator).bit_length()
    if extra > MAX_BITS:
        raise BudgetError(f"reducing an angle of {extra} integer bits needs more than "
                          f"{MAX_BITS} extra bits of pi")
    guard = p.bit_length() + 10
    work = p + guard
    reduce = work + extra + 2
    x_lo, x_hi = to_fixed(x, reduce)
    # 2x - k pi = 2r, so one bit more of shift leaves r
    k, mid, radius = _reduce((2 * x_lo, 2 * x_hi), fixed_pi(reduce), reduce + 1 - work)
    sums, n = _taylor_sums(abs(mid), work)
    error = 2 * n + 2 + radius
    cos, sin = sums[0] - sums[2], sums[1] - sums[3]
    if mid < 0:
        sin = -sin
    cos, sin = (cos - error, cos + error), (sin - error, sin + error)
    for _ in range(k % 4):  # a quarter turn: (cos, sin) -> (-sin, cos)
        cos, sin = (-sin[1], -sin[0]), cos
    return ((cos[0] >> guard, -(-cos[1] >> guard)),
            (sin[0] >> guard, -(-sin[1] >> guard)))


def exp(x: Dyadic, bits: int, ceiling: bool) -> Dyadic:
    """``e^x`` for an exact dyadic `x`, rounded to `bits` bits toward +inf
    (`ceiling`) or -inf.

    `x` is reduced by the nearest multiple k of log 2, with ``log 2`` at
    guard bits plus the bits of ``|x|``, to ``r = x - k log 2`` with ``|r|
    <= (log 2)/2`` up to the error of ``log 2``.  ``e^r`` is summed at the
    midpoint of the enclosure of r on the floored terms of
    :func:`_taylor_sums`, with the tail after the first zero term below 4,
    and widened by twice the radius, since ``e^r < 2`` there.  Then ``e^x =
    2^k e^r`` is a dyadic with any exponent, far below or above a fixed
    point.  An `x` of more than ``MAX_BITS`` integer bits raises
    :class:`BudgetError`.
    """
    m, e = x
    if not m:
        return 1, 0
    extra = max(m.bit_length() + e, 0)  # |x| < 2^extra
    if extra > MAX_BITS:
        raise BudgetError(f"the exponential of {extra} integer bits needs more than "
                          f"{MAX_BITS} extra bits of log 2")
    work = bits + bits.bit_length() + 10
    reduce = work + extra + 2
    x_fixed = floor_fixed(x, reduce), -floor_fixed((-m, e), reduce)
    k, mid, radius = _reduce(x_fixed, _fixed_log2(reduce), reduce - work)
    sums, n = _taylor_sums(abs(mid), work)
    value = sum(sums) if mid >= 0 else sums[0] - sums[1] + sums[2] - sums[3]
    error = 2 * n + 4 + 2 * radius
    return round_to(value + error if ceiling else value - error, k - work, bits, ceiling)


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
