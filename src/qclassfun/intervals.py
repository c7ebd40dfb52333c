"""Outward-rounded interval arithmetic helpers.

All rigorous numbers in this library are intervals ``[lo, hi]`` enclosing the
true real value; arithmetic is delegated to ``mpmath.iv``, whose operations
round outward so enclosures are never lost.  Working precision is a run-time
parameter (bits of mantissa, default 128) scoped with :func:`precision`.

Constructors accept exact data only: ints, :class:`~fractions.Fraction`,
decimal strings (converted outward) and existing intervals.  Floats are
accepted as the exact binary rational they denote.

Endpoints are read exactly (:func:`lower`, :func:`upper`,
:func:`exact_endpoints`), and the comparisons (:func:`contains`,
:func:`certainly_lt`, :func:`overlaps`) certify a relation between the
enclosed true values.  No point inside an enclosure is offered as a result;
:func:`to_decimal_mid` is a display convenience only.

The precision knob is process-global (a property of the ``mpmath`` context),
so concurrent callers requesting different precisions must serialize around
:func:`precision`; results themselves are plain immutable values.
"""

from __future__ import annotations

import decimal
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator, Union

import mpmath
from mpmath import iv

from .errors import DomainError

DEFAULT_BITS = 128

#: Anything `make` can turn into a rigorous interval.
IntervalLike = Union[int, float, str, Fraction, "mpmath.ctx_iv.ivmpf"]

Interval = mpmath.ctx_iv.ivmpf


@contextmanager
def precision(bits: int = DEFAULT_BITS) -> Iterator[None]:
    """Scope the working precision of interval arithmetic to `bits`."""
    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old


def make(value: IntervalLike) -> Interval:
    """Build a rigorous enclosure of `value` at current precision."""
    if isinstance(value, Interval):
        return +value  # re-round into the current context
    if isinstance(value, Fraction):
        return iv.mpf(value.numerator) / iv.mpf(value.denominator)
    return iv.mpf(value)


def from_endpoints(lo: IntervalLike, hi: IntervalLike) -> Interval:
    """Interval spanning the hull of the enclosures of `lo` and `hi`."""
    a = make(lo)
    b = make(hi)
    return iv.mpf([a.a, b.b])


def lower(x: Interval) -> mpmath.mpf:
    """Lower endpoint as an exact ``mpf`` (no rounding to mpmath's precision)."""
    return mpmath.mp.make_mpf(x._mpi_[0])


def upper(x: Interval) -> mpmath.mpf:
    """Upper endpoint as an exact ``mpf`` (no rounding to mpmath's precision)."""
    return mpmath.mp.make_mpf(x._mpi_[1])


def exact_endpoints(x: Interval) -> tuple[Fraction | None, Fraction | None]:
    """Endpoints of `x` as exact rationals; None for an infinite endpoint."""
    return _endpoint_fraction(x._mpi_[0]), _endpoint_fraction(x._mpi_[1])


def width(x: Interval) -> mpmath.mpf:
    """Upper bound for the diameter of `x`."""
    return upper(x.delta)


def width_fraction(x: Interval) -> Fraction | None:
    """Exact diameter of `x` as a rational; None for unbounded intervals."""
    lo, hi = exact_endpoints(x)
    if lo is None or hi is None:
        return None
    return hi - lo


def width_at_most(x: Interval, bound: int | str | Fraction) -> bool:
    """Exact check that the diameter of `x` is at most `bound`."""
    w = width_fraction(x)
    return w is not None and w <= Fraction(bound)


def contains(x: Interval, value: IntervalLike) -> bool:
    """Certify that the enclosure of `value` lies inside `x`.

    A ``True`` answer proves containment of the true value; ``False`` only
    means containment could not be certified.  Ints and fractions are
    compared exactly with the endpoints.
    """
    if isinstance(value, (int, Fraction)):
        lo, hi = exact_endpoints(x)
        return (lo is None or lo <= value) and (hi is None or value <= hi)
    v = make(value)
    return lower(x) <= lower(v) and upper(v) <= upper(x)


def overlaps(x: Interval, y: IntervalLike) -> bool:
    """True when the two enclosures intersect (so equality is possible)."""
    v = make(y)
    return not (upper(x) < lower(v) or upper(v) < lower(x))


def certainly_lt(x: IntervalLike, y: IntervalLike) -> bool:
    """Certified strict inequality between the enclosed true values."""
    return upper(make(x)) < lower(make(y))


def certainly_gt(x: IntervalLike, y: IntervalLike) -> bool:
    return certainly_lt(y, x)


def identical(x: Interval, y: Interval) -> bool:
    """Endpoint-level equality of two intervals."""
    return x._mpi_ == y._mpi_


def isqrt(x: Interval) -> Interval:
    """Certified square root; rejects enclosures allowing negative values."""
    if lower(x) < 0:
        raise DomainError(f"sqrt of possibly negative enclosure {x}")
    return iv.sqrt(x)


def inv(x: Interval) -> Interval:
    """Certified reciprocal; rejects enclosures of zero."""
    if lower(x) <= 0 <= upper(x):
        raise DomainError(f"division by enclosure of zero {x}")
    return 1 / x


def _endpoint_fraction(raw) -> Fraction | None:
    """Exact rational value of a raw mpf endpoint; None for infinities."""
    if raw in (mpmath.libmp.finf, mpmath.libmp.fninf):
        return None
    numerator, denominator = mpmath.libmp.to_rational(raw)
    return Fraction(int(numerator), int(denominator))


def _directed_decimal(value: Fraction, digits: int, rounding: str) -> str:
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = rounding
        return str(
            decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
        )


def to_decimal_pair(x: Interval, digits: int | None = None) -> tuple[str, str]:
    """Outward decimal endpoints: lower rounded down, upper rounded up."""
    if digits is None:
        digits = decimal_digits(iv.prec)
    lo, hi = exact_endpoints(x)
    return (
        "-inf" if lo is None else _directed_decimal(lo, digits, decimal.ROUND_FLOOR),
        "inf" if hi is None else _directed_decimal(hi, digits, decimal.ROUND_CEILING),
    )


def to_decimal_mid(x: Interval, digits: int | None = None) -> str:
    """Round-to-nearest decimal midpoint (convenience, not certified)."""
    if digits is None:
        digits = decimal_digits(iv.prec)
    lo, hi = exact_endpoints(x)
    if lo is None or hi is None:
        return "nan"
    return _directed_decimal((lo + hi) / 2, digits, decimal.ROUND_HALF_EVEN)


def decimal_digits(bits: int) -> int:
    """Decimal digits carried by `bits` of mantissa, floored at 17."""
    return max(17, int(bits * 0.30103) + 2)
