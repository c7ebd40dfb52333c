"""Outward-rounded interval arithmetic helpers.

All rigorous numbers in this library are intervals ``[lo, hi]`` enclosing the
true real value; arithmetic is delegated to ``mpmath``'s interval contexts,
whose operations round outward so enclosures are never lost.  Each interval
belongs to one context and carries its precision (bits of mantissa) with it:
:func:`precision` yields the cached context for a bit count, :func:`make` and
:func:`from_endpoints` build in it (default 128 bits), and an operation
works at the precision of its left interval operand.  No global state is
read or written, so concurrent callers may use different precisions.  The
context factory is the one place where a bit count is checked: anything
outside ``1..MAX_BITS`` raises :class:`~qclassfun.errors.DomainError` and
is never cached.

Constructors accept exact data only: ints, :class:`~fractions.Fraction`,
decimal strings (converted outward) and existing intervals.  Floats are
accepted as the exact binary rational they denote.

Endpoints are read exactly (:func:`lower`, :func:`upper`,
:func:`exact_endpoints`), and the comparisons (:func:`contains`,
:func:`certainly_lt`, :func:`overlaps`) certify a relation between the
enclosed true values.  No point inside an enclosure is offered as a result.

mpmath neither rounds rationals nor prints here: :func:`make` encloses a
:class:`~fractions.Fraction` with :func:`qclassfun.dyadic.round_quotient`,
which gives mpmath's own endpoints, and :func:`to_decimal_pair` prints the
exact endpoints of :func:`dyadic_endpoints` with
:func:`qclassfun.dyadic.to_text`.

Hot loops may leave mpmath for fixed point: a pair of ints ``(lo, hi)``
stands for ``[lo, hi]·2^-frac_bits``.  :func:`to_fixed` (floor of the lower
endpoint, ceiling of the upper, of an interval or of an exact rational) and
:func:`from_fixed` (outward to a context) are the only crossings, and
:func:`fixed_mul`, :func:`fixed_div` and :func:`fixed_sqrt` round each
result by one floor and one ceiling.  They take nonnegative pairs only, on
which each operation is monotone in every operand, so that rounding is
outward.  An exact rational enters without mpmath, as the series' roots do.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Union

import mpmath
from mpmath.ctx_iv import MPIntervalContext as Context
from mpmath.libmp import MPZ, from_man_exp, round_ceiling, round_floor

from . import dyadic
from .budgets import DEFAULT_BITS, MAX_BITS
from .dyadic import decimal_digits
from .errors import DomainError

#: Anything `make` can turn into a rigorous interval.
IntervalLike = Union[int, float, str, Fraction, "mpmath.ctx_iv.ivmpf"]

Interval = mpmath.ctx_iv.ivmpf


@lru_cache(maxsize=None)
def _context(bits: int) -> Context:
    if not 1 <= bits <= MAX_BITS:
        raise DomainError(f"bits must lie in 1..{MAX_BITS}, got {bits}")
    ctx = Context()
    ctx.prec = bits
    return ctx


@contextmanager
def precision(bits: int = DEFAULT_BITS) -> Iterator[Context]:
    """Yield the interval context working at `bits`; nothing global changes."""
    yield _context(bits)


def make(value: IntervalLike, ctx: Context | None = None) -> Interval:
    """Rigorous enclosure of `value` in `ctx`; without one, an interval stays
    in its own context and any other value is built at DEFAULT_BITS."""
    if isinstance(value, Interval):
        return +(value.ctx if ctx is None else ctx).convert(value)
    if ctx is None:
        ctx = _context(DEFAULT_BITS)
    if isinstance(value, Fraction):
        lo, hi = dyadic.round_quotient(value.numerator, value.denominator, ctx.prec)
        return ctx.make_mpf((_raw(*lo), _raw(*hi)))
    return ctx.mpf(value)


def from_endpoints(lo: IntervalLike, hi: IntervalLike, ctx: Context | None = None) -> Interval:
    """Interval spanning the hull of the enclosures of `lo` and `hi` in `ctx`
    (as for :func:`make`, the context of `lo` or DEFAULT_BITS without one)."""
    a = make(lo, ctx)
    b = make(hi, a.ctx)
    return a.ctx.mpf([a.a, b.b])


def lower(x: Interval) -> mpmath.mpf:
    """Lower endpoint as an exact ``mpf`` (no rounding to mpmath's precision)."""
    return mpmath.mp.make_mpf(x._mpi_[0])


def upper(x: Interval) -> mpmath.mpf:
    """Upper endpoint as an exact ``mpf`` (no rounding to mpmath's precision)."""
    return mpmath.mp.make_mpf(x._mpi_[1])


def dyadic_endpoints(x: Interval) -> tuple[dyadic.Dyadic | None, dyadic.Dyadic | None]:
    """Endpoints of `x` as exact ``(m, e)``, ``m·2^e``; None for an infinite endpoint."""
    return _endpoint_dyadic(x._mpi_[0]), _endpoint_dyadic(x._mpi_[1])


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
    v = make(value, x.ctx)
    return lower(x) <= lower(v) and upper(v) <= upper(x)


def overlaps(x: Interval, y: IntervalLike) -> bool:
    """True when the two enclosures intersect (so equality is possible)."""
    v = make(y, x.ctx)
    return not (upper(x) < lower(v) or upper(v) < lower(x))


def certainly_lt(x: IntervalLike, y: IntervalLike) -> bool:
    """Certified strict inequality between the enclosed true values; an
    exact value is enclosed in the other one's context."""
    ctx = next((v.ctx for v in (x, y) if isinstance(v, Interval)), None)
    return upper(make(x, ctx)) < lower(make(y, ctx))


def certainly_gt(x: IntervalLike, y: IntervalLike) -> bool:
    return certainly_lt(y, x)


def isqrt(x: Interval) -> Interval:
    """Certified square root; rejects enclosures allowing negative values."""
    if lower(x) < 0:
        raise DomainError(f"sqrt of possibly negative enclosure {x}")
    return x.ctx.sqrt(x)


def inv(x: Interval) -> Interval:
    """Certified reciprocal; rejects enclosures of zero."""
    if lower(x) <= 0 <= upper(x):
        raise DomainError(f"division by enclosure of zero {x}")
    return 1 / x


def to_fixed(x: Interval | Fraction, frac_bits: int) -> tuple[int, int]:
    """Fixed-point enclosure ``(lo, hi)`` of `x`: ``[lo, hi]·2^-frac_bits``
    contains it, with `lo` the floor of the lower endpoint times
    ``2^frac_bits`` and `hi` the ceiling of the upper one; a rational `x` is
    its own endpoints, so this is the floor and ceiling of
    ``x·2^frac_bits``."""
    if isinstance(x, Fraction):
        scaled = x.numerator << frac_bits
        return scaled // x.denominator, -(-scaled // x.denominator)
    lo, hi = x._mpi_
    if lo in _NONFINITE or hi in _NONFINITE:
        raise DomainError(f"no fixed-point form of the unbounded enclosure {x}")
    sign, man, exp, _ = hi
    return _scaled_floor(*lo[:3], frac_bits), -_scaled_floor(1 - sign, man, exp, frac_bits)


def from_fixed(lo: int, hi: int, frac_bits: int, ctx: Context) -> Interval:
    """Enclosure in `ctx` of ``[lo, hi]·2^-frac_bits``, rounded outward."""
    return ctx.make_mpf((from_man_exp(lo, -frac_bits, ctx.prec, round_floor),
                         from_man_exp(hi, -frac_bits, ctx.prec, round_ceiling)))


def fixed_mul(a: tuple[int, int], b: tuple[int, int], frac_bits: int) -> tuple[int, int]:
    """Product of two nonnegative fixed-point enclosures."""
    return (a[0] * b[0]) >> frac_bits, -((-a[1] * b[1]) >> frac_bits)


def fixed_div(a: tuple[int, int], b: tuple[int, int], frac_bits: int) -> tuple[int, int]:
    """Quotient of a nonnegative by a positive fixed-point enclosure."""
    return (a[0] << frac_bits) // b[1], -((-a[1] << frac_bits) // b[0])


def fixed_sqrt(a: tuple[int, int], frac_bits: int) -> tuple[int, int]:
    """Square root of a nonnegative fixed-point enclosure."""
    top = a[1] << frac_bits
    root = math.isqrt(top)
    return math.isqrt(a[0] << frac_bits), root + (root * root < top)


_NONFINITE = (mpmath.libmp.finf, mpmath.libmp.fninf, mpmath.libmp.fnan)


def _scaled_floor(sign: int, man: int, exp: int, frac_bits: int) -> int:
    """``floor((-1)^sign · man · 2^(exp + frac_bits))`` for a raw mpf."""
    value = -man if sign else man
    shift = exp + frac_bits
    return value << shift if shift >= 0 else value >> -shift


def _raw(m: int, e: int) -> tuple:
    """The raw mpf of ``m·2^e`` for an odd `m` or zero."""
    return int(m < 0), MPZ(abs(m)), e, abs(m).bit_length()


def _endpoint_dyadic(raw) -> dyadic.Dyadic | None:
    """Exact value ``(m, e)``, ``m·2^e``, of a raw mpf endpoint; None for
    infinities."""
    sign, man, exp, bc = raw
    if bc == -1:
        raise ValueError("a NaN endpoint has no value")
    if bc < 0:
        return None
    return int(-man if sign else man), exp


def _endpoint_fraction(raw) -> Fraction | None:
    """Exact rational value of a raw mpf endpoint; None for infinities."""
    value = _endpoint_dyadic(raw)
    if value is None:
        return None
    m, e = value
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def to_decimal_pair(x: Interval, digits: int | None = None) -> tuple[str, str]:
    """Outward decimal endpoints: lower rounded down, upper rounded up; by
    default to the digits of the precision of `x`."""
    if digits is None:
        digits = decimal_digits(x.ctx.prec)
    lo, hi = dyadic_endpoints(x)
    return (
        "-inf" if lo is None else dyadic.to_text(*lo, digits, "floor"),
        "inf" if hi is None else dyadic.to_text(*hi, digits, "ceiling"),
    )
