"""Outward-rounded interval helpers.

All rigorous numbers in this library are intervals ``[lo, hi]`` enclosing the
true real value.  Where interval arithmetic runs (``spectral``,
``fusion.rho_spectrum`` and ``LaurentScalar.evaluate``), it is delegated to
``mpmath``'s interval contexts, whose operations round outward so
enclosures are never lost.  Each interval belongs to one context and
carries its precision (bits of mantissa) with it: :func:`precision` yields
the cached context for a bit count, :func:`make` and :func:`from_endpoints`
build in it (default 128 bits), and an operation works at the precision of
its left interval operand.  No global state is read or written, so
concurrent callers may use different precisions.  The context factory
checks its bit count with :func:`qclassfun.dyadic.check_bits`, and a
rejected count is never cached.

Constructors accept exact data only: ints, :class:`~fractions.Fraction`,
decimal strings (converted outward), existing intervals and
:class:`~qclassfun.dyadic.Enclosure` values.  Floats are accepted as the
exact binary rational they denote.

Endpoints are read exactly (:func:`lower`, :func:`upper`,
:func:`exact_endpoints`), and the comparisons (:func:`contains`,
:func:`certainly_lt`, :func:`overlaps`) certify a relation between the
enclosed true values.  No point inside an enclosure is offered as a result.
Every reader also takes an ``Enclosure``, the int-endpoint result of
:mod:`qclassfun.criteria` and ``solve_fundamental_q``, read as the mpmath
interval with its endpoints at its bits; :func:`to_enclosure` is the
conversion the other way.

mpmath neither rounds rationals nor prints here: :func:`make` encloses a
:class:`~fractions.Fraction` with :func:`qclassfun.dyadic.round_quotient`,
the tightest enclosure at the context's precision (inside mpmath's own
``ctx.mpf(p) / ctx.mpf(q)``, which rounds twice), and :func:`to_decimal_pair`
prints the exact endpoints of :func:`dyadic_endpoints` with
:func:`qclassfun.dyadic.to_text`.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Union

import mpmath
from mpmath.ctx_iv import MPIntervalContext as Context
from mpmath.libmp import MPZ, finf, fninf

from . import dyadic
from .budgets import DEFAULT_BITS, MAX_BITS
from .dyadic import Enclosure, decimal_digits
from .errors import DomainError

#: Anything `make` can turn into a rigorous interval.
IntervalLike = Union[int, float, str, Fraction, Enclosure, "mpmath.ctx_iv.ivmpf"]

Interval = mpmath.ctx_iv.ivmpf


@lru_cache(maxsize=None)
def _context(bits: int) -> Context:
    dyadic.check_bits(bits)
    ctx = Context()
    ctx.prec = bits
    return ctx


@contextmanager
def precision(bits: int = DEFAULT_BITS) -> Iterator[Context]:
    """Yield the interval context working at `bits`; nothing global changes."""
    yield _context(bits)


def make(value: IntervalLike, ctx: Context | None = None) -> Interval:
    """Rigorous enclosure of `value` in `ctx`; without one, an interval stays
    in its own context, an Enclosure in the context of its bits, and any
    other value is built at DEFAULT_BITS.  A Fraction gets its tightest
    enclosure at the context's precision, rounded once."""
    if isinstance(value, Enclosure):
        value = _context(value.bits).make_mpf((_raw_end(value.lo, fninf), _raw_end(value.hi, finf)))
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


def to_enclosure(x: Interval) -> Enclosure:
    """`x` with its exact endpoints, at the precision of its context."""
    return Enclosure(*dyadic_endpoints(x), x.ctx.prec)


def _interval(x):
    """An Enclosure as the interval :func:`make` builds from it; any other
    value unchanged."""
    return make(x) if isinstance(x, Enclosure) else x


def lower(x: Interval | Enclosure) -> mpmath.mpf:
    """Lower endpoint as an exact ``mpf`` (no rounding to mpmath's precision)."""
    return mpmath.mp.make_mpf(_interval(x)._mpi_[0])


def upper(x: Interval | Enclosure) -> mpmath.mpf:
    """Upper endpoint as an exact ``mpf`` (no rounding to mpmath's precision)."""
    return mpmath.mp.make_mpf(_interval(x)._mpi_[1])


def dyadic_endpoints(x: Interval | Enclosure) -> tuple[dyadic.Dyadic | None, dyadic.Dyadic | None]:
    """Endpoints of `x` as exact ``(m, e)``, ``m·2^e``; None for an infinite endpoint."""
    if isinstance(x, Enclosure):
        return x.lo, x.hi
    return _endpoint_dyadic(x._mpi_[0]), _endpoint_dyadic(x._mpi_[1])


def exact_endpoints(x: Interval | Enclosure) -> tuple[Fraction | None, Fraction | None]:
    """Endpoints of `x` as exact rationals; None for an infinite endpoint."""
    return dyadic.exact_endpoints(x if isinstance(x, Enclosure) else to_enclosure(x))


def width_fraction(x: Interval | Enclosure) -> Fraction | None:
    """Exact diameter of `x` as a rational; None for unbounded intervals."""
    lo, hi = exact_endpoints(x)
    if lo is None or hi is None:
        return None
    return hi - lo


def width_at_most(x: Interval | Enclosure, bound: int | str | Fraction) -> bool:
    """Exact check that the diameter of `x` is at most `bound`."""
    w = width_fraction(x)
    return w is not None and w <= Fraction(bound)


def contains(x: Interval | Enclosure, value: IntervalLike) -> bool:
    """Certify that the enclosure of `value` lies inside `x`.

    A ``True`` answer proves containment of the true value; ``False`` only
    means containment could not be certified.  Ints and fractions are
    compared exactly with the endpoints.
    """
    if isinstance(value, (int, Fraction)):
        lo, hi = exact_endpoints(x)
        return (lo is None or lo <= value) and (hi is None or value <= hi)
    x = _interval(x)
    v = make(value, x.ctx)
    return lower(x) <= lower(v) and upper(v) <= upper(x)


def overlaps(x: Interval | Enclosure, y: IntervalLike) -> bool:
    """True when the two enclosures intersect (so equality is possible)."""
    x = _interval(x)
    v = make(y, x.ctx)
    return not (upper(x) < lower(v) or upper(v) < lower(x))


def certainly_lt(x: IntervalLike, y: IntervalLike) -> bool:
    """Certified strict inequality between the enclosed true values; an
    exact value is enclosed in the other one's context."""
    x, y = _interval(x), _interval(y)
    ctx = next((v.ctx for v in (x, y) if isinstance(v, Interval)), None)
    return upper(make(x, ctx)) < lower(make(y, ctx))


def certainly_gt(x: IntervalLike, y: IntervalLike) -> bool:
    return certainly_lt(y, x)


def inv(x: Interval) -> Interval:
    """Certified reciprocal; rejects enclosures of zero."""
    if lower(x) <= 0 <= upper(x):
        raise DomainError(f"division by enclosure of zero {x}")
    return 1 / x


def _raw(m: int, e: int) -> tuple:
    """The raw mpf of ``m·2^e`` for an odd `m` or zero."""
    return int(m < 0), MPZ(abs(m)), e, abs(m).bit_length()


def _raw_end(end: dyadic.Dyadic | None, infinite: tuple) -> tuple:
    """The raw mpf of an Enclosure's endpoint; `infinite` for None."""
    return infinite if end is None else _raw(*end)


def _endpoint_dyadic(raw) -> dyadic.Dyadic | None:
    """Exact value ``(m, e)``, ``m·2^e``, of a raw mpf endpoint; None for
    infinities."""
    sign, man, exp, bc = raw
    if bc == -1:
        raise ValueError("a NaN endpoint has no value")
    if bc < 0:
        return None
    return int(-man if sign else man), exp


def to_decimal_pair(x: Interval | Enclosure, digits: int | None = None) -> tuple[str, str]:
    """Outward decimal endpoints: lower rounded down, upper rounded up; by
    default to the digits of the precision of `x`."""
    if digits is None:
        digits = decimal_digits(x.bits if isinstance(x, Enclosure) else x.ctx.prec)
    lo, hi = dyadic_endpoints(x)
    return (
        "-inf" if lo is None else dyadic.to_text(*lo, digits, "floor"),
        "inf" if hi is None else dyadic.to_text(*hi, digits, "ceiling"),
    )
