"""The bridge from exact values to mpmath's interval contexts.

Every public function of the package takes exact values or
:class:`~qclassfun.dyadic.Enclosure` values and returns ``Enclosure``
values.  mpmath's interval arithmetic, whose operations round outward so
enclosures are never lost, runs only inside ``modular_norm_sq`` at a
non-integer exponent and ``modular_eigencoefficients`` of
:mod:`qclassfun.spectral` and inside ``LaurentScalar.evaluate``, and this
module is their bridge.  Each interval belongs to one context and carries
its precision (bits of mantissa) with it: :func:`precision` yields the
cached context for a bit count, :func:`make` encloses an exact value in it
(default 128 bits), and an operation works at the precision of its left
interval operand.  No global state is read or written, so concurrent
callers may use different precisions.  The context factory checks its bit
count with :func:`qclassfun.dyadic.check_bits`, and a rejected count is
never cached.

:func:`make` accepts exact data only: ints, :class:`~fractions.Fraction`,
decimal strings (converted outward) and existing intervals.  Floats are
accepted as the exact binary rational they denote.  mpmath neither rounds
rationals nor prints here: a ``Fraction``, or a quotient of ints given to
:func:`quotient`, gets its tightest enclosure from
:func:`qclassfun.dyadic.round_quotient`, an interval leaves as the
``Enclosure`` of its exact endpoints through :func:`to_enclosure`, and
:func:`to_decimal_pair` prints an ``Enclosure``'s endpoints with
:func:`qclassfun.dyadic.to_text`.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath.ctx_iv import MPIntervalContext as Context
from mpmath.libmp import MPZ

from . import dyadic
from .budgets import DEFAULT_BITS, MAX_BITS
from .dyadic import Enclosure, decimal_digits

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterator

Interval = mpmath.ctx_iv.ivmpf

#: Anything `make` can turn into a rigorous interval.
IntervalLike = int | float | str | Fraction | Interval


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
    in its own context and any other value is built at DEFAULT_BITS.  A
    Fraction gets its tightest enclosure at the context's precision, rounded
    once."""
    if isinstance(value, Interval):
        return +(value.ctx if ctx is None else ctx).convert(value)
    if ctx is None:
        ctx = _context(DEFAULT_BITS)
    if isinstance(value, Fraction):
        return quotient(value.numerator, value.denominator, ctx)
    return ctx.mpf(value)


def quotient(p: int, q: int, ctx: Context) -> Interval:
    """The tightest enclosure of ``p/q`` (``q > 0``, any terms) in `ctx`."""
    lo, hi = dyadic.round_quotient(p, q, ctx.prec)
    return ctx.make_mpf((_raw(*lo), _raw(*hi)))


def to_enclosure(x: Interval) -> Enclosure:
    """`x` with its exact endpoints, at the precision of its context."""
    return Enclosure(_endpoint_dyadic(x._mpi_[0]), _endpoint_dyadic(x._mpi_[1]), x.ctx.prec)


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


def to_decimal_pair(x: Enclosure, digits: int | None = None) -> tuple[str, str]:
    """Outward decimal endpoints: lower rounded down, upper rounded up; by
    default to the digits of the bits of `x`."""
    if digits is None:
        digits = decimal_digits(x.bits)
    return (
        "-inf" if x.lo is None else dyadic.to_text(*x.lo, digits, "floor"),
        "inf" if x.hi is None else dyadic.to_text(*x.hi, digits, "ceiling"),
    )
