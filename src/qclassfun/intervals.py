"""The bridge from exact values to mpmath's interval contexts.

Every public function of the package takes exact values or
:class:`~qclassfun.dyadic.Enclosure` values, computes on ints and returns
``Enclosure`` values.  mpmath's interval arithmetic, whose operations round
outward so enclosures are never lost, runs only inside
``LaurentScalar.evaluate`` of :mod:`qclassfun.scalars`, the one method that
returns an mpmath interval, and this module is its bridge; no subcommand
loads it.  Each interval belongs to one context and carries its precision
(bits of mantissa) with it: :func:`precision` yields the cached context for
a bit count, :func:`make` encloses an exact value in it (default 128
bits), and an operation works at the precision of its left interval
operand.  No global state is read or written, so concurrent callers may use
different precisions.  The context factory checks its bit count with
:func:`qclassfun.dyadic.check_bits`, and a rejected count is never cached.

:func:`make` accepts exact data only: ints, :class:`~fractions.Fraction`,
decimal strings (converted outward) and existing intervals.  Floats are
accepted as the exact binary rational they denote.  mpmath does not round
rationals here: a ``Fraction``, or a quotient of ints given to
:func:`quotient`, gets its tightest enclosure from
:func:`qclassfun.dyadic.round_quotient`.  ``to_decimal_pair`` is
:func:`qclassfun.dyadic.to_decimal_pair`, kept here by name.
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
from .dyadic import to_decimal_pair

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


def _raw(m: int, e: int) -> tuple:
    """The raw mpf of ``m·2^e`` for an odd `m` or zero."""
    return int(m < 0), MPZ(abs(m)), e, abs(m).bit_length()
