"""mpmath's interval arithmetic as the tests' independent oracle.

The package computes on ints and loads no mpmath; the tests check its
results against mpmath's interval contexts, whose operations round outward
so enclosures are never lost.  Each interval belongs to one context and
carries its precision (bits of mantissa) with it: :func:`context` is the
cached context for a bit count, :func:`make` encloses an exact value in it,
and an operation works at the precision of its left interval operand;
``conftest.py`` fails a test in which two contexts meet.  A
``Fraction`` gets its tightest enclosure from
:func:`qclassfun.dyadic.round_quotient`, rounded once.  An oracle interval is
compared with a result through its exact endpoints, read back by
:func:`to_enclosure` as an :class:`~qclassfun.dyadic.Enclosure` at the
precision of its context; an Enclosure has no unbounded end, so an
infinite or NaN endpoint is refused.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from mpmath.ctx_iv import MPIntervalContext, ivmpf
from mpmath.libmp import MPZ

from qclassfun.dyadic import Dyadic, Enclosure, round_quotient


@lru_cache(maxsize=None)
def context(bits: int) -> MPIntervalContext:
    """The interval context working at `bits`; nothing global changes."""
    ctx = MPIntervalContext()
    ctx.prec = bits
    return ctx


def make(value: int | str | Fraction, ctx: MPIntervalContext) -> ivmpf:
    """Rigorous enclosure of `value` in `ctx`: the tightest one of an int or
    a ``Fraction``, rounded once, and mpmath's outward conversion of text."""
    if isinstance(value, str):
        return ctx.mpf(value)
    value = Fraction(value)
    lo, hi = round_quotient(value.numerator, value.denominator, ctx.prec)
    return ctx.make_mpf((_raw(*lo), _raw(*hi)))


def _raw(m: int, e: int) -> tuple:
    """The raw mpf of ``m·2^e`` for an odd `m` or zero."""
    return int(m < 0), MPZ(abs(m)), e, abs(m).bit_length()


def to_enclosure(x: ivmpf) -> Enclosure:
    """`x` with its exact endpoints, at the precision of its context."""
    return Enclosure(_endpoint(x._mpi_[0]), _endpoint(x._mpi_[1]), x.ctx.prec)


def _endpoint(raw: tuple) -> Dyadic:
    """Exact value ``(m, e)``, ``m·2^e``, of a raw mpf endpoint."""
    sign, man, exp, bc = raw
    if bc < 0:
        raise ValueError("an Enclosure has no infinite or NaN end")
    return int(-man if sign else man), exp
