"""Deformed integers and the fundamental deformation parameter.

The deformed integer of order ``n`` is stored in its symmetric sum form

    q^(n-1) + q^(n-3) + ... + q^(1-n),

a Laurent polynomial with integer coefficients.  The sum form is preferred
over the quotient ``(q^-n - q^n)/(q^-1 - q)`` because it stays well defined
at ``q = 1``, where it degenerates to the ordinary integer ``n``.

:class:`LaurentScalar` holds the coefficients and evaluates them to a
certified enclosure through :mod:`qclassfun.intervals`; it has no ring
operations, and its ``evaluate`` is the one public method of the package
that returns an mpmath interval.  No module of the package calls it or
:func:`q_number` any more: the series kernel and the threshold functions in
:mod:`qclassfun.criteria` use the closed forms of ``[m]_q``.  Both stay
public because the benchmark's trace harness binds them by name.  The one
solver of ``x + 1/x = d``, :func:`fixed_fundamental_q`, runs in fixed point
and :func:`solve_fundamental_q` rounds its root to an ``Enclosure``.  So
``LaurentScalar.evaluate`` is the one function of the package that imports
:mod:`qclassfun.intervals`, when called, and with it mpmath.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import dyadic
from .budgets import DEFAULT_BITS, MAX_BITS
from .errors import DomainError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Mapping

    from .intervals import Interval


class LaurentScalar:
    """Integer-coefficient Laurent polynomial in one formal variable, kept
    only for certified evaluation; zero coefficients are dropped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int]):
        self.coeffs: dict[int, int] = {int(e): int(c) for e, c in coeffs.items() if c != 0}

    def evaluate(self, q: int | str | Fraction | Interval) -> Interval:
        """Certified enclosure of the value at `q`: an mpmath interval, or a
        rational read by :func:`dyadic.read_rational`.

        Negative exponents are evaluated through the reciprocal of the
        enclosure, so `q` must not enclose zero when such terms are present.
        """
        from . import intervals

        point = intervals.make(q if isinstance(q, intervals.Interval) else dyadic.read_rational(q))
        if self.coeffs and min(self.coeffs) < 0 and point.a <= 0 <= point.b:
            raise DomainError("negative exponents at an enclosure of zero")
        total = intervals.make(0, point.ctx)
        for e, c in sorted(self.coeffs.items()):
            total += c * point**e
        return total


def q_number(n: int) -> LaurentScalar:
    """Deformed integer of order `n` in sum form; the empty sum for ``n=0``."""
    if n < 0:
        raise DomainError(f"q_number requires n >= 0, got {n}")
    return LaurentScalar({n - 1 - 2 * k: 1 for k in range(n)})


def fixed_fundamental_q(d: tuple[int, int], frac_bits: int) -> tuple[int, int]:
    """Root in (0, 1] of ``x + 1/x = d`` as ``2/(d + sqrt(d^2 - 4))``, which
    does not cancel at large d, on a fixed-point enclosure of ``d`` whose
    lower end is at least 2, so that the floor of ``d^2 - 4`` is nonnegative;
    ``d = 2`` exactly gives exactly 1."""
    two, four = 2 << frac_bits, 4 << frac_bits
    square = dyadic.fixed_mul(d, d, frac_bits)
    root = dyadic.fixed_sqrt((square[0] - four, square[1] - four), frac_bits)
    return dyadic.fixed_div((two, two), (d[0] + root[0], d[1] + root[1]), frac_bits)


def solve_fundamental_q(d: int | str | Fraction | dyadic.Enclosure,
                        bits: int = DEFAULT_BITS) -> dyadic.Enclosure:
    """Certified root in (0, 1] of ``x + 1/x = d >= 2``, `d` a rational or an
    Enclosure (:func:`dyadic.read_hull`), from :func:`fixed_fundamental_q`
    with `bits` kept below the root's leading bit (the root is >= 1/d)."""
    dyadic.check_count(bits, "bits", 1, MAX_BITS)
    lo, hi = dyadic.read_hull(d)
    if lo < 2:
        raise DomainError(f"no root in (0, 1] unless d >= 2, got {d}")
    frac_bits = bits + math.ceil(hi).bit_length() + 4
    root = fixed_fundamental_q(dyadic.fixed_hull(lo, hi, frac_bits), frac_bits)
    return dyadic.fixed_enclosure(*root, frac_bits, bits)
