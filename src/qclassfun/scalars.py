"""Deformed integers and the fundamental deformation parameter.

The deformed integer of order ``n`` is stored in its symmetric sum form

    q^(n-1) + q^(n-3) + ... + q^(1-n),

a Laurent polynomial with integer coefficients.  The sum form is preferred
over the quotient ``(q^-n - q^n)/(q^-1 - q)`` because it stays well defined
at ``q = 1``, where it degenerates to the ordinary integer ``n``.

:class:`LaurentScalar` holds the coefficients and evaluates them to a
certified enclosure through :mod:`qclassfun.intervals`; it has no ring
operations.  The certified series kernel in :mod:`qclassfun.criteria` uses
the closed form of ``[m]_q`` instead, so evaluation serves the small
threshold functions only.
"""

from __future__ import annotations

from typing import Mapping

from . import intervals
from .errors import DomainError
from .intervals import Interval, IntervalLike


class LaurentScalar:
    """Integer-coefficient Laurent polynomial in one formal variable, kept
    only for certified evaluation; zero coefficients are dropped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int]):
        self.coeffs: dict[int, int] = {int(e): int(c) for e, c in coeffs.items() if c != 0}

    def evaluate(self, q: IntervalLike) -> Interval:
        """Certified enclosure of the value at `q`.

        Negative exponents are evaluated through the reciprocal of the
        enclosure, so `q` must not enclose zero when such terms are present.
        """
        point = intervals.make(q)
        if self.coeffs and min(self.coeffs) < 0 and intervals.contains(point, 0):
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


def solve_fundamental_q(d: IntervalLike) -> Interval:
    """Certified root in (0, 1] of ``x + 1/x = d`` for ``d >= 2``.

    Uses the closed form ``2/(d + sqrt(d^2 - 4))``, which encloses the root
    in one outward-rounded step without the cancellation of
    ``(d - sqrt(d^2 - 4))/2`` at large d; ``d = 2`` gives exactly 1.  The
    root is computed at the precision of `d`, or at DEFAULT_BITS for exact d.
    """
    value = intervals.make(d)
    if intervals.lower(value) < 2:
        raise DomainError(f"no root in (0, 1] unless d >= 2, got {value}")
    discriminant = value * value - 4
    # Outward rounding can push the lower endpoint of d^2-4 slightly below
    # zero when d encloses 2; clip, the true discriminant is >= 0.
    if intervals.lower(discriminant) < 0:
        discriminant = intervals.from_endpoints(0, intervals.upper(discriminant), value.ctx)
    return 2 / (value + intervals.isqrt(discriminant))
