"""Exact Laurent-polynomial arithmetic for deformation integers.

The deformed integer of order ``n`` is stored in its symmetric sum form

    q^(n-1) + q^(n-3) + ... + q^(1-n),

a Laurent polynomial with integer coefficients.  The sum form is preferred
over the quotient ``(q^-n - q^n)/(q^-1 - q)`` because it stays well defined
at ``q = 1``, where it degenerates to the ordinary integer ``n``.

:class:`LaurentScalar` values are immutable; certified numeric evaluation
goes through :mod:`qclassfun.intervals`, exact evaluation through
:class:`~fractions.Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from . import intervals
from .errors import DomainError
from .intervals import Interval, IntervalLike


class LaurentScalar:
    """Integer-coefficient Laurent polynomial in one formal variable.

    Coefficients are kept in canonical form: a sparse exponent-to-coefficient
    map with no zero entries.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        cleaned = {}
        for exponent, coefficient in (coeffs or {}).items():
            if coefficient != 0:
                cleaned[int(exponent)] = int(coefficient)
        self.coeffs: dict[int, int] = cleaned

    @classmethod
    def zero(cls) -> "LaurentScalar":
        return cls({})

    @classmethod
    def one(cls) -> "LaurentScalar":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "LaurentScalar":
        return cls({exponent: coefficient})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, exponent: int) -> int:
        return self.coeffs.get(exponent, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "LaurentScalar") -> "LaurentScalar":
        merged = dict(self.coeffs)
        for e, c in other.coeffs.items():
            merged[e] = merged.get(e, 0) + c
        return LaurentScalar(merged)

    def __neg__(self) -> "LaurentScalar":
        return LaurentScalar({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentScalar") -> "LaurentScalar":
        return self + (-other)

    def __mul__(self, other: "LaurentScalar") -> "LaurentScalar":
        product: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                product[e] = product.get(e, 0) + c1 * c2
        return LaurentScalar(product)

    def substitute_inverse(self) -> "LaurentScalar":
        """The polynomial with the variable replaced by its reciprocal."""
        return LaurentScalar({-e: c for e, c in self.coeffs.items()})

    def is_palindromic(self) -> bool:
        """Invariance under exponent negation."""
        return self == self.substitute_inverse()

    def evaluate(self, q: IntervalLike) -> Interval:
        """Certified enclosure of the value at `q`.

        Negative exponents are evaluated through the reciprocal of the
        enclosure, so `q` must not enclose zero when such terms are present.
        """
        point = intervals.make(q)
        if self.is_zero():
            return intervals.make(0)
        if min(self.coeffs) < 0 and intervals.contains(point, 0):
            raise DomainError("negative exponents at an enclosure of zero")
        total = intervals.make(0)
        for e, c in sorted(self.coeffs.items()):
            total += c * point**e
        return total

    def evaluate_fraction(self, q: Fraction) -> Fraction:
        """Exact rational value at a rational point (test oracle route)."""
        if self.is_zero():
            return Fraction(0)
        if q == 0 and min(self.coeffs) < 0:
            raise DomainError("negative exponents at zero")
        return sum((c * q**e for e, c in self.coeffs.items()), Fraction(0))

    def __repr__(self) -> str:
        if self.is_zero():
            return "LaurentScalar(0)"
        terms = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                terms.append(f"{c}")
            else:
                terms.append(f"{c}*q^{e}" if c != 1 else f"q^{e}")
        return "LaurentScalar(" + " + ".join(terms) + ")"


def q_number(n: int) -> LaurentScalar:
    """Deformed integer of order `n` in sum form; the empty sum for ``n=0``."""
    if n < 0:
        raise DomainError(f"q_number requires n >= 0, got {n}")
    return LaurentScalar({n - 1 - 2 * k: 1 for k in range(n)})


def solve_fundamental_q(d: IntervalLike) -> Interval:
    """Certified root in (0, 1] of ``x + 1/x = d`` for ``d >= 2``.

    Uses the closed form ``2/(d + sqrt(d^2 - 4))``, which encloses the root
    in one outward-rounded step without the cancellation of
    ``(d - sqrt(d^2 - 4))/2`` at large d; ``d = 2`` gives exactly 1.
    """
    value = intervals.make(d)
    if intervals.lower(value) < 2:
        raise DomainError(f"no root in (0, 1] unless d >= 2, got {value}")
    discriminant = value * value - 4
    # Outward rounding can push the lower endpoint of d^2-4 slightly below
    # zero when d encloses 2; clip, the true discriminant is >= 0.
    if intervals.lower(discriminant) < 0:
        discriminant = intervals.from_endpoints(0, intervals.upper(discriminant))
    return 2 / (value + intervals.isqrt(discriminant))
