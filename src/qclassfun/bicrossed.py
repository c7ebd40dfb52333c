"""Classification arithmetic for the rational-scaling bicrossed products.

The construction attaches to a deformation parameter ``q`` in (-1,1) minus 0
and a nonzero real ``nu`` a compact quantum group whose scaling times,
center, and factor type are decided by one dichotomy: whether
``nu log|q| / pi`` is rational.  That question is undecidable from numeric
data, so it is a declared input (:class:`RatioRational` versus
:class:`RatioIrrational`) and every decision below is exact rational
arithmetic; no floating representation of a scaling time is ever consulted.

A scaling time is stored symbolically as ``t = r nu + s pi/log|q|`` with
rational ``r, s``; this is exactly the decidable fragment:

* trivial  <=>  ``t`` in ``(pi/log|q|) Z``,
* inner    <=>  ``t`` in ``nu Q + (pi/log|q|) Z``.
"""

from __future__ import annotations

from fractions import Fraction

from .dyadic import read_rational
from .errors import DomainError, Record

FACTOR_II_INFINITY = "injective factor of type II-infinity"
NON_FACTOR = "non-factor; center isomorphic to bounded functions on the circle"


class RatioRational(Record):
    """Declares ``nu log|q| = ratio * pi`` with a nonzero rational ratio."""

    __slots__ = ("ratio",)

    def __init__(self, ratio: Fraction, _set=object.__setattr__) -> None:
        ratio = read_rational(ratio)
        if ratio == 0:
            raise DomainError("the rational ratio must be nonzero")
        _set(self, "ratio", ratio)


class RatioIrrational(Record):
    """Asserts ``nu log|q| / pi`` is irrational (recorded, not verified).

    `nu_note` is display-only; no decision consults it.
    """

    __slots__ = ("nu_note",)

    def __init__(self, nu_note: str | None = None, _set=object.__setattr__) -> None:
        _set(self, "nu_note", nu_note)


NuMode = RatioRational | RatioIrrational


class BicrossedParams(Record):
    __slots__ = ("q", "nu_mode")

    def __init__(self, q: Fraction, nu_mode: NuMode, _set=object.__setattr__) -> None:
        q = read_rational(q)
        if not (-1 < q < 1) or q == 0:
            raise DomainError(f"q must lie in (-1, 1) and be nonzero, got {q}")
        _set(self, "q", q)
        _set(self, "nu_mode", nu_mode)


class ScalingTime(Record):
    """The time ``t = r nu + s pi/log|q|`` as an exact rational pair."""

    __slots__ = ("r", "s")

    def __init__(self, r: Fraction, s: Fraction, _set=object.__setattr__) -> None:
        _set(self, "r", read_rational(r))
        _set(self, "s", read_rational(s))

    def __add__(self, other: "ScalingTime") -> "ScalingTime":
        return ScalingTime(self.r + other.r, self.s + other.s)

    def __neg__(self) -> "ScalingTime":
        return ScalingTime(-self.r, -self.s)


def is_trivial_scaling(t: ScalingTime, params: BicrossedParams) -> bool:
    """Membership of `t` in ``(pi/log|q|) Z``.

    With an irrational ratio the nu-component must vanish and the integer
    part must be integral; with a declared ratio rho the condition becomes
    ``r rho + s`` integral.
    """
    mode = params.nu_mode
    if isinstance(mode, RatioIrrational):
        return t.r == 0 and t.s.denominator == 1
    combined = t.r * mode.ratio + t.s
    return combined.denominator == 1


def is_inner_scaling(t: ScalingTime, params: BicrossedParams) -> bool:
    """Membership of `t` in ``nu Q + (pi/log|q|) Z``.

    In the declared-rational mode that subgroup collapses onto
    ``(pi/log|q|) Q``, which contains every representable time.
    """
    mode = params.nu_mode
    if isinstance(mode, RatioIrrational):
        return t.s.denominator == 1
    return True


class CenterDescription(Record):
    """`generator` is the positive generator of the rational cyclic group
    carried by the center (None when the center is trivial)."""

    __slots__ = ("is_trivial", "generator")

    def __init__(self, is_trivial: bool, generator: Fraction | None = None,
                 _set=object.__setattr__) -> None:
        _set(self, "is_trivial", is_trivial)
        _set(self, "generator", generator)


def center_description(params: BicrossedParams) -> CenterDescription:
    """Center of the construction: trivial in the irrational mode,
    a circle algebra generated by ``|1/ratio|`` otherwise."""
    mode = params.nu_mode
    if isinstance(mode, RatioIrrational):
        return CenterDescription(True)
    return CenterDescription(False, abs(1 / mode.ratio))


class FactorReport(Record):
    __slots__ = ("is_factor", "description", "coamenable", "injective")

    def __init__(self, is_factor: bool, description: str, coamenable: bool = True,
                 injective: bool = True, _set=object.__setattr__) -> None:
        _set(self, "is_factor", is_factor)
        _set(self, "description", description)
        _set(self, "coamenable", coamenable)
        _set(self, "injective", injective)


def factor_report(params: BicrossedParams) -> FactorReport:
    """Factor classification string; both modes are coamenable and injective."""
    if isinstance(params.nu_mode, RatioIrrational):
        return FactorReport(True, FACTOR_II_INFINITY)
    return FactorReport(False, NON_FACTOR)


def iso_necessary(
    params1: BicrossedParams,
    params2: BicrossedParams,
    nu_ratio: Fraction | None = None,
) -> bool | None:
    """Necessary isomorphism conditions: equal |q| and equal scaling-time
    subgroups ``nu Q + (pi/log|q|) Z``.

    Two declared-rational modes always agree once |q| matches.  Two
    irrational modes agree exactly when ``nu/nu'`` is rational; pass that
    ratio in `nu_ratio` to decide, otherwise the answer is ``None``
    (undetermined).  Structurally identical parameters describe the same
    group, so they trivially pass.  Mixed modes never agree.  A ``True``
    answer does not claim the two are isomorphic, only that no necessary
    condition fails.
    """
    if params1 == params2:
        return True
    if abs(params1.q) != abs(params2.q):
        return False
    mode1, mode2 = params1.nu_mode, params2.nu_mode
    if isinstance(mode1, RatioRational) != isinstance(mode2, RatioRational):
        return False
    if isinstance(mode1, RatioRational):
        return True
    if nu_ratio is None:
        return None
    ratio = read_rational(nu_ratio)
    if ratio == 0:
        raise DomainError("nu ratio must be nonzero")
    return True
