"""Certified summability criteria, series bounds, thresholds and verdicts.

The central quantity is the series of square roots of classical-over-quantum
dimension ratios, summed over all irreducible labels.  A finite value
certifies the quasi-split property of the class-function inclusion; combined
with the absence of nontrivial labels with trivial intertwiner it yields the
"not a MASA" verdict (ladder families) or the relative-commutant conclusion
(free-unitary families, where the class-function algebra is non-abelian).

Every sum is certified: terms are enclosed with outward rounding and a
geometric majorant bounds the tail, so reported values are true enclosures,
never point estimates.  A threshold is certified by one interval enclosure
of a derivative-sign quantity over its whole search interval, which proves
the function increasing and the crossing unique, and by the certified signs
of ``f - 1`` at the two ends of its bracket.  Where those ends lie is
chosen by a secant estimate, which is not certified; when the signs
refute it, bisection finishes the bracket.

The series kernel and the thresholds' functions, slopes and estimate run
on integer fixed point (the ``fixed_*`` operations of :mod:`dyadic`): each
exact input enters once as a floor and a ceiling, the kernel's roots are
solved there (:func:`scalars.fixed_fundamental_q`), and each result leaves
once, rounded outward to a :class:`~qclassfun.dyadic.Enclosure` at the
working bits.  So the series, the block-sum total, the two closed-form
bounds and all three thresholds run on ints alone, and every public function
here returns an ``Enclosure``.  Each input is read once, on entry, by
:mod:`dyadic`: a rational as an int, a ``Fraction`` or decimal text, or as
the exact ends of an ``Enclosure`` where one may stand for it, and a count
as an int in its range; a float, an mpmath interval or malformed text is refused.

The kernel's term loop inlines the fixed-point operations on local ints and
stops computing a term's roots once the powers they read stop moving, the
thresholds run on int pairs, not ``Fraction``, and small caches keep the doublings
of `bits`, the coarse estimates and the certificates that a function increases.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from enum import Enum
from fractions import Fraction

from . import dyadic, fusion
from .budgets import DEFAULT_BITS, DEFAULT_MAX_TERMS, MAX_BITS
from .dyadic import Enclosure, Fixed
from .errors import BudgetError, DomainError, FamilyError, KacTypeError, Record
from .fusion import FusionFamily
from .scalars import fixed_fundamental_q

#: An input of a series or a bound: a rational (int, Fraction or decimal
#: string), or an Enclosure read through its exact endpoints.
Exact = int | str | Fraction | Enclosure

#: sup of the multiplicity of the top component in fundamental-times-ladder
#: fusion; both ladder kinds have multiplicity one there.
LADDER_SUP_C = 1

VERDICT_NOT_MASA = "not a MASA"
VERDICT_RELATIVE_COMMUTANT = (
    "quasi-split; relative commutant not contained in class functions"
)
VERDICT_NO_CONCLUSION = "no conclusion"


class Verdict(Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"
    UNDETERMINED = "undetermined"


class QuasiSplit(Enum):
    YES = "yes"
    UNDETERMINED = "undetermined"


class SeriesResult(Record):
    """Outcome of a certified summation.

    When `verdict` is CONVERGES, the true sum lies in ``partial_sum +
    tail_bound`` where `tail_bound` encloses the omitted tail from below by 0.
    Both are at the bits the sum ended at.
    """

    __slots__ = ("verdict", "partial_sum", "tail_bound", "terms_used")

    def __init__(self, verdict: Verdict, partial_sum: Enclosure | None = None,
                 tail_bound: Enclosure | None = None, terms_used: int = 0,
                 _set=object.__setattr__) -> None:
        _set(self, "verdict", verdict)
        _set(self, "partial_sum", partial_sum)
        _set(self, "tail_bound", tail_bound)
        _set(self, "terms_used", terms_used)

    def sum_enclosure(self) -> Enclosure:
        """Enclosure of the full series value (CONVERGES only): the lower end
        of `partial_sum` and the exact sum of the two upper ends, rounded up
        to their common bits.  Enclosures at different bits are refused, as
        mpmath would silently round one to the precision of the other."""
        if self.verdict is not Verdict.CONVERGES:
            raise DomainError(f"series did not converge: {self.verdict.value}")
        partial, tail = self.partial_sum, self.tail_bound
        assert partial is not None and tail is not None
        if partial.bits != tail.bits:
            raise ValueError(f"partial sum at {partial.bits} bits and tail bound at "
                             f"{tail.bits} bits do not add")
        top = dyadic.round_to(*dyadic.add(partial.hi, tail.hi), partial.bits, True)
        return Enclosure(partial.lo, top, partial.bits)


@functools.lru_cache(maxsize=64)
def _doublings(bits: int) -> tuple[int, ...]:
    """`bits`, then twice, four times ... as much while at most MAX_BITS."""
    return tuple(bits << k for k in range(MAX_BITS.bit_length())
                 if k == 0 or bits << k <= MAX_BITS)


def _read_tol(tol, bits: int, max_terms: int = 1) -> Fraction:
    """`tol` as a positive rational, after the count checks of `bits` and `max_terms`."""
    dyadic.check_count(bits, "bits", 1, MAX_BITS)
    dyadic.check_count(max_terms, "max_terms", 1)
    tol = dyadic.read_rational(tol)
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    return tol


# ---------------------------------------------------------------------------
# ratios and exponential decay


def verify_decay(family: FusionFamily, n_max: int) -> bool:
    """Exact check of the paper's decay lemma: ``A_(n+1) >= c A_n`` for
    ``1 <= n < n_max``, with ``c = 1 + (A_1 - 1)/sup_c``.

    This is the exact reproduction of the lemma; the certified sums below
    use the sharper majorant of the deformed-integer closed form instead.
    The rates ``A_n = D_n/(d_n b^n)`` of labels 1..n_max are read from one
    table of :func:`fusion.scaled_dims`, and each step is decided on ints,
    as ``D_(n+1) d_n den >= num b D_n d_(n+1)`` for ``c = num/den``; no
    ``Fraction`` of a rate is built.
    """
    dyadic.check_count(n_max, "n_max", 0)
    if not family.is_ladder:
        raise FamilyError("decay verification applies to ladder families")
    table = fusion.scaled_dims(range(1, max(n_max, 1) + 1), family)
    dim_c, dim_q, scale = table[0]
    if dim_q <= dim_c * scale:  # A_1 <= 1
        raise KacTypeError("Kac-type family has no decay rate")
    num, den = (1 + (Fraction(dim_q, dim_c * scale) - 1) / LADDER_SUP_C).as_integer_ratio()
    b = family.dim_q_fund.denominator
    return all(q1 * d0 * den >= num * b * q0 * d1
               for (d0, q0, _), (d1, q1, _) in zip(table, table[1:]))


# ---------------------------------------------------------------------------
# certified series


def _point_bits(bits: int, x: Ratio) -> int:
    """Fraction bits of a fixed point that keeps `bits` bits below the
    leading bit of the positive ``x = num/den``, plus four guard bits."""
    return bits + (x[1] // x[0]).bit_length() + 4


Roots = Callable[[int], tuple[Fixed, Fixed]]
Ratio = tuple[int, int]  # a positive rational num/den, not necessarily in lowest terms


def _fixed_power(a: Fixed, n: int, frac_bits: int) -> Fixed:
    power = (1 << frac_bits, 1 << frac_bits)
    for _ in range(n):
        power = dyadic.fixed_mul(power, a, frac_bits)
    return power


def _deformed_ratio_sum(
    roots: Roots,
    y_low: Fraction,
    step: int,
    first: int,
    tol: Fraction,
    bits: int,
    max_terms: int,
) -> SeriesResult:
    """Certified ``sum sqrt([m]_x / [m]_y)`` over ``m = first, first+step, ...``.

    ``roots(p)`` encloses ``0 < y < x <= 1`` in nonnegative pairs of ints
    ``[lo, hi]·2^-p``, `y_low` is an exact lower bound of ``y`` or 0, and
    ``[m]_t = t^(1-m) (1 - t^(2m)) / (1 - t^2)`` is the deformed integer
    (``m`` itself when ``x`` is exactly 1).  With ``z = sqrt(y/x)`` the term
    is ``z^(m-1) sqrt(a_m (1 - y^2) / (1 - y^(2m)))``, where
    ``a_m = (1 - x^(2m)) / (1 - x^2)`` (``m`` at ``x = 1``).  The powers
    ``x^(2m)``, ``y^(2m)`` and ``z^(m-1)`` are carried from term to term
    by one multiplication each, so a term costs O(1) operations.

    The fixed point ``p`` keeps `bits` bits below the smaller of `tol`, which
    the majorant meets, and `y_low`, below ``y``, whose square root scales a
    block sum's first term and which bounds ``x``, plus guard bits for
    `max_terms` roundings.  Every quantity stays nonnegative, so each
    operation is one floor and one ceiling of an int product, quotient or
    square root; partial sum and tail leave once, rounded outward to an
    Enclosure at `bits`.  The term loop inlines the ``fixed_*`` operations on
    local ints, in the same order, and takes the majorant's lower end at its end.

    The floors and ceilings of ``x^(2m)`` and ``y^(2m)`` never increase, so
    they stop moving, unless ``x`` is near 1 within a few dozen terms.  Each
    step is a function of the end it steps, so once a step leaves all four
    ends unchanged every later step does, and for ``x < 1`` a term's quotient
    and roots are functions of those ends alone.  From then on (the steady
    phase) the loop reuses its last roots and steps only ``z^(m-1)``: the
    same ints in the same order.  At ``x = 1`` the quotient carries ``m``.

    Each term with ``m >= 2`` is at most ``C z^(m-1)``, where
    ``C = ((1 - x^2)(1 + y^2))^(-1/2)``, because ``1 - x^(2m) <= 1`` and
    ``(1 - y^2)/(1 - y^(2m)) <= 1/(1 + y^2)``; at ``x = 1`` it is at most
    ``m z^(m-1)``.  With ``w = z^step`` the tail after term ``m`` is then
    at most ``C z^(m-1) w/(1-w)``, or ``z^(m-1) (m w/(1-w) + step w/(1-w)^2)``
    at ``x = 1``, and summation stops once that majorant is at most `tol`
    rounded down to `bits`, so the reported tail, rounded up to `bits`, is
    still at most `tol`.  A term certainly above its own majorant is a bug
    and raises.

    Up to `max_terms` terms are summed at each precision, starting at
    `bits` and doubling up to MAX_BITS while a budget-exhausted majorant
    still reaches down to `tol`.
    """
    mul, div, sqrt, isqrt = dyadic.fixed_mul, dyadic.fixed_div, dyadic.fixed_sqrt, math.isqrt
    limit = (min(tol, y_low) if y_low > 0 else tol).as_integer_ratio()
    partial = None
    for bits in _doublings(bits):
        p = _point_bits(bits, limit) + max_terms.bit_length()
        stop = dyadic.floor_fixed(dyadic.round_quotient(tol.numerator, tol.denominator, bits)[0], p)
        one = 1 << p
        xf, yf = roots(p)
        unit = xf == (one, one)
        if not (yf[1] < one and (unit or 0 < xf[0] and xf[1] < one)):
            continue  # y and x are not separated at this precision
        z = sqrt(yf if unit else div(yf, xf, p), p)
        w_lo, w_hi = w = _fixed_power(z, step, p)
        if w_hi >= one:
            continue
        y2 = mul(yf, yf, p)
        (ys_lo, ys_hi), (ym_lo, ym_hi) = _fixed_power(y2, step, p), _fixed_power(y2, first, p)
        zm_lo, zm_hi = _fixed_power(z, first - 1, p)
        one_minus_y2 = (one - y2[1], one - y2[0])
        one_minus_w = (one - w[1], one - w[0])
        geometric = div(w, one_minus_w, p)
        if unit:
            (geo_lo, geo_hi), poly = geometric, div(geometric, one_minus_w, p)
            poly_lo, poly_hi = step * poly[0], step * poly[1]
            num_lo, num_hi = one_minus_y2[0] << p, one_minus_y2[1] << p  # (1 - y^2)·2^p
        else:
            x2 = mul(xf, xf, p)
            (xs_lo, xs_hi), (xm_lo, xm_hi) = _fixed_power(x2, step, p), _fixed_power(x2, first, p)
            one_minus_x2 = (one - x2[1], one - x2[0])
            ratio_lo, ratio_hi = div(one_minus_y2, one_minus_x2, p)
            scale = div((one, one), sqrt(mul(one_minus_x2, (one + y2[0], one + y2[1]), p), p), p)
            factor_lo, factor_hi = mul(scale, geometric, p)
        partial_lo = partial_hi = 0
        m, steady = first, False
        for terms in range(1, max_terms + 1):
            if not steady:
                den_lo, den_hi = one - ym_hi, one - ym_lo  # 1 - y^(2m)
                if unit:
                    quotient_lo, quotient_hi = m * num_lo // den_hi, -(-m * num_hi // den_lo)
                    factor_hi = m * geo_hi + poly_hi
                else:
                    a_lo = (one - xm_hi) * ratio_lo >> p
                    a_hi = -(-(one - xm_lo) * ratio_hi >> p)
                    quotient_lo, quotient_hi = (a_lo << p) // den_hi, -((-a_hi << p) // den_lo)
                root_lo = isqrt(quotient_lo << p)
                top = quotient_hi << p
                root_hi = isqrt(top)
                root_hi += root_hi * root_hi < top
                # the term over z^(m-1) against its bound: C, or m at x = 1
                if root_lo > (m << p if unit else scale[1]):
                    raise AssertionError(f"term {m} exceeds its majorant; kernel bug")
            partial_lo += zm_lo * root_lo >> p
            partial_hi -= -zm_hi * root_hi >> p
            majorant_hi = -(-zm_hi * factor_hi >> p)
            if majorant_hi <= stop:
                partial = dyadic.fixed_enclosure(partial_lo, partial_hi, p, bits)
                tail = dyadic.fixed_enclosure(0, majorant_hi, p, bits)
                return SeriesResult(Verdict.CONVERGES, partial, tail, terms)
            if terms == max_terms:
                break
            m += step
            if unit:
                ym_lo, ym_hi = ym_lo * ys_lo >> p, -(-ym_hi * ys_hi >> p)
            elif not steady:
                powers = (xm_lo * xs_lo >> p, -(-xm_hi * xs_hi >> p),
                          ym_lo * ys_lo >> p, -(-ym_hi * ys_hi >> p))
                steady = powers == (xm_lo, xm_hi, ym_lo, ym_hi)
                xm_lo, xm_hi, ym_lo, ym_hi = powers
            zm_lo, zm_hi = zm_lo * w_lo >> p, -(-zm_hi * w_hi >> p)
        partial = dyadic.fixed_enclosure(partial_lo, partial_hi, p, bits)
        if unit:
            factor_lo = m * geo_lo + poly_lo
        if (zm_lo * factor_lo >> p) * tol.denominator > tol.numerator << p:
            break  # the tail genuinely exceeds tol; more bits cannot help
    return SeriesResult(Verdict.UNDETERMINED, partial, None,
                        0 if partial is None else max_terms)


def quasi_split_sum_ladder(
    family: FusionFamily,
    tol,
    bits: int = DEFAULT_BITS,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesResult:
    """Certified sum of sqrt(dim(n)/dim_q(n)) over all ladder labels n >= 0.

    Ladder dimensions are deformed integers: ``dim(n) = [n+1]_t`` for
    two-term fusion, with ``t + 1/t`` the fundamental dimension, and
    ``dim(n) = [2n+1]_r`` for three-term (so3) fusion, with
    ``r^2 + r^-2`` the fundamental dimension minus 1.  The series is
    therefore summed by :func:`_deformed_ratio_sum` over ``m = n+1``
    (resp. ``m = 2n+1``) with ``x`` the classical root and ``y`` the
    quantum one; ``x = 1`` exactly at N = 2 (resp. N = 3), where the
    majorant is polynomial-geometric.  Summation stops once the majorant
    ``(y/x)^((m-1)/2) / sqrt((1 - x^2)(1 + y^2))`` summed over the tail
    drops below `tol`; it decays at a strictly faster geometric rate than
    the paper's ``c = 1 + (A_1 - 1)`` bound, which :func:`verify_decay`
    still checks exactly.  `terms_used` counts label 0, and the budget is
    ``max_terms + 1`` labels.  Kac families diverge (the general term is 1).
    """
    if not family.is_ladder:
        raise FamilyError("ladder summation applies to ladder families")
    tol = _read_tol(tol, bits, max_terms)
    if family.is_kac:
        return SeriesResult(Verdict.DIVERGES)
    step = 2 if family.kind is fusion.FamilyKind.SO3_LADDER else 1
    return _deformed_ratio_sum(*_fundamental_roots(family), step, 1, tol, bits, max_terms + 1)


def _fundamental_roots(family: FusionFamily) -> tuple[Roots, Fraction]:
    """``roots(p)`` and ``y_low`` for the kernel: the classical and quantum
    roots of the fundamental, ``t`` with ``t + 1/t`` its exact dimension d,
    or for so3 ``r`` with ``r^2 + r^-2 = d - 1``; each is at least 1/d."""
    so3 = family.kind is fusion.FamilyKind.SO3_LADDER
    shift = 1 if so3 else 0
    dims = Fraction(family.dim_c_fund - shift), family.dim_q_fund - shift

    def roots(p: int) -> tuple[Fixed, Fixed]:
        x, y = (fixed_fundamental_q(dyadic.to_fixed(d, p), p) for d in dims)
        return (dyadic.fixed_sqrt(x, p), dyadic.fixed_sqrt(y, p)) if so3 else (x, y)

    return roots, 1 / dims[1]


def block_sum_S(
    q_c: Exact,
    q_q: Exact,
    tol,
    bits: int = DEFAULT_BITS,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesResult:
    """Certified sum over one family of alternating blocks.

    Term n >= 1 is ``sqrt(d_c(n) / d_q(n))`` where ``d(n)`` is the
    order-(n+1) deformed integer at `q_c` (classical; exactly ``n + 1`` at
    ``q_c = 1``) and at `q_q` (quantum): the sum of
    :func:`_deformed_ratio_sum` with ``x = q_c``, ``y = q_q`` from
    ``m = 2``.  The tail is bounded by the geometric majorant
    ``sqrt(q_q/q_c)^m / ((1 - sqrt(q_q/q_c)) sqrt((1 - q_c^2)(1 + q_q^2)))``
    after term ``m``, or by its polynomial-geometric form
    ``sqrt(q_q)^m ((m+1) - m sqrt(q_q)) / (1 - sqrt(q_q))^2`` at
    ``q_c = 1``.  Both inputs being one single point means Kac type, where
    every term is 1 and the sum diverges.

    Each input is read once by :func:`dyadic.read_hull`, as a rational (an
    int, ``Fraction`` or decimal string) or as the exact endpoints of an
    Enclosure, and the roots are their fixed-point hull.  A pair certainly outside
    ``0 < q_q <= q_c <= 1``, or possibly negative, raises; a pair not
    separated from ``q_q = q_c`` or ``q_c = 1`` escalates like any other,
    ending `undetermined` if no precision separates it.
    """
    (qc_lo, qc_hi), (qq_lo, qq_hi) = dyadic.read_hull(q_c), dyadic.read_hull(q_q)
    tol = _read_tol(tol, bits, max_terms)
    if qc_lo == qc_hi == qq_lo == qq_hi:
        return SeriesResult(Verdict.DIVERGES)
    if qq_hi <= 0 or qc_lo > 1 or qc_hi < qq_lo:
        raise DomainError(f"need 0 < q_q <= q_c <= 1, got {q_q}, {q_c}")
    if min(qc_lo, qq_lo) < 0:
        raise DomainError(f"sqrt of possibly negative enclosure: q_c {q_c}, q_q {q_q}")

    def roots(p: int) -> tuple[Fixed, Fixed]:
        return dyadic.fixed_hull(qc_lo, qc_hi, p), dyadic.fixed_hull(qq_lo, qq_hi, p)

    return _deformed_ratio_sum(roots, qq_lo, 1, 2, tol, bits, max_terms)


def total_sum_free(block_sum: SeriesResult) -> SeriesResult:
    """Total over all free-unitary labels from the one-family block sum.

    Chained blocks contribute geometrically, so the total is
    ``1 + 2 S / (1 - S)`` when ``S < 1`` is certified and diverges when
    ``S >= 1``.  A block enclosure straddling 1 stays undetermined.  The
    total equals ``(1 + S)/(1 - S)``, increasing on ``[0, 1)``, so each end
    is the exact quotient at that end of `S`, rounded once outward at the
    block sum's bits.
    """
    if block_sum.verdict is not Verdict.CONVERGES:
        return SeriesResult(block_sum.verdict)
    s = block_sum.sum_enclosure()
    lo, hi = dyadic.exact_endpoints(s)
    if lo < 0:
        raise DomainError(f"block sum must be nonnegative, got {s}")
    if hi < 1:
        bits = s.bits

        def end(x: dyadic.Dyadic, ceiling: bool) -> dyadic.Dyadic:
            # 1 + x and 1 - x share one exponent, which cancels
            plus, minus = dyadic.add((1, 0), x)[0], dyadic.add((1, 0), dyadic.negate(x))[0]
            return dyadic.round_quotient(plus, minus, bits)[ceiling]

        total = Enclosure(end(s.lo, False), end(s.hi, True), bits)
        return SeriesResult(Verdict.CONVERGES, total, Enclosure((0, 0), (0, 0), bits))
    if lo >= 1:
        return SeriesResult(Verdict.DIVERGES)
    return SeriesResult(Verdict.UNDETERMINED)


# ---------------------------------------------------------------------------
# closed-form bounds and certified thresholds
#
# The functions and slopes of the thresholds run in fixed point, as the
# series kernel does: each takes a nonnegative enclosure ``(lo, hi)`` of its
# argument, standing for ``[lo, hi]·2^-p``, and `p`, and returns enclosures
# in the same form, or None when a divisor's enclosure reaches 0 at this
# `p`, which leaves the value undecided.  A slope may be signed: its lower
# end is the sum of the lower ends of its positive terms minus the upper
# ends of its negative terms.

FixedFunction = Callable[[Fixed, int], Fixed | None]
FixedSlopes = Callable[[Fixed, int], tuple[Fixed, ...] | None]


def _dim2_bound(q: Fixed, p: int) -> Fixed | None:
    """:func:`bound_S_dim2` on a fixed-point enclosure of ``q``."""
    mul, div, sqrt = dyadic.fixed_mul, dyadic.fixed_div, dyadic.fixed_sqrt
    one = 1 << p
    s = sqrt(q, p)
    gap = (one - s[1], one - s[0])  # 1 - sqrt(q)
    q2 = mul(q, q, p)
    denominator = mul(sqrt((one + q2[0], one + q2[1]), p), mul(gap, gap, p), p)
    if gap[0] <= 0 or denominator[0] <= 0:
        return None
    return div(mul(s, (2 * one - s[1], 2 * one - s[0]), p), denominator, p)


def bound_S_dim2(q: Exact, bits: int = DEFAULT_BITS) -> Enclosure:
    """Closed-form upper bound for the block sum when the fundamental has
    classical dimension 2:

        sqrt(q)(2 - sqrt(q)) / (sqrt(1 + q^2) (1 - sqrt(q))^2),

    monotone increasing on (0, 1).  `q` is read once, exactly, as
    :func:`block_sum_S` reads its inputs.  The bound is evaluated in fixed
    point with `bits` bits below the leading bit of `q`
    (:func:`_point_bits`), so a small `q` keeps `bits` significant bits, and
    rounded outward to `bits`.
    """
    dyadic.check_count(bits, "bits", 1, MAX_BITS)
    lo, hi = dyadic.read_hull(q)
    value = None
    if 0 < lo and hi < 1:
        p = _point_bits(bits, lo.as_integer_ratio())
        value = _dim2_bound(dyadic.fixed_hull(lo, hi, p), p)
    if value is None:
        raise DomainError(f"q must lie strictly inside (0, 1), got {q}")
    return dyadic.fixed_enclosure(*value, p, bits)


def _dimge3_bound(q_c: Fixed, q_q: Fixed, p: int) -> Fixed | None:
    """:func:`bound_S_dimge3` on fixed-point enclosures of ``q_c`` and ``q_q``."""
    mul, div, sqrt = dyadic.fixed_mul, dyadic.fixed_div, dyadic.fixed_sqrt
    one = 1 << p
    c2 = mul(q_c, q_c, p)
    if q_c[0] <= 0 or c2[1] >= one:
        return None
    r = sqrt(div(q_q, q_c, p), p)  # sqrt(q_q/q_c)
    denominator = mul(sqrt((one - c2[1], one - c2[0]), p), (one - r[1], one - r[0]), p)
    if r[1] >= one or denominator[0] <= 0:
        return None
    return div(r, denominator, p)


def bound_S_dimge3(q_c: Exact, q_q: Exact, bits: int = DEFAULT_BITS) -> Enclosure:
    """Geometric majorant of the block sum for fundamental dimension >= 3:

        (1 - q_c^2)^(-1/2) * sqrt(q_q/q_c) / (1 - sqrt(q_q/q_c)).

    Its unit crossing in the ratio q_q/q_c, at the extreme admissible q_c,
    is exactly the ratio threshold reported by
    :func:`threshold_ratio_dimge3`.  It is read, evaluated and rounded as
    :func:`bound_S_dim2` is, keeping `bits` bits below the leading bit of
    `q_q`; a pair not certainly inside ``0 < q_q < q_c < 1``, or not
    separated from its ends at that precision, is a domain error.
    """
    dyadic.check_count(bits, "bits", 1, MAX_BITS)
    (qc_lo, qc_hi), (qq_lo, qq_hi) = dyadic.read_hull(q_c), dyadic.read_hull(q_q)
    value = None
    if 0 < qq_lo and qq_hi < qc_lo and qc_hi < 1:
        p = _point_bits(bits, qq_lo.as_integer_ratio())
        value = _dimge3_bound(dyadic.fixed_hull(qc_lo, qc_hi, p),
                              dyadic.fixed_hull(qq_lo, qq_hi, p), p)
    if value is None:
        raise DomainError(f"need 0 < q_q < q_c < 1, got {q_q}, {q_c}")
    return dyadic.fixed_enclosure(*value, p, bits)


#: The search interval of both thresholds.
_SEARCH_LO, _SEARCH_HI = Fraction(1, 100), Fraction(1, 2)


def _below_one(f: FixedFunction, x: Ratio, bits: int) -> bool:
    """Certified side of 1 that ``f(x)`` lies on: True below, False above.
    `f` runs on ``x = num/den`` rounded outward to the fixed point of
    :func:`_point_bits`.  While its enclosure straddles 1 or is undecided,
    it is recomputed at the next doubling of `bits`; undecided at MAX_BITS
    is a budget error."""
    for eval_bits in _doublings(bits):
        p = _point_bits(eval_bits, x)
        value = f(((x[0] << p) // x[1], -((-x[0] << p) // x[1])), p)
        if value is None:
            continue
        if value[1] < 1 << p:
            return True
        if value[0] > 1 << p:
            return False
    shown = dyadic.to_text(*dyadic.round_quotient(*x, 80)[0], 20, "half-even")
    raise BudgetError(f"sign of f(x) - 1 undecided at {MAX_BITS} bits for x = {shown} "
                      "(to 20 digits)")


@functools.lru_cache(maxsize=16)
def _certify_increasing(slopes: FixedSlopes, lo: Fraction, hi: Fraction, bits: int) -> None:
    """Certify that f increases on [lo, hi] from one enclosure of
    ``slopes(x)`` over the whole interval: each quantity must be certainly
    positive, and their positivity is what makes f increasing (a derivative
    sign, after Moore's interval analysis).  An enclosure that is too wide
    or undecided is recomputed at the next doubling of `bits`.  Certified
    once per arguments: the cache keeps no failure, which raises."""
    for eval_bits in _doublings(bits):
        p = _point_bits(eval_bits, lo.as_integer_ratio())
        values = slopes(dyadic.fixed_hull(lo, hi, p), p)
        if values is not None and all(v[0] > 0 for v in values):
            return
    raise DomainError(f"f could not be certified increasing on [{lo}, {hi}]")


def _secant(
    f: FixedFunction,
    x0: Ratio,
    x1: Ratio,
    bits: int,
    steps: int,
    stop: Ratio,
) -> tuple[Ratio, Ratio]:
    """Up to `steps` secant steps towards ``f = 1`` from `x0` and `x1`, on
    the midpoints of f's enclosures at `bits`; each iterate is rounded
    half-even to a multiple of ``2^-(bits+8)`` and clipped to the search
    interval.  Stops after a step of at most `stop`, or when a step would
    change nothing.  Returns the last two iterates, which differ.  All are
    int pairs, and nothing here is certified: it is an estimate only."""
    scale = 1 << (bits + 8)
    (lo_n, lo_d), (hi_n, hi_d) = _SEARCH_LO.as_integer_ratio(), _SEARCH_HI.as_integer_ratio()

    def offset(x: Ratio) -> tuple[int, int]:
        p = _point_bits(bits, x)
        lo, hi = f(((x[0] << p) // x[1], -((-x[0] << p) // x[1])), p)
        return lo + hi - (2 << p), p + 1  # f(x) - 1 at the midpoint, as a·2^-e

    (n0, d0), (n1, d1) = x0, x1
    a0, e0 = offset(x0)
    for _ in range(steps):
        a1, e1 = offset((n1, d1))
        v0, v1 = a0 << e1, a1 << e0  # both over 2^(e0 + e1)
        if v1 == v0:
            break
        # x2 = (x0 v1 - x1 v0)/(v1 - v0), times the scale
        num, den = (n0 * d1 * v1 - n1 * d0 * v0) * scale, d0 * d1 * (v1 - v0)
        if den < 0:
            num, den = -num, -den
        n2, remainder = divmod(num, den)
        if 2 * remainder > den or 2 * remainder == den and n2 & 1:
            n2 += 1
        n2, d2 = ((lo_n, lo_d) if n2 * lo_d < lo_n * scale else
                  (hi_n, hi_d) if n2 * hi_d > hi_n * scale else (n2, scale))
        if n2 * d1 == n1 * d2:
            break
        n0, d0, a0, e0, n1, d1 = n1, d1, a1, e1, n2, d2
        if abs(n1 * d0 - n0 * d1) * stop[1] <= stop[0] * d0 * d1:
            break
    return (n0, d0), (n1, d1)


@functools.cache
def _coarse_estimate(which: str) -> tuple[Ratio, Ratio]:
    """The last two secant iterates at 64 bits from the ends of the search
    interval: a pure function of the threshold's name, computed once per
    process whatever the tolerance."""
    return _secant(_CROSSINGS[which][0], _SEARCH_LO.as_integer_ratio(),
                   _SEARCH_HI.as_integer_ratio(), 64, 64, (1, 1 << 64))


def _estimate(which: str, tol: Fraction) -> Fraction:
    """Non-rigorous estimate of the unit crossing: the cached 64-bit one,
    refined when `tol` needs more than 40 bits by secant steps at about
    ``2 log2(1/tol) + 64`` bits until a step is at most ``tol/16``.  Each
    step multiplies the correct bits by about 1.6, so one to three steps
    reach tol 1e-60, and six take the 64 bits past MAX_BITS."""
    x0, x1 = _coarse_estimate(which)
    needed = (tol.denominator // tol.numerator).bit_length()
    if needed > 40:
        bits = min(2 * needed + 64, MAX_BITS)
        x0, x1 = _secant(_CROSSINGS[which][0], x0, x1, bits, 6,
                         (tol.numerator, 16 * tol.denominator))
    return Fraction(*x1)


def _unit_crossing(
    f: FixedFunction,
    slopes: FixedSlopes,
    lo: Fraction,
    hi: Fraction,
    tol: Fraction,
    bits: int,
    estimate: Fraction,
) -> Enclosure:
    """Enclose the unique solution of ``f = 1`` in [lo, hi] to width `tol`.

    Certified: that f increases on [lo, hi], so a crossing is unique
    (:func:`_certify_increasing` on `slopes`, cached), and the sign of
    ``f - 1`` at every point the bracket ends on (:func:`_below_one`).  Not
    certified: `estimate`, which only chooses where to look.  It is verified
    as in Rump's verification methods: ``estimate -+ tol/4``, rounded
    outward to multiples of a power of two at most ``tol/8`` and clipped to
    [lo, hi], are the candidate ends, and when f is certified below 1 at the
    lower and above 1 at the upper one they are the bracket, at most
    ``3 tol/4`` wide.  Otherwise the certified signs narrow [lo, hi] as far
    as they go, the ends not yet checked are certified, and bisection
    finishes the bracket, so a wrong estimate costs time, never
    correctness.  The bracket's ends are ints over one denominator, doubled
    at each halving; once narrower than `tol`, they are rounded outward at
    the first doubling of `bits` whose dyadic ends lie within `tol`.
    """
    _certify_increasing(slopes, lo, hi, bits)
    (lo_n, lo_d), (hi_n, hi_d) = lo.as_integer_ratio(), hi.as_integer_ratio()
    (est_n, est_d), (tol_n, tol_d) = estimate.as_integer_ratio(), tol.as_integer_ratio()
    k = (8 * tol_d // tol_n).bit_length()  # 2^-k <= tol/8
    # estimate -+ tol/4 = (centre -+ radius)/scale; the bracket is ints over den
    centre, radius, scale = 4 * est_n * tol_d, tol_n * est_d, 4 * est_d * tol_d
    grid, den = lo_d * hi_d, lo_d * hi_d << k
    low, high = lo_n * hi_d << k, hi_n * lo_d << k
    candidates = {min(max((centre - radius << k) // scale * grid, low), high),
                  min(max(-((-(centre + radius) << k) // scale) * grid, low), high)}
    lo_known = hi_known = False
    for point in sorted(candidates):
        if _below_one(f, (point, den), bits):
            low, lo_known = point, True
        else:
            high, hi_known = point, True
            break
    if not lo_known and not _below_one(f, (low, den), bits):
        raise DomainError(f"no sign change: f({Fraction(low, den)}) not certified below 1")
    if not hi_known and _below_one(f, (high, den), bits):
        raise DomainError(f"no sign change: f({Fraction(high, den)}) not certified above 1")
    while (high - low) * tol_d >= tol_n * den:
        mid, low, high, den = low + high, 2 * low, 2 * high, 2 * den
        if _below_one(f, (mid, den), bits):
            low = mid
        else:
            high = mid
    for enclosure_bits in _doublings(bits):
        lower = dyadic.round_quotient(low, den, enclosure_bits)[0]
        upper = dyadic.round_quotient(high, den, enclosure_bits)[1]
        width, exponent = dyadic.add(upper, dyadic.negate(lower))
        if width * tol_d << max(exponent, 0) <= tol_n << max(-exponent, 0):
            return Enclosure(lower, upper, enclosure_bits)
    raise BudgetError(f"no enclosure of width {tol} at {MAX_BITS} bits")


def _threshold(which: str, tol, bits: int) -> Enclosure:
    f, slopes = _CROSSINGS[which]
    tol = _read_tol(tol, bits)
    return _unit_crossing(f, slopes, _SEARCH_LO, _SEARCH_HI, tol, bits, _estimate(which, tol))


def _dim2_slopes(q: Fixed, p: int) -> tuple[Fixed] | None:
    """``d/ds log`` of :func:`bound_S_dim2` at ``q = s^2``,
    ``1/s - 1/(2 - s) - 2 s^3/(1 + s^4) + 2/(1 - s)``; positive means the
    bound increases in q."""
    mul, div, sqrt = dyadic.fixed_mul, dyadic.fixed_div, dyadic.fixed_sqrt
    one = 1 << p
    s = sqrt(q, p)
    if s[0] <= 0 or s[1] >= one:
        return None
    s3 = mul(mul(s, s, p), s, p)
    s4 = mul(s3, s, p)
    a = div((one, one), s, p)
    b = div((one, one), (2 * one - s[1], 2 * one - s[0]), p)
    c = div((2 * s3[0], 2 * s3[1]), (one + s4[0], one + s4[1]), p)
    d = div((2 * one, 2 * one), (one - s[1], one - s[0]), p)
    return ((a[0] - b[1] - c[1] + d[0], a[1] - b[0] - c[0] + d[1]),)


def threshold_dim2(tol, bits: int = DEFAULT_BITS) -> Enclosure:
    """Certified unit crossing of :func:`bound_S_dim2` (near 0.0861)."""
    return _threshold("dim2", tol, bits)


def _ratio_threshold(p: int) -> Fixed:
    """:func:`threshold_ratio_dimge3` in fixed point at `p`."""
    mul, div, sqrt = dyadic.fixed_mul, dyadic.fixed_div, dyadic.fixed_sqrt
    one = 1 << p
    root5 = sqrt((5 * one, 5 * one), p)
    u = sqrt(div((3 * root5[0] + 5 * one, 3 * root5[1] + 5 * one), (10 * one, 10 * one), p), p)
    base = (one + u[0], one + u[1])
    return div((one, one), mul(base, base, p), p)


def threshold_ratio_dimge3(bits: int = DEFAULT_BITS) -> Enclosure:
    """Closed-form ratio threshold ``(1 + sqrt((3 sqrt(5) + 5)/10))^(-2)``,
    with decimal expansion starting 0.2306, evaluated in fixed point with
    eight guard bits and rounded outward to `bits`."""
    dyadic.check_count(bits, "bits", 1, MAX_BITS)
    p = bits + 8  # the value lies in [1/8, 1/4), so p keeps bits + 5 bits below it
    return dyadic.fixed_enclosure(*_ratio_threshold(p), p, bits)


def _remark_two_term(x: Fixed, p: int) -> Fixed | None:
    """``sqrt(2/[2]_x) + sqrt(3/[3]_x)`` from the closed forms
    ``[2]_x = x + 1/x`` and ``[3]_x = x^2 + 1 + x^-2``."""
    if x[0] <= 0:
        return None
    mul, div, sqrt = dyadic.fixed_mul, dyadic.fixed_div, dyadic.fixed_sqrt
    one = 1 << p
    inv = div((one, one), x, p)
    x2, inv2 = mul(x, x, p), mul(inv, inv, p)
    two = (x[0] + inv[0], x[1] + inv[1])
    three = (x2[0] + one + inv2[0], x2[1] + one + inv2[1])
    a = sqrt(div((2 * one, 2 * one), two, p), p)
    b = sqrt(div((3 * one, 3 * one), three, p), p)
    return a[0] + b[0], a[1] + b[1]


def _remark_slopes(x: Fixed, p: int) -> tuple[Fixed, Fixed] | None:
    """Minus the derivatives of ``[2]_x`` and ``[3]_x``, ``x^-2 - 1`` and
    ``2 x^-3 - 2 x``; positive means both decrease, so the two-term bound
    increases in x."""
    if x[0] <= 0:
        return None
    mul, div = dyadic.fixed_mul, dyadic.fixed_div
    one = 1 << p
    inv = div((one, one), x, p)
    inv2 = mul(inv, inv, p)
    inv3 = mul(inv2, inv, p)
    return (inv2[0] - one, inv2[1] - one), (2 * (inv3[0] - x[1]), 2 * (inv3[1] - x[0]))


def threshold_remark(tol, bits: int = DEFAULT_BITS) -> Enclosure:
    """Certified root of ``sqrt(2/[2]) + sqrt(3/[3]) = 1`` (near 0.2134).

    The left side is a two-term lower bound for the dimension-2 block sum,
    so above this root that sum certainly exceeds 1.
    """
    return _threshold("remark", tol, bits)


#: Each threshold's function and the quantities certifying its increase.
_CROSSINGS = {"dim2": (_dim2_bound, _dim2_slopes), "remark": (_remark_two_term, _remark_slopes)}


# ---------------------------------------------------------------------------
# verdict logic


def kac_part(family: FusionFamily, n_max: int) -> list[int]:
    """Ladder labels up to `n_max` whose intertwiner is certified trivial,
    i.e. whose quantum dimension equals the classical one exactly.

    Non-Kac families yield exactly the trivial label.  The two dimensions
    of each entry of the one table of :func:`fusion.scaled_dims` are
    compared as scaled ints, and no ``Fraction`` is built."""
    dyadic.check_count(n_max, "n_max", 0)
    if not family.is_ladder:
        raise FamilyError("kac_part applies to ladder families")
    table = fusion.scaled_dims(range(n_max + 1), family)
    return [n for n, (dim_c, dim_q, scale) in enumerate(table) if dim_q == dim_c * scale]


class MasaVerdict(Record):
    """Combined verdict for one family.

    `verdict_text` is a fixed enumeration: ``"not a MASA"`` requires both a
    certified quasi-split inclusion and all nontrivial labels carrying a
    nontrivial intertwiner; the free-unitary conclusion addresses the
    relative commutant instead, since its class-function algebra is
    non-abelian.
    """

    __slots__ = ("quasi_split", "all_nontrivial_rho_nontrivial", "verdict_text", "series",
                 "block_sum")

    def __init__(self, quasi_split: QuasiSplit, all_nontrivial_rho_nontrivial: bool,
                 verdict_text: str, series: SeriesResult, block_sum: SeriesResult | None = None,
                 _set=object.__setattr__) -> None:
        _set(self, "quasi_split", quasi_split)
        _set(self, "all_nontrivial_rho_nontrivial", all_nontrivial_rho_nontrivial)
        _set(self, "verdict_text", verdict_text)
        _set(self, "series", series)
        _set(self, "block_sum", block_sum)


def masa_verdict(
    family: FusionFamily,
    tol=Fraction(1, 10**6),
    n_max: int = 50,
    bits: int = DEFAULT_BITS,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> MasaVerdict:
    """Run the intertwiner scan and the summability criterion for `family`;
    the scan first, so that a table past its budget is refused at once."""
    dyadic.check_count(n_max, "n_max", 0)
    if family.is_ladder:
        all_nontrivial = kac_part(family, n_max) == [0]
        series = quasi_split_sum_ladder(family, tol, bits=bits, max_terms=max_terms)
        block = None
    else:
        tol = _read_tol(tol, bits, max_terms)
        if family.is_kac:
            block = SeriesResult(Verdict.DIVERGES)
        else:
            block = _deformed_ratio_sum(*_fundamental_roots(family), 1, 2, tol, bits, max_terms)
        series = total_sum_free(block)
        # Non-Kac free-unitary families have nontrivial intertwiners on every
        # nontrivial word; Kac ones on none.
        all_nontrivial = not family.is_kac

    if series.verdict is Verdict.CONVERGES:
        quasi = QuasiSplit.YES
    else:
        quasi = QuasiSplit.UNDETERMINED

    if quasi is QuasiSplit.YES and all_nontrivial:
        text = VERDICT_NOT_MASA if family.is_ladder else VERDICT_RELATIVE_COMMUTANT
    else:
        text = VERDICT_NO_CONCLUSION
    return MasaVerdict(quasi, all_nontrivial, text, series, block)
