"""Reference copies of the series kernel and the threshold estimate, as they
were before their loops moved onto local ints.

:func:`deformed_ratio_sum` is the certified series kernel written with one
``dyadic.fixed_*`` call per operation and a tuple per enclosure;
:func:`secant` and :func:`candidate_ends` are the threshold estimate's
secant steps and the candidate bracket ends of the crossing in ``Fraction``
arithmetic.  The package's :func:`qclassfun.criteria._deformed_ratio_sum`,
:func:`~qclassfun.criteria._secant` and
:func:`~qclassfun.criteria._unit_crossing` must give the same ints, and the
tests compare them on seeded grids.  Like the package, the kernel hands its
fixed-point sums to ``dyadic.fixed_enclosure`` through the module, so a test
can record them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from qclassfun import dyadic
from qclassfun.budgets import MAX_BITS
from qclassfun.criteria import SeriesResult, Verdict


def doublings(bits: int) -> list[int]:
    return [bits << k for k in range(MAX_BITS.bit_length()) if k == 0 or bits << k <= MAX_BITS]


def point_bits(bits: int, x: Fraction) -> int:
    return bits + (x.denominator // x.numerator).bit_length() + 4


def fixed_power(a, n: int, frac_bits: int):
    power = (1 << frac_bits, 1 << frac_bits)
    for _ in range(n):
        power = dyadic.fixed_mul(power, a, frac_bits)
    return power


def deformed_ratio_sum(roots, y_low: Fraction, step: int, first: int, tol: Fraction, bits: int,
                       max_terms: int) -> SeriesResult:
    """Certified ``sum sqrt([m]_x / [m]_y)`` over ``m = first, first+step, ...``,
    one ``dyadic.fixed_*`` call per operation."""
    mul, div, sqrt = dyadic.fixed_mul, dyadic.fixed_div, dyadic.fixed_sqrt
    partial = None
    for bits in doublings(bits):
        p = point_bits(bits, min(tol, y_low) if y_low > 0 else tol) + max_terms.bit_length()
        stop = dyadic.floor_fixed(dyadic.round_quotient(tol.numerator, tol.denominator, bits)[0], p)
        one = 1 << p
        xf, yf = roots(p)
        unit = xf == (one, one)
        if not (yf[1] < one and (unit or 0 < xf[0] and xf[1] < one)):
            continue
        z = sqrt(yf if unit else div(yf, xf, p), p)
        w = fixed_power(z, step, p)
        if w[1] >= one:
            continue
        x2, y2 = mul(xf, xf, p), mul(yf, yf, p)
        x_step, y_step = fixed_power(x2, step, p), fixed_power(y2, step, p)
        xm, ym = fixed_power(x2, first, p), fixed_power(y2, first, p)
        zm = fixed_power(z, first - 1, p)
        one_minus_y2 = (one - y2[1], one - y2[0])
        one_minus_w = (one - w[1], one - w[0])
        geometric = div(w, one_minus_w, p)
        if unit:
            poly = div(geometric, one_minus_w, p)
            poly = (step * poly[0], step * poly[1])
        else:
            one_minus_x2 = (one - x2[1], one - x2[0])
            ratio_scale = div(one_minus_y2, one_minus_x2, p)
            scale = div((one, one), sqrt(mul(one_minus_x2, (one + y2[0], one + y2[1]), p), p), p)
            tail_factor = mul(scale, geometric, p)
        partial_lo = partial_hi = 0
        m = first
        for terms in range(1, max_terms + 1):
            one_minus_ym = (one - ym[1], one - ym[0])
            if unit:
                root = sqrt(div((m * one_minus_y2[0], m * one_minus_y2[1]), one_minus_ym, p), p)
            else:
                a_m = mul((one - xm[1], one - xm[0]), ratio_scale, p)
                root = sqrt(div(a_m, one_minus_ym, p), p)
            if root[0] > (m << p if unit else scale[1]):
                raise AssertionError(f"term {m} exceeds its majorant; kernel bug")
            term = mul(zm, root, p)
            partial_lo += term[0]
            partial_hi += term[1]
            factor = ((m * geometric[0] + poly[0], m * geometric[1] + poly[1]) if unit
                      else tail_factor)
            majorant = mul(zm, factor, p)
            if majorant[1] <= stop:
                partial = dyadic.fixed_enclosure(partial_lo, partial_hi, p, bits)
                tail = dyadic.fixed_enclosure(0, majorant[1], p, bits)
                return SeriesResult(Verdict.CONVERGES, partial, tail, terms)
            m += step
            xm = mul(xm, x_step, p)
            ym = mul(ym, y_step, p)
            zm = mul(zm, w, p)
        partial = dyadic.fixed_enclosure(partial_lo, partial_hi, p, bits)
        if majorant[0] * tol.denominator > tol.numerator << p:
            break
    return SeriesResult(Verdict.UNDETERMINED, partial, None,
                        0 if partial is None else max_terms)


def secant(f, x0: Fraction, x1: Fraction, bits: int, steps: int, stop: Fraction,
           lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Secant steps towards ``f = 1`` on the midpoints of f's enclosures,
    each iterate rounded half-even to a multiple of ``2^-(bits+8)`` and
    clipped to [lo, hi], in ``Fraction`` arithmetic."""
    scale = 1 << (bits + 8)

    def offset(x: Fraction) -> Fraction:
        p = point_bits(bits, x)
        low, high = f(dyadic.to_fixed(x, p), p)
        return Fraction(low + high, 2 << p) - 1

    v0 = offset(x0)
    for _ in range(steps):
        v1 = offset(x1)
        if v1 == v0:
            break
        x2 = x1 - v1 * (x1 - x0) / (v1 - v0)
        x2 = min(max(Fraction(round(x2 * scale), scale), lo), hi)
        if x2 == x1:
            break
        x0, v0, x1 = x1, v1, x2
        if abs(x1 - x0) <= stop:
            break
    return x0, x1


def candidate_ends(estimate: Fraction, tol: Fraction, lo: Fraction,
                   hi: Fraction) -> list[Fraction]:
    """``estimate -+ tol/4`` rounded outward to multiples of a power of two
    at most ``tol/8`` and clipped to [lo, hi], distinct and in order."""
    unit = 1 << (8 * tol.denominator // tol.numerator).bit_length()
    return sorted({
        min(max(Fraction(math.floor((estimate - tol / 4) * unit), unit), lo), hi),
        min(max(Fraction(math.ceil((estimate + tol / 4) * unit), unit), lo), hi),
    })
