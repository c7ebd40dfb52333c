"""Reference copies of the series kernel and the threshold estimate, as they
were before their loops moved onto local ints.

:func:`deformed_ratio_sum` is the certified series kernel written with one
``dyadic.fixed_*`` call per operation and a tuple per enclosure, summing
every root kind term by term under a geometric majorant;
:func:`kummer_sum` is the kernel's ``x < 1`` summation by Kummer's
transformation in the same style; :func:`series_oracle` sums the series in
mpmath, independently of both; :func:`secant` and
:func:`candidate_ends` are the threshold estimate's secant steps and the
candidate bracket ends of the crossing in ``Fraction`` arithmetic.  The
package's :func:`qclassfun.criteria._deformed_ratio_sum` must give the
same ints as :func:`deformed_ratio_sum` at ``x = 1`` and as
:func:`kummer_sum` for ``x < 1``, an enclosure that meets
:func:`deformed_ratio_sum`'s in at most as many terms,
:func:`~qclassfun.criteria._secant` and
:func:`~qclassfun.criteria._unit_crossing` the same ints as their
``Fraction`` forms, and the tests compare them on seeded grids.  Like the
package, the kernels hand their fixed-point sums to
``dyadic.fixed_enclosure`` through the module, so a test can record them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from qclassfun import dyadic, fusion
from qclassfun.budgets import MAX_BITS
from qclassfun.criteria import SeriesResult, Verdict

#: The oracle's digits, and the most terms it sums one by one.
DIGITS = 80
DIRECT_TERMS = 20_000


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


def complement(a, p: int):
    """``1 - a`` for a fixed-point enclosure `a` at `p`."""
    return (1 << p) - a[1], (1 << p) - a[0]


def separated(roots, p: int, step: int):
    """``(x, y, z, w)`` at `p` with ``z = sqrt(y/x)`` and ``w = z^step``, or
    None where ``0 < y < x <= 1`` and ``w < 1`` are not certain."""
    one = 1 << p
    x, y = roots(p)
    unit = x == (one, one)
    if not (y[1] < one and (unit or 0 < x[0] and x[1] < one)):
        return None
    z = dyadic.fixed_sqrt(y if unit else dyadic.fixed_div(y, x, p), p)
    w = fixed_power(z, step, p)
    return None if w[1] >= one else (x, y, z, w)


def kummer_sum(roots, y_low: Fraction, step: int, first: int, tol: Fraction, bits: int,
               max_terms: int) -> SeriesResult:
    """The certified sum for ``x < 1`` as ``sqrt(L) (G - D_M - T)`` with
    tail ``[0, sqrt(L) T]``: ``L = (1 - y^2)/(1 - x^2)``,
    ``G = z^(first-1)/(1 - w)``, ``D_M`` the sum of ``z^(m-1) (1 - g_m)``
    over the first M terms, ``g_m = sqrt((1 - x^(2m))/(1 - y^(2m)))``, and
    ``T = z^(M'-1) x^(2M') / (1 - w x^(2 step))`` with ``M' = M + step``;
    ``2 floor(log2(1/(1 - w)))`` guard bits; one ``dyadic.fixed_*`` call per
    operation."""
    mul, div, sqrt = dyadic.fixed_mul, dyadic.fixed_div, dyadic.fixed_sqrt
    partial = None
    for bits in doublings(bits):
        p = point_bits(bits, min(tol, y_low) if y_low > 0 else tol) + max_terms.bit_length()
        found = separated(roots, p, step)
        if found is not None:
            guard = 2 * (((1 << p) // ((1 << p) - found[3][1])).bit_length() - 1)
            if guard:
                p += guard
                found = separated(roots, p, step)
        if found is None:
            continue
        stop = dyadic.floor_fixed(dyadic.round_quotient(tol.numerator, tol.denominator, bits)[0], p)
        x, y, z, w = found
        one = 1 << p
        x2, y2 = mul(x, x, p), mul(y, y, p)
        x_step, y_step = fixed_power(x2, step, p), fixed_power(y2, step, p)
        xm, ym = fixed_power(x2, first, p), fixed_power(y2, first, p)
        zm = fixed_power(z, first - 1, p)
        root_l = sqrt(div(complement(y2, p), complement(x2, p), p), p)
        big_g = div(zm, complement(w, p), p)
        inv = div((one, one), complement(mul(w, x_step, p), p), p)
        factor = mul(root_l, inv, p)
        d_lo = d_hi = 0
        for terms in range(1, max_terms + 1):
            g = sqrt(div(complement(xm, p), complement(ym, p), p), p)
            one_minus_g = complement(g, p)
            if one_minus_g[0] > xm[1]:
                raise AssertionError("1 - g_m exceeds x^(2m); kernel bug")
            term = mul(zm, (max(one_minus_g[0], 0), one_minus_g[1]), p)
            d_lo, d_hi = d_lo + term[0], d_hi + term[1]
            xm, ym, zm = mul(xm, x_step, p), mul(ym, y_step, p), mul(zm, w, p)
            lead = mul(zm, xm, p)
            t, tail = mul(lead, inv, p), mul(lead, factor, p)
            if tail[1] <= stop or terms == max_terms:
                break
        inner = (max(big_g[0] - d_hi - t[1], 0), big_g[1] - d_lo - t[0])
        partial = dyadic.fixed_enclosure(*mul(root_l, inner, p), p, bits)
        if tail[1] <= stop:
            return SeriesResult(Verdict.CONVERGES, partial,
                                dyadic.fixed_enclosure(0, tail[1], p, bits), terms)
        if mul(root_l, t, p)[0] * tol.denominator > tol.numerator << p:
            break
    return SeriesResult(Verdict.UNDETERMINED, partial, None,
                        0 if partial is None else max_terms)


def mpf(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def _fundamental(d: Fraction) -> mpmath.mpf:
    """The root in (0, 1] of ``t + 1/t = d``."""
    d = mpf(d)
    return 2 / (d + mpmath.sqrt(d * d - 4))


def family_roots(family: fusion.FusionFamily):
    """``(x, y)`` of a family's kernel in mpmath at the working precision."""
    so3 = family.kind is fusion.FamilyKind.SO3_LADDER
    shift = 1 if so3 else 0

    def roots():
        x, y = (_fundamental(Fraction(d) - shift) for d in (family.dim_c_fund, family.dim_q_fund))
        return (mpmath.sqrt(x), mpmath.sqrt(y)) if so3 else (x, y)

    return roots


def series_oracle(exact_roots, step: int, first: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    """``(S, err)``: the sum of ``sqrt([m]_x / [m]_y)`` over ``m = first,
    first+step, ...`` and a bound of its error, for the ``(x, y)`` that
    `exact_roots` gives at mpmath's working precision.  Independent of the
    kernel's summation: the terms are summed one by one at 80 digits until
    one is below ``1e-50 (1 - w)``, ``w = (y/x)^(step/2)``, or, where that
    would take more than 20,000 terms, by ``mpmath.nsum``'s Shanks
    transformation at ``80 + 2k`` digits, ``1 - w`` being about ``10^-k``."""
    with mpmath.workdps(DIGITS):
        x, y = exact_roots()
        w = mpmath.sqrt(y / x) ** step
        k = max(0, int(-mpmath.log10(1 - w)))
    digits = DIGITS + 2 * k
    with mpmath.workdps(digits):
        x, y = exact_roots()

        def deformed(t, m):
            return m if t == 1 else t ** (1 - m) * (1 - t ** (2 * m)) / (1 - t * t)

        def term(m):
            return mpmath.sqrt(deformed(x, m) / deformed(y, m))

        w = mpmath.sqrt(y / x) ** step
        floor = mpmath.mpf(10) ** -50 * (1 - w)
        if mpmath.log(floor) / mpmath.log(w) > DIRECT_TERMS:
            total = mpmath.nsum(lambda n: term(first + step * n), [0, mpmath.inf],
                                method="shanks")
            return +total, total * mpmath.mpf(10) ** -60
        total, m = mpmath.mpf(0), first
        while True:
            value = term(m)
            total += value
            if value < floor:
                return +total, mpmath.mpf(10) ** -45 + total * mpmath.mpf(10) ** -70
            m += step


def holds_series(lo: Fraction, hi: Fraction, exact_roots, step: int, first: int) -> bool:
    """``[lo, hi]`` holds the oracle's sum, up to the oracle's error bound."""
    total, err = series_oracle(exact_roots, step, first)
    with mpmath.workdps(DIGITS + 60):
        return mpf(lo) <= total + err and total - err <= mpf(hi)


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
