"""The series kernel against an mpmath oracle that sums the terms themselves.

:func:`criteria._deformed_ratio_sum` sums ``sqrt([m]_x / [m]_y)`` term by
term at ``x = 1`` and by Kummer's transformation for ``x < 1``; the oracle,
``kernel_oracle.series_oracle``, knows neither.  On a seeded grid over both root
kinds, step 1 and 2, first 1 and 2, tol from 1e-3 to 1e-30 and bits from 16
to 1024, with ladder families at ``dim_q = N + 10^-23`` and block sums with
``q_c - q_q = 10^-20`` among them, every converged sum must contain the
oracle, have a tail of at most tol, take at most as many terms as the
term-by-term reference kernel of ``kernel_oracle.py`` wherever that kernel
converges, and keep `bits` significant bits.
"""

from __future__ import annotations

import math
import random
import types
from fractions import Fraction

import mpmath
import pytest

import kernel_oracle
from qclassfun import criteria, dyadic, fusion
from qclassfun.criteria import Verdict

BITS = (16, 32, 64, 128, 256, 1024)
MAX_TERMS = 3000


def _hull(x: Fraction, y: Fraction):
    def roots(p):
        return dyadic.fixed_hull(x, x, p), dyadic.fixed_hull(y, y, p)
    return roots


def _cases() -> list[tuple]:
    """Seeded ``(name, roots, y_low, step, first, tol, bits, exact_roots)``."""
    rng = random.Random(40)
    cases = []

    def tol() -> Fraction:
        return Fraction(rng.randint(1, 9), 10 ** rng.randint(3, 30))

    def add(name, roots, y_low, step, first, exact_roots):
        cases.append((name, roots, y_low, step, first, tol(), rng.choice(BITS), exact_roots))

    def point(x: Fraction, y: Fraction):
        return _hull(x, y), y, lambda: (kernel_oracle.mpf(x), kernel_oracle.mpf(y))

    for i in range(80):
        step, first = rng.choice((1, 2)), rng.choice((1, 2))
        if i % 4 == 0:  # unit root: x = 1 exactly
            x = Fraction(1)
            y = Fraction(rng.randint(10, 900), 1000)
        elif i % 4 == 1:  # x below 1, y below x
            x = Fraction(rng.randint(50, 980), 1000)
            y = x * Fraction(rng.randint(1, 99), 100)
        elif i % 4 == 2:  # x near 1 and y far below: L = (1 - y^2)/(1 - x^2) is large
            x = Fraction(rng.randint(900, 990), 1000)
            y = x * Fraction(rng.randint(1, 50), 100)
        else:  # block sums near the Kac point: q_c - q_q = 10^-20
            x = Fraction(rng.randint(50, 950), 1000)
            y = x - Fraction(1, 10**20)
        roots, y_low, exact_roots = point(x, y)
        add(f"point-{i}", roots, y_low, step, first, exact_roots)
    near = Fraction(1, 10**23)
    families = [fusion.su2_ladder(2, q=Fraction(rng.randint(50, 800), 1000)),
                fusion.so3_ladder(3, dim_q_fund=Fraction(rng.randint(3100, 9000), 1000))]
    for n in (3, 4, 5, 6):
        families += [fusion.su2_ladder(n, dim_q_fund=n + near),
                     fusion.su2_ladder(n, dim_q_fund=n + Fraction(rng.randint(1, 5000), 1000))]
    for n in (4, 5, 6, 7):
        families += [fusion.so3_ladder(n, dim_q_fund=n + near),
                     fusion.so3_ladder(n, dim_q_fund=n + Fraction(rng.randint(1, 5000), 1000))]
    families += [fusion.free_unitary(3, dim_q_fund=3 + near),
                 fusion.free_unitary(4, dim_q_fund=Fraction(rng.randint(4001, 9000), 1000))]
    for family in families:
        roots, y_low = criteria._fundamental_roots(family)
        step = 2 if family.kind is fusion.FamilyKind.SO3_LADDER else 1
        for first in (1, 2):
            add(f"{family.kind.value}-{family.dim_c_fund}-{family.dim_q_fund}-{first}", roots,
                y_low, step, first, kernel_oracle.family_roots(family))
    return cases


CASES = _cases()


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_the_kernel_contains_the_oracle(case):
    name, roots, y_low, step, first, tol, bits, exact_roots = case
    args = roots, y_low, step, first, tol, bits, MAX_TERMS
    got = criteria._deformed_ratio_sum(*args)
    reference = kernel_oracle.deformed_ratio_sum(*args)
    if reference.verdict is Verdict.CONVERGES:
        assert got.verdict is Verdict.CONVERGES
        assert got.terms_used <= reference.terms_used
    if got.verdict is not Verdict.CONVERGES:
        return
    assert dyadic.exact_endpoints(got.tail_bound)[1] <= tol
    assert kernel_oracle.holds_series(*dyadic.exact_endpoints(got.sum_enclosure()), exact_roots,
                                      step, first)
    # bits significant bits of the partial sum, whatever 1 - w is
    lo, hi = dyadic.exact_endpoints(got.partial_sum)
    assert 0 < lo and (hi - lo) / lo <= Fraction(1, 2 ** (bits - 2))


def test_the_grid_covers_both_root_kinds_and_the_kac_point():
    kinds = {(case[3], case[4]) for case in CASES}
    assert kinds == {(1, 1), (1, 2), (2, 1), (2, 2)}
    converged = {True: 0, False: 0}
    nsum = 0
    for name, roots, y_low, step, first, tol, bits, exact_roots in CASES:
        got = criteria._deformed_ratio_sum(roots, y_low, step, first, tol, bits, MAX_TERMS)
        if got.verdict is Verdict.CONVERGES:
            p = criteria._point_bits(bits, (min(tol, y_low) if y_low > 0 else tol)
                                     .as_integer_ratio()) + MAX_TERMS.bit_length()
            converged[roots(p)[0] == (1 << p, 1 << p)] += 1
            with mpmath.workdps(kernel_oracle.DIGITS):
                x, y = exact_roots()
                nsum += mpmath.log(1 - mpmath.sqrt(y / x) ** step) < -15
    assert converged[True] >= 15 and converged[False] >= 40 and nsum >= 10
    assert {case[6] for case in CASES} == set(BITS)


def _scale_isqrt(monkeypatch, scale: Fraction) -> None:
    """The kernel's own square roots, times `scale`: a kernel bug."""
    monkeypatch.setattr(criteria, "math", types.SimpleNamespace(
        isqrt=lambda n: math.isqrt(n) * scale.numerator // scale.denominator))


def test_one_minus_g_above_its_cap_raises(monkeypatch):
    # 1 - g_m is at most x^(2m); an enclosure certainly above it is a bug
    _scale_isqrt(monkeypatch, Fraction(1, 2))
    with pytest.raises(AssertionError, match="exceeds x\\^\\(2m\\)"):
        criteria._deformed_ratio_sum(_hull(Fraction(3, 10), Fraction(1, 10)), Fraction(1, 10),
                                     1, 1, Fraction(1, 10**6), 64, 100)


def test_a_term_above_its_majorant_raises(monkeypatch):
    # at x = 1 the term over z^(m-1) is at most m
    _scale_isqrt(monkeypatch, Fraction(4))
    with pytest.raises(AssertionError, match="exceeds its majorant"):
        criteria._deformed_ratio_sum(_hull(Fraction(1), Fraction(1, 10)), Fraction(1, 10),
                                     1, 1, Fraction(1, 10**6), 64, 100)
