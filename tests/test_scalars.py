"""Deformed integers, their certified evaluation, and the root solver."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qclassfun import criteria, dyadic
from qclassfun.errors import DomainError
from qclassfun.fusion import free_unitary, so3_ladder, su2_ladder
from qclassfun.scalars import LaurentScalar, fixed_fundamental_q, q_number, solve_fundamental_q
from interval_oracle import context, make, to_enclosure

small_ints = st.integers(min_value=-6, max_value=6)
coeff_maps = st.dictionaries(small_ints, st.integers(min_value=-9, max_value=9), max_size=6)
rational_q = st.fractions(min_value=Fraction(1, 100), max_value=Fraction(1, 1))


def deformed_integer(m: int, q: Fraction) -> Fraction:
    """Exact ``[m]_q`` from the quotient form, independent of the sum form."""
    if q == 1:
        return Fraction(m)
    return (q**-m - q**m) / (q**-1 - q)


def laurent_value(coeffs: dict[int, int], q: Fraction) -> Fraction:
    return sum((c * q**e for e, c in coeffs.items()), Fraction(0))


def _holds(enclosure: dyadic.Enclosure, value) -> bool:
    lo, hi = dyadic.exact_endpoints(enclosure)
    return lo <= value <= hi


def _width(enclosure: dyadic.Enclosure) -> Fraction:
    lo, hi = dyadic.exact_endpoints(enclosure)
    return hi - lo


def _hull(lo: Fraction, hi: Fraction, ctx):
    """The mpmath interval in `ctx` from the lower end of the enclosure of
    `lo` to the upper end of that of `hi`."""
    return ctx.mpf([make(lo, ctx).a, make(hi, ctx).b])


def test_q_number_zero_is_empty_sum():
    assert q_number(0).coeffs == {}


def test_q_number_two():
    assert q_number(2).coeffs == {-1: 1, 1: 1}


def test_q_number_four_expands_the_quotient():
    # (q^-4 - q^4)/(q^-1 - q) expanded at n = 4
    assert q_number(4).coeffs == {-3: 1, -1: 1, 1: 1, 3: 1}


def test_q_number_rejects_negative():
    with pytest.raises(DomainError):
        q_number(-1)


@given(st.integers(min_value=0, max_value=64))
def test_q_number_palindromic(n):
    coeffs = q_number(n).coeffs
    assert coeffs == {e: 1 for e in range(1 - n, n, 2)}
    assert {-e: c for e, c in coeffs.items()} == coeffs


@given(st.integers(min_value=1, max_value=48), rational_q)
def test_q_number_recursion(n, q):
    # [2][n] = [n-1] + [n+1] holds for the oracle, and evaluation encloses it
    assert deformed_integer(2, q) * deformed_integer(n, q) == \
        deformed_integer(n - 1, q) + deformed_integer(n + 1, q)
    for m in (n - 1, n, n + 1):
        enclosed = q_number(m).evaluate(q)
        exact = deformed_integer(m, q)
        assert _holds(enclosed, exact)
        assert _width(enclosed) <= exact / 10**20


def test_eval_q_number_examples():
    assert _holds(q_number(2).evaluate(Fraction(1, 2)), Fraction(5, 2))
    assert _holds(q_number(3).evaluate(1), 3)
    # direct evaluation of the sum form at 0.3
    expected = deformed_integer(5, Fraction(3, 10))
    assert expected == Fraction(3, 10) ** -4 + Fraction(3, 10) ** -2 + 1 \
        + Fraction(3, 10) ** 2 + Fraction(3, 10) ** 4
    enclosed = q_number(5).evaluate("0.3")
    assert _holds(enclosed, expected)
    assert _width(enclosed) <= Fraction(1, 10**20)


def test_eval_at_one_encloses_n():
    for n in range(65):
        assert _holds(q_number(n).evaluate(1), n)


def test_eval_at_zero_refuses_negative_exponents():
    with pytest.raises(DomainError, match="negative exponents at q = 0"):
        q_number(2).evaluate(0)
    # pure nonnegative exponents are fine at zero
    assert _holds(LaurentScalar({0: 7, 3: -2}).evaluate(0), 7)


@pytest.mark.parametrize("bits", [1, 2, 53, 128, 1024])
@given(coeff_maps, st.fractions(min_value=-4, max_value=4).filter(bool))
@example({0: 1, 4: 1}, Fraction(500671, 23704600))
@example({-3: -2, 0: 5, 2: 7}, Fraction(-1, 3))
def test_eval_is_the_tightest_enclosure_of_the_exact_value(bits, coeffs, q):
    # signed coefficients and a negative q: the exact Fraction sum rounded once
    exact = laurent_value(coeffs, q)
    enclosure = LaurentScalar(coeffs).evaluate(q, bits)
    assert enclosure == dyadic.Enclosure(
        *dyadic.round_quotient(exact.numerator, exact.denominator, bits), bits)


def test_eval_refuses_a_float_and_an_mpmath_interval():
    with pytest.raises(TypeError, match="for exactness"):
        q_number(2).evaluate(0.5)
    with pytest.raises(DomainError, match="need a finite rational"):
        q_number(2).evaluate(make(Fraction(1, 2), context(64)))


def test_canonical_form_drops_zero_coefficients():
    assert LaurentScalar({2: 0, 1: 3}).coeffs == {1: 3}
    assert LaurentScalar({1: 0}).coeffs == {}


def test_solve_fundamental_q_examples():
    assert _holds(solve_fundamental_q(2, bits=128), 1)
    assert _holds(solve_fundamental_q(Fraction(5, 2), bits=128), Fraction(1, 2))
    # (3 - sqrt(5))/2 up to enclosure
    lo, hi = dyadic.exact_endpoints(solve_fundamental_q(3, bits=128))
    assert Fraction("0.3819660112501051") <= lo and hi <= Fraction("0.3819660112501052")


@given(st.fractions(min_value=Fraction(2), max_value=Fraction(50)))
def test_solve_fundamental_q_inverts(d):
    lo, hi = dyadic.exact_endpoints(solve_fundamental_q(d, bits=128))
    assert 0 < lo and hi <= 1
    q = _hull(lo, hi, context(128))
    assert _holds(to_enclosure(q + 1 / q), d)


def test_solve_fundamental_q_tiny_root_keeps_its_sign():
    # d = q + 1/q with q = 1e-25: d - sqrt(d^2 - 4) would cancel to an
    # enclosure of zero at 128 bits
    q = Fraction(1, 10**25)
    root = solve_fundamental_q(q + 1 / q, bits=128)
    assert dyadic.exact_endpoints(root)[0] > 0
    assert _holds(root, q)


def test_solve_fundamental_q_domain():
    with pytest.raises(DomainError):
        solve_fundamental_q(Fraction(19, 10))
    straddling = dyadic.rational_enclosure(Fraction(199, 100), Fraction(3), 64)
    with pytest.raises(DomainError):
        solve_fundamental_q(straddling)


FIXED_BITS = (8, 64, 128, 512)


def _seeded_d(rng: random.Random) -> Fraction:
    """A rational in [2, 10^24], its size spread over every decade."""
    den = rng.randint(1, 10**6)
    return min(2 + Fraction(rng.randint(0, 10 ** rng.randint(0, 24) * den), den), Fraction(10**24))


def _root_oracle(d: Fraction, frac_bits: int) -> mpmath.mpf:
    """The root in (0, 1] of x + 1/x = d from the cancelling form
    (d - sqrt(d^2 - 4))/2, at 60 digits past the fixed point's resolution
    and the up to 48 digits the subtraction cancels."""
    with mpmath.workdps(60 + int(frac_bits * 0.302) + 50):
        dm = mpmath.mpf(d.numerator) / d.denominator
        return (dm - mpmath.sqrt(dm * dm - 4)) / 2


@pytest.mark.parametrize("frac_bits", FIXED_BITS)
@pytest.mark.parametrize("seed", range(4))
def test_fixed_fundamental_q_encloses_the_root(seed, frac_bits):
    rng = random.Random(seed)
    for d in [_seeded_d(rng) for _ in range(10)]:
        lo, hi = fixed_fundamental_q(dyadic.to_fixed(d, frac_bits), frac_bits)
        root = _root_oracle(d, frac_bits)
        with mpmath.workdps(60 + int(frac_bits * 0.302) + 50):
            assert mpmath.ldexp(lo, -frac_bits) <= root <= mpmath.ldexp(hi, -frac_bits), d
        assert 0 <= lo <= hi <= 1 << frac_bits


def _mpmath_root(d: Fraction, bits: int):
    """The root as mpmath's interval arithmetic encloses ``2/(d + sqrt(d^2 - 4))``
    at `bits`, or None where `d` enclosed at `bits` reaches below 2."""
    ctx = context(bits)
    x = make(d, ctx)
    return None if x.a < 2 else 2 / (x + ctx.sqrt(x * x - 4))


@pytest.mark.parametrize("bits", [1, 8, 64, 128, 512, 1024])
def test_solve_fundamental_q_holds_the_root_and_meets_the_mpmath_enclosure(bits):
    rng = random.Random(bits)
    for d in [Fraction(2), Fraction(3), Fraction(7, 2), *(_seeded_d(rng) for _ in range(10))]:
        root = solve_fundamental_q(d, bits=bits)
        assert root.bits == bits
        # bits kept below the root's leading bit, however small the root
        lo, hi = dyadic.exact_endpoints(root)
        assert 0 < lo and hi - lo <= lo * Fraction(8, 2**bits), d
        value = _root_oracle(d, 3 * bits)
        with mpmath.workdps(60 + int(3 * bits * 0.302) + 50):
            assert mpmath.ldexp(*root.lo) <= value <= mpmath.ldexp(*root.hi), d
        old = _mpmath_root(d, bits)
        if old is not None:
            old_lo, old_hi = dyadic.exact_endpoints(to_enclosure(old))
            assert lo <= old_hi and old_lo <= hi, d


def test_solve_fundamental_q_reads_an_enclosure_exactly():
    d = dyadic.rational_enclosure(Fraction(3), Fraction(7, 2), 64)
    lo, hi = dyadic.exact_endpoints(solve_fundamental_q(d, bits=64))
    for end in dyadic.exact_endpoints(d):
        end_lo, end_hi = dyadic.exact_endpoints(solve_fundamental_q(end, bits=64))
        assert lo <= end_lo and end_hi <= hi


@pytest.mark.parametrize("frac_bits", FIXED_BITS)
def test_fixed_fundamental_q_at_two_is_exactly_one(frac_bits):
    one = 1 << frac_bits
    assert fixed_fundamental_q((2 * one, 2 * one), frac_bits) == (one, one)


@pytest.mark.parametrize("frac_bits", [128, 512])
def test_fixed_fundamental_q_tiny_root_keeps_its_sign(frac_bits):
    q = Fraction(1, 10**25)
    lo, hi = fixed_fundamental_q(dyadic.to_fixed(q + 1 / q, frac_bits), frac_bits)
    assert 0 < lo
    assert Fraction(lo, 1 << frac_bits) <= q <= Fraction(hi, 1 << frac_bits)


@pytest.mark.parametrize("family", [
    su2_ladder(2, q=Fraction(1, 5)), so3_ladder(3, dim_q_fund=Fraction(7, 2)),
    free_unitary(2, q=Fraction(1, 5)),
], ids=["o-plus N=2", "so3 N=3", "u-plus dim=2"])
@pytest.mark.parametrize("frac_bits", FIXED_BITS)
def test_kernel_classical_root_is_exactly_one_at_the_unit_families(family, frac_bits):
    # the kernel's unit branch needs x to be exactly (1 << p, 1 << p)
    roots, y_low = criteria._fundamental_roots(family)
    x, y = roots(frac_bits)
    assert x == (1 << frac_bits, 1 << frac_bits)
    assert y[1] < 1 << frac_bits and y_low * (1 << frac_bits) <= y[1]
