"""Outward-rounded interval helpers and their per-call precision."""

import ast
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv

import qclassfun
from qclassfun import criteria, fusion, intervals, scalars
from qclassfun.errors import DomainError

fractions = st.fractions(min_value=Fraction(-100), max_value=Fraction(100))


def test_precision_yields_one_context_per_bit_count():
    before = iv.prec
    with intervals.precision(37) as ctx, intervals.precision(37) as again:
        assert ctx is again and ctx.prec == 37
        third = intervals.make(Fraction(1, 3), ctx)
        assert third.ctx is ctx and (1 - third * third).ctx is ctx
        default_third = intervals.make(Fraction(1, 3))
        assert default_third.ctx.prec == intervals.DEFAULT_BITS
        assert intervals.width_fraction(default_third) < intervals.width_fraction(third)
    assert iv.prec == before


def test_mixed_context_guard_rejects_arithmetic_across_contexts():
    # conftest's autouse guard; within one context, and with exact operands,
    # arithmetic is untouched
    with intervals.precision(64) as low, intervals.precision(128) as high:
        a, b = intervals.make(Fraction(1, 3), low), intervals.make(Fraction(1, 3), high)
        assert (2 * a + 1 - a / 3).ctx is low and (b**2).ctx is high
        for mixed in (lambda: a + b, lambda: b * a, lambda: a / b, lambda: b - a, lambda: a**b):
            with pytest.raises(AssertionError, match="mixes interval contexts at"):
                mixed()


@pytest.mark.parametrize("bits", [0, -5, intervals.MAX_BITS + 1, 200000])
def test_precision_rejects_bits_outside_range_without_caching(bits):
    cached = intervals._context.cache_info().currsize
    with pytest.raises(DomainError):
        with intervals.precision(bits):
            pass
    assert intervals._context.cache_info().currsize == cached


def test_library_calls_ignore_mpmath_ambient_precision():
    before = iv.prec
    iv.prec = 20
    try:
        root = scalars.solve_fundamental_q(3)
        rho = fusion.rho_spectrum(2, Fraction(1, 3))
        pair = intervals.to_decimal_pair(root)
        assert iv.prec == 20
    finally:
        iv.prec = before
    assert root.ctx.prec == intervals.DEFAULT_BITS
    assert intervals.width_fraction(root) < Fraction(1, 2**120)
    assert intervals.contains(rho[2], Fraction(1, 9))
    assert intervals.width_fraction(rho[2]) < Fraction(1, 2**120)
    assert pair == intervals.to_decimal_pair(root, intervals.decimal_digits(intervals.DEFAULT_BITS))


def test_threads_at_different_precisions_match_sequential_runs():
    # four threads switching every 10 us, so calls at different precisions interleave
    bits = (64, 512, 96, 256)

    def run(bits):
        out = []
        for _ in range(40):
            block = criteria.block_sum_S(1, Fraction(1, 10), Fraction(1, 10**6), bits=bits)
            out.append(intervals.exact_endpoints(block.sum_enclosure()))
            out.append(intervals.exact_endpoints(criteria.threshold_ratio_dimge3(bits=bits)))
        return out

    expected = [run(b) for b in bits]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(bits)) as pool:
            got = list(pool.map(run, bits, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


def _interval_api_uses(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mpmath"):
        return node.module == "mpmath.ctx_iv" or any(a.name in ("iv", "ctx_iv") for a in node.names)
    if isinstance(node, ast.Import):
        return any(a.name == "mpmath.ctx_iv" for a in node.names)
    # `_mpi_` holds an interval's raw endpoints
    return isinstance(node, ast.Attribute) and node.attr in ("iv", "ctx_iv", "_mpi_")


def _prec_writes(tree: ast.AST) -> list[int]:
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Attribute) and target.attr == "prec":
                    targets.append(target.lineno)
    return targets


def test_only_the_context_factory_touches_interval_precision():
    """Precision lives in the interval contexts of `intervals`: no other
    module uses mpmath's interval API or reads an interval's raw endpoints
    (so the fixed-point crossings stay in `intervals`), and only
    `intervals._context` sets a `.prec`."""
    package = Path(qclassfun.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "intervals.py":
            factory = next(node for node in tree.body
                           if isinstance(node, ast.FunctionDef) and node.name == "_context")
            allowed = set(_prec_writes(factory))
            assert allowed and set(_prec_writes(tree)) == allowed
        else:
            assert not any(_interval_api_uses(node) for node in ast.walk(tree)), path.name
            assert not _prec_writes(tree), path.name


@given(fractions)
def test_make_encloses_fractions(f):
    with intervals.precision(64) as ctx:
        assert intervals.contains(intervals.make(f, ctx), f)


def test_make_encloses_decimal_strings():
    with intervals.precision(64) as ctx:
        x = intervals.make("0.3", ctx)
        assert intervals.contains(x, Fraction(3, 10))
        assert intervals.width_fraction(x) > 0  # 0.3 is not binary-exact


def test_endpoints_are_exact_beyond_double_precision():
    with intervals.precision(128) as ctx:
        third = intervals.make(Fraction(1, 3), ctx)
        assert intervals.lower(third) < intervals.upper(third)
        assert intervals.contains(third, Fraction(1, 3))
        # 1e-30 away: inside one double's rounding, far outside 128 bits
        assert not intervals.contains(third, Fraction(1, 3) + Fraction(1, 10**30))
        assert not intervals.contains(third, Fraction(1, 3) - Fraction(1, 10**30))


def test_from_endpoints_and_width():
    with intervals.precision(64) as ctx:
        x = intervals.from_endpoints(Fraction(1, 4), Fraction(3, 4), ctx)
        assert intervals.width_fraction(x) == Fraction(1, 2)
        assert intervals.contains(x, Fraction(1, 2))
        assert not intervals.contains(x, 1)


@given(fractions, fractions)
def test_order_certification(a, b):
    with intervals.precision(64) as ctx:
        x, y = intervals.make(a, ctx), intervals.make(b, ctx)
        if intervals.certainly_lt(x, y):
            assert a < b
        if a < b and intervals.overlaps(x, y):
            # only near-ties may overlap after rounding
            assert b - a < Fraction(1, 10**15)


def test_isqrt_and_inv_guards():
    with intervals.precision(64) as ctx:
        with pytest.raises(DomainError):
            intervals.isqrt(intervals.from_endpoints(-1, 1, ctx))
        with pytest.raises(DomainError):
            intervals.inv(intervals.from_endpoints(-1, 1, ctx))
        assert intervals.contains(intervals.inv(intervals.make(4, ctx)), Fraction(1, 4))


@given(fractions)
def test_decimal_pair_brackets_the_value(f):
    with intervals.precision(64) as ctx:
        lo, hi = intervals.to_decimal_pair(intervals.make(f, ctx), digits=12)
    assert Fraction(lo) <= f <= Fraction(hi)


def test_decimal_pair_unbounded():
    with intervals.precision(64) as ctx:
        top = ctx.mpf([1, "inf"])
        lo, hi = intervals.to_decimal_pair(top, digits=8)
        assert hi == "inf"
        assert Fraction(lo) <= 1


def test_width_at_most_is_exact():
    with intervals.precision(64) as ctx:
        x = intervals.from_endpoints(0, Fraction(1, 8), ctx)
        assert intervals.width_at_most(x, Fraction(1, 8))
        assert not intervals.width_at_most(x, Fraction(1, 9))


# ---------------------------------------------------------------------------
# fixed point: one floor and one ceiling per operation

FIXED_POINT_BITS = [8, 53, 128, 1024]
magnitudes = st.fractions(min_value=0, max_value=Fraction(16), max_denominator=10**40)
signed = st.fractions(min_value=Fraction(-16), max_value=Fraction(16), max_denominator=10**40)


def _floor(value: Fraction, frac_bits: int) -> int:
    return math.floor(value * 2**frac_bits)


def _ceil(value: Fraction, frac_bits: int) -> int:
    return math.ceil(value * 2**frac_bits)


def _fixed(a: Fraction, b: Fraction, frac_bits: int) -> tuple[int, int]:
    """The tightest fixed-point pair around the hull of `a` and `b`."""
    return _floor(min(a, b), frac_bits), _ceil(max(a, b), frac_bits)


def _value(n: int, frac_bits: int) -> Fraction:
    return Fraction(n, 2**frac_bits)


@pytest.mark.parametrize("frac_bits", FIXED_POINT_BITS)
@settings(derandomize=True, max_examples=60)
@given(signed, signed)
def test_fixed_point_crossings_round_outward(frac_bits, a, b):
    with intervals.precision(64) as ctx:
        x = intervals.from_endpoints(min(a, b), max(a, b), ctx)
    lo, hi = intervals.exact_endpoints(x)
    # the floor of the lower endpoint and the ceiling of the upper, exactly
    assert intervals.to_fixed(x, frac_bits) == (_floor(lo, frac_bits), _ceil(hi, frac_bits))
    pair = _fixed(a, b, frac_bits)
    back = intervals.from_fixed(*pair, frac_bits, ctx)
    assert back.ctx is ctx
    assert intervals.contains(back, _value(pair[0], frac_bits))
    assert intervals.contains(back, _value(pair[1], frac_bits))
    # each endpoint moves by at most one 64-bit ulp
    assert intervals.width_fraction(back) <= (
        _value(pair[1] - pair[0], frac_bits) + Fraction(2 * max(abs(a), abs(b), 1), 2**63))


@pytest.mark.parametrize("frac_bits", FIXED_POINT_BITS)
@settings(derandomize=True, max_examples=60)
@given(signed)
def test_a_rational_enters_fixed_point_as_its_floor_and_ceiling(frac_bits, a):
    assert intervals.to_fixed(a, frac_bits) == (_floor(a, frac_bits), _ceil(a, frac_bits))


@pytest.mark.parametrize("frac_bits", FIXED_POINT_BITS)
@settings(derandomize=True, max_examples=60)
@given(magnitudes, magnitudes, magnitudes, magnitudes)
def test_fixed_point_operations_round_once_outward(frac_bits, a, b, c, d):
    x, y = _fixed(a, b, frac_bits), _fixed(c, d, frac_bits)
    x_lo, x_hi = _value(x[0], frac_bits), _value(x[1], frac_bits)
    y_lo, y_hi = _value(y[0], frac_bits), _value(y[1], frac_bits)
    assert intervals.fixed_mul(x, y, frac_bits) == (
        _floor(x_lo * y_lo, frac_bits), _ceil(x_hi * y_hi, frac_bits))
    if y[0] > 0:
        assert intervals.fixed_div(x, y, frac_bits) == (
            _floor(x_lo / y_hi, frac_bits), _ceil(x_hi / y_lo, frac_bits))
    root_lo, root_hi = intervals.fixed_sqrt(x, frac_bits)
    # floor and ceiling of the square roots, certified by squaring exactly
    assert _value(root_lo, frac_bits) ** 2 <= x_lo < _value(root_lo + 1, frac_bits) ** 2
    assert x_hi <= _value(root_hi, frac_bits) ** 2
    assert root_hi == 0 or _value(root_hi - 1, frac_bits) ** 2 < x_hi
