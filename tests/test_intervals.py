"""Outward-rounded interval helpers and their per-call precision."""

import ast
import inspect
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import iv
from mpmath.ctx_iv import ivmpf

import qclassfun
from qclassfun import criteria, dyadic, fusion, intervals, scalars, spectral
from qclassfun.errors import DomainError, Record
from interval_oracle import to_enclosure

fractions = st.fractions(min_value=Fraction(-100), max_value=Fraction(100))


def _endpoints(x) -> tuple[Fraction, Fraction]:
    """The exact endpoints of an mpmath interval."""
    return dyadic.exact_endpoints(to_enclosure(x))


def _width(x) -> Fraction:
    lo, hi = _endpoints(x)
    return hi - lo


def test_precision_yields_one_context_per_bit_count():
    before = iv.prec
    with intervals.precision(37) as ctx, intervals.precision(37) as again:
        assert ctx is again and ctx.prec == 37
        third = intervals.make(Fraction(1, 3), ctx)
        assert third.ctx is ctx and (1 - third * third).ctx is ctx
        default_third = intervals.make(Fraction(1, 3))
        assert default_third.ctx.prec == intervals.DEFAULT_BITS
        assert _width(default_third) < _width(third)
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
        norm = spectral.modular_norm_sq(2, Fraction(1, 3), 0)
        pair = dyadic.to_decimal_pair(root)
        assert iv.prec == 20
    finally:
        iv.prec = before
    for enclosure in (root, norm):
        lo, hi = dyadic.exact_endpoints(enclosure)
        assert enclosure.bits == intervals.DEFAULT_BITS
        assert hi - lo < Fraction(1, 2**120)
    norm_lo, norm_hi = dyadic.exact_endpoints(norm)
    assert norm_lo <= 1 <= norm_hi
    assert pair == dyadic.to_decimal_pair(root, dyadic.decimal_digits(intervals.DEFAULT_BITS))


def test_threads_at_different_precisions_match_sequential_runs():
    # four threads switching every 10 us, so calls at different precisions interleave
    bits = (64, 512, 96, 256)

    def run(bits):
        out = []
        for _ in range(40):
            block = criteria.block_sum_S(1, Fraction(1, 10), Fraction(1, 10**6), bits=bits)
            out.append(dyadic.exact_endpoints(block.sum_enclosure()))
            out.append(dyadic.exact_endpoints(criteria.threshold_ratio_dimge3(bits=bits)))
            # the norm at a non-integer exponent, on ints as the two calls above
            norm = spectral.modular_norm_sq(3, Fraction(1, 3), Fraction(1, 3), bits)
            out.append(dyadic.exact_endpoints(norm))
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
        lo, hi = _endpoints(intervals.make(f, ctx))
    assert lo <= f <= hi


def test_make_encloses_decimal_strings():
    with intervals.precision(64) as ctx:
        lo, hi = _endpoints(intervals.make("0.3", ctx))
    assert lo < Fraction(3, 10) < hi  # 0.3 is not binary-exact


def test_endpoints_are_exact_beyond_double_precision():
    with intervals.precision(128) as ctx:
        lo, hi = _endpoints(intervals.make(Fraction(1, 3), ctx))
    assert lo < Fraction(1, 3) < hi
    # 1e-30 away: inside one double's rounding, far outside 128 bits
    assert Fraction(1, 3) - Fraction(1, 10**30) < lo and hi < Fraction(1, 3) + Fraction(1, 10**30)


@given(fractions)
def test_decimal_pair_brackets_the_value(f):
    with intervals.precision(64) as ctx:
        x = to_enclosure(intervals.make(f, ctx))
    lo, hi = dyadic.to_decimal_pair(x, digits=12)
    assert Fraction(lo) <= f <= Fraction(hi)


def test_decimal_pair_is_dyadics_and_an_unbounded_interval_has_no_enclosure():
    # an Enclosure is bounded, so the oracle's reading refuses an infinite end
    assert intervals.to_decimal_pair is dyadic.to_decimal_pair
    with intervals.precision(64) as ctx:
        with pytest.raises(ValueError, match="no infinite or NaN end"):
            to_enclosure(ctx.mpf([1, "inf"]))


# ---------------------------------------------------------------------------
# the enclosure boundary: exact values or Enclosures in, Enclosures out

_FAMILY = fusion.su2_ladder(3, q=Fraction(1, 5))
_FREE = fusion.free_unitary(2, q=Fraction(1, 10))
_OP = spectral.build_jacobi(4, Fraction(1, 2))
_BLOCK = criteria.block_sum_S(1, Fraction(1, 10), Fraction(1, 1000))

#: One small valid call of each public function of the four modules, except
#: ``LaurentScalar.evaluate``, the one method that returns an mpmath interval.
BOUNDARY_CALLS = {
    "fusion.exact_fraction": lambda: fusion.exact_fraction("1/3"),
    "fusion.su2_ladder": lambda: fusion.su2_ladder(3, q=Fraction(1, 5)),
    "fusion.so3_ladder": lambda: fusion.so3_ladder(4, dim_q_fund=5),
    "fusion.free_unitary": lambda: fusion.free_unitary(2, q=Fraction(1, 10)),
    "fusion.check_label": lambda: fusion.check_label(2, _FAMILY),
    "fusion.label_sort_key": lambda: fusion.label_sort_key("AB"),
    "fusion.all_words": lambda: list(fusion.all_words(2)),
    "fusion.alternating_word": lambda: fusion.alternating_word(3),
    "fusion.tensor_fundamental": lambda: fusion.tensor_fundamental(2, _FAMILY),
    "fusion.tensor_free": lambda: fusion.tensor_free("AB", "BA"),
    "fusion.factorize": lambda: fusion.factorize("ABBA"),
    "fusion.tensor_reduce": lambda: fusion.tensor_reduce([1, 1], _FAMILY),
    "fusion.invariant_multiplicity": lambda: fusion.invariant_multiplicity([1, 1], _FAMILY),
    "fusion.dim": lambda: fusion.dim(2, _FAMILY, "quantum"),
    "fusion.scaled_dim": lambda: fusion.scaled_dim("AB", _FREE, "quantum"),
    "fusion.scaled_dims": lambda: fusion.scaled_dims(["", "AB"], _FREE, "quantum"),
    "fusion.check_ladder": lambda: fusion.check_ladder(2, Fraction(1, 3)),
    "fusion.rho_spectrum": lambda: list(fusion.rho_spectrum(2, Fraction(1, 3))),
    "spectral.trace_balanced": lambda: spectral.trace_balanced(2, Fraction(1, 3)),
    "spectral.modular_norm_sq": lambda: spectral.modular_norm_sq(2, Fraction(1, 3), Fraction(1, 3)),
    "spectral.modular_eigencoefficients":
        lambda: spectral.modular_eigencoefficients(2, Fraction(1, 3), Fraction(1, 3)),
    "spectral.build_jacobi": lambda: spectral.build_jacobi(4, Fraction(1, 2)),
    "spectral.krylov_rank": lambda: spectral.krylov_rank(_OP),
    "spectral.matrix_commutant_dim":
        lambda: spectral.matrix_commutant_dim(3, [Fraction(1, 2), Fraction(3, 4)]),
    "spectral.commutant_dim": lambda: spectral.commutant_dim(_OP),
    "spectral.min_eigenvalue_gap": lambda: spectral.min_eigenvalue_gap(_OP),
    "spectral.suq2_relation_residuals":
        lambda: spectral.suq2_relation_residuals(4, Fraction(1, 2), Fraction(1, 3)),
    "criteria.ratio_exact": lambda: criteria.ratio_exact(2, _FAMILY),
    "criteria.verify_decay": lambda: criteria.verify_decay(_FAMILY, 5),
    "criteria.quasi_split_sum_ladder":
        lambda: criteria.quasi_split_sum_ladder(_FAMILY, Fraction(1, 1000)),
    "criteria.block_sum_S": lambda: criteria.block_sum_S(1, Fraction(1, 10), Fraction(1, 1000)),
    "criteria.total_sum_free": lambda: criteria.total_sum_free(_BLOCK),
    "criteria.bound_S_dim2": lambda: criteria.bound_S_dim2(Fraction(1, 10)),
    "criteria.bound_S_dimge3": lambda: criteria.bound_S_dimge3(Fraction(1, 2), Fraction(1, 10)),
    "criteria.threshold_dim2": lambda: criteria.threshold_dim2(Fraction(1, 100)),
    "criteria.threshold_ratio_dimge3": lambda: criteria.threshold_ratio_dimge3(),
    "criteria.threshold_remark": lambda: criteria.threshold_remark(Fraction(1, 100)),
    "criteria.kac_part": lambda: criteria.kac_part(_FAMILY, 5),
    "criteria.masa_verdict": lambda: criteria.masa_verdict(_FREE, n_max=5),
    "scalars.q_number": lambda: scalars.q_number(3),
    "scalars.fixed_fundamental_q": lambda: scalars.fixed_fundamental_q((3 << 64, 3 << 64), 64),
    "scalars.solve_fundamental_q": lambda: scalars.solve_fundamental_q(3),
}


def _public_functions() -> set[str]:
    names = set()
    for module in (fusion, spectral, criteria, scalars):
        short = module.__name__.rsplit(".", 1)[1]
        names.update(f"{short}.{name}" for name, value in vars(module).items()
                     if inspect.isfunction(value) and value.__module__ == module.__name__
                     and not name.startswith("_"))
    return names


def _held(value):
    """`value` and everything it holds, through containers and records."""
    yield value
    if isinstance(value, dict):
        children = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        children = value
    elif isinstance(value, Record):
        children = [getattr(value, name) for name in type(value).__slots__]
    elif isinstance(value, scalars.LaurentScalar):
        children = [value.coeffs]
    else:
        children = []
    for child in children:
        yield from _held(child)


def test_the_walker_reaches_the_enclosures_inside_a_record():
    held = list(_held(criteria.block_sum_S(1, Fraction(1, 10), Fraction(1, 1000))))
    assert isinstance(held[0], criteria.SeriesResult)
    assert any(isinstance(value, dyadic.Enclosure) for value in held)


def test_the_boundary_calls_cover_every_public_function():
    assert set(BOUNDARY_CALLS) == _public_functions()


@pytest.mark.parametrize("name", sorted(BOUNDARY_CALLS))
def test_no_public_function_returns_an_mpmath_interval(name):
    result = BOUNDARY_CALLS[name]()
    assert not any(isinstance(value, ivmpf) for value in _held(result))
