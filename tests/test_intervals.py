"""The tests' interval oracle, the harness's precision shim, and the
enclosure boundary: exact values or Enclosures in, Enclosures out."""

import ast
import inspect
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import iv
from mpmath.ctx_iv import ivmpf

import qclassfun
from qclassfun import bicrossed, criteria, dyadic, fusion, intervals, scalars, spectral
from qclassfun.errors import DomainError, Record
from interval_oracle import context, make, to_enclosure

fractions = st.fractions(min_value=Fraction(-100), max_value=Fraction(100))


def _endpoints(x) -> tuple[Fraction, Fraction]:
    """The exact endpoints of an mpmath interval."""
    return dyadic.exact_endpoints(to_enclosure(x))


def _width(x) -> Fraction:
    lo, hi = _endpoints(x)
    return hi - lo


def test_the_oracle_keeps_one_context_per_bit_count():
    before = iv.prec
    ctx = context(37)
    assert context(37) is ctx and ctx.prec == 37
    third = make(Fraction(1, 3), ctx)
    assert third.ctx is ctx and (1 - third * third).ctx is ctx
    default_third = make(Fraction(1, 3), context(intervals.DEFAULT_BITS))
    assert _width(default_third) < _width(third)
    assert iv.prec == before


def test_mixed_context_guard_rejects_arithmetic_across_contexts():
    # conftest's autouse guard; within one context, and with exact operands,
    # arithmetic is untouched
    low, high = context(64), context(128)
    a, b = make(Fraction(1, 3), low), make(Fraction(1, 3), high)
    assert (2 * a + 1 - a / 3).ctx is low and (b**2).ctx is high
    for mixed in (lambda: a + b, lambda: b * a, lambda: a / b, lambda: b - a, lambda: a**b):
        with pytest.raises(AssertionError, match="mixes interval contexts at"):
            mixed()


@pytest.mark.parametrize("bits", [0, -5, intervals.MAX_BITS + 1, 200000, True, 64.0])
def test_precision_rejects_bits_outside_range(bits):
    with pytest.raises(DomainError):
        with intervals.precision(bits):
            pass


def test_precision_checks_its_bits_and_yields_nothing():
    # kept only for the benchmark harness, which counts the scopes it enters
    with intervals.precision(intervals.MAX_BITS) as value:
        assert value is None


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


def test_no_module_touches_interval_precision():
    """No module of the package uses mpmath's interval API, reads an
    interval's raw endpoints or sets a `.prec`: the interval contexts live
    in the tests' oracle."""
    package = Path(qclassfun.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(_interval_api_uses(node) for node in ast.walk(tree)), path.name
        assert not _prec_writes(tree), path.name


@given(fractions)
def test_make_encloses_fractions(f):
    lo, hi = _endpoints(make(f, context(64)))
    assert lo <= f <= hi


def test_make_encloses_decimal_strings():
    lo, hi = _endpoints(make("0.3", context(64)))
    assert lo < Fraction(3, 10) < hi  # 0.3 is not binary-exact


def test_endpoints_are_exact_beyond_double_precision():
    lo, hi = _endpoints(make(Fraction(1, 3), context(128)))
    assert lo < Fraction(1, 3) < hi
    # 1e-30 away: inside one double's rounding, far outside 128 bits
    assert Fraction(1, 3) - Fraction(1, 10**30) < lo and hi < Fraction(1, 3) + Fraction(1, 10**30)


@given(fractions)
def test_decimal_pair_brackets_the_value(f):
    x = to_enclosure(make(f, context(64)))
    lo, hi = dyadic.to_decimal_pair(x, digits=12)
    assert Fraction(lo) <= f <= Fraction(hi)


def test_decimal_pair_is_dyadics_and_an_unbounded_interval_has_no_enclosure():
    # an Enclosure is bounded, so the oracle's reading refuses an infinite end
    assert intervals.to_decimal_pair is dyadic.to_decimal_pair
    with pytest.raises(ValueError, match="no infinite or NaN end"):
        to_enclosure(context(64).mpf([1, "inf"]))


# ---------------------------------------------------------------------------
# the enclosure boundary: exact values or Enclosures in, Enclosures out

_FAMILY = fusion.su2_ladder(3, q=Fraction(1, 5))
_FREE = fusion.free_unitary(2, q=Fraction(1, 10))
_OP = spectral.build_jacobi(4, Fraction(1, 2))
_BLOCK = criteria.block_sum_S(1, Fraction(1, 10), Fraction(1, 1000))

#: One small valid call of each public function of the four modules, and of
#: ``LaurentScalar.evaluate``, the one public method among them.
BOUNDARY_CALLS = {
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
    "fusion.scaled_dims": lambda: fusion.scaled_dims(["", "AB"], _FREE),
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
    "criteria.masa_verdict": lambda: criteria.masa_verdict(_FREE),
    "scalars.q_number": lambda: scalars.q_number(3),
    "scalars.fixed_fundamental_q": lambda: scalars.fixed_fundamental_q((3 << 64, 3 << 64), 64),
    "scalars.solve_fundamental_q": lambda: scalars.solve_fundamental_q(3),
    "scalars.LaurentScalar.evaluate": lambda: scalars.q_number(3).evaluate(Fraction(1, 3)),
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
    assert set(BOUNDARY_CALLS) == _public_functions() | {"scalars.LaurentScalar.evaluate"}


@pytest.mark.parametrize("name", sorted(BOUNDARY_CALLS))
def test_no_public_function_returns_an_mpmath_interval(name):
    result = BOUNDARY_CALLS[name]()
    assert not any(isinstance(value, ivmpf) for value in _held(result))


# ---------------------------------------------------------------------------
# the one reader: every rational and every count from a caller


_THIRD = Fraction(1, 3)
_HALF_IRRATIONAL = bicrossed.BicrossedParams(Fraction(1, 2), bicrossed.RatioIrrational())
_MINUS_HALF_IRRATIONAL = bicrossed.BicrossedParams(Fraction(-1, 2), bicrossed.RatioIrrational())

#: Each public function that reads a rational, once per rational argument:
#: `x` in that argument and valid values in the others.
RATIONAL_CALLS = {
    "fusion.su2_ladder q": lambda x: fusion.su2_ladder(3, q=x),
    "fusion.su2_ladder dim_q_fund": lambda x: fusion.su2_ladder(3, dim_q_fund=x),
    "fusion.so3_ladder dim_q_fund": lambda x: fusion.so3_ladder(4, dim_q_fund=x),
    "fusion.free_unitary q": lambda x: fusion.free_unitary(2, q=x),
    "fusion.free_unitary dim_q_fund": lambda x: fusion.free_unitary(2, dim_q_fund=x),
    "fusion.check_ladder q": lambda x: fusion.check_ladder(2, x),
    "fusion.rho_spectrum q": lambda x: list(fusion.rho_spectrum(2, x)),
    "spectral.trace_balanced q": lambda x: spectral.trace_balanced(2, x),
    "spectral.modular_norm_sq q": lambda x: spectral.modular_norm_sq(2, x, _THIRD),
    "spectral.modular_norm_sq b": lambda x: spectral.modular_norm_sq(2, _THIRD, x),
    "spectral.modular_eigencoefficients q":
        lambda x: spectral.modular_eigencoefficients(2, x, _THIRD),
    "spectral.modular_eigencoefficients t":
        lambda x: spectral.modular_eigencoefficients(2, _THIRD, x),
    "spectral.build_jacobi q": lambda x: spectral.build_jacobi(4, x),
    "spectral.matrix_commutant_dim squares":
        lambda x: spectral.matrix_commutant_dim(3, [Fraction(1, 2), x]),
    "spectral.suq2_relation_residuals q": lambda x: spectral.suq2_relation_residuals(4, x),
    "spectral.suq2_relation_residuals phase":
        lambda x: spectral.suq2_relation_residuals(4, Fraction(1, 2), x),
    "criteria.quasi_split_sum_ladder tol": lambda x: criteria.quasi_split_sum_ladder(_FAMILY, x),
    "criteria.block_sum_S q_c": lambda x: criteria.block_sum_S(x, Fraction(1, 10), _THIRD),
    "criteria.block_sum_S q_q": lambda x: criteria.block_sum_S(1, x, _THIRD),
    "criteria.block_sum_S tol": lambda x: criteria.block_sum_S(1, Fraction(1, 10), x),
    "criteria.bound_S_dim2 q": lambda x: criteria.bound_S_dim2(x),
    "criteria.bound_S_dimge3 q_c": lambda x: criteria.bound_S_dimge3(x, Fraction(1, 10)),
    "criteria.bound_S_dimge3 q_q": lambda x: criteria.bound_S_dimge3(Fraction(1, 2), x),
    "criteria.threshold_dim2 tol": lambda x: criteria.threshold_dim2(x),
    "criteria.threshold_remark tol": lambda x: criteria.threshold_remark(x),
    "criteria.masa_verdict ladder tol": lambda x: criteria.masa_verdict(_FAMILY, x),
    "criteria.masa_verdict free tol": lambda x: criteria.masa_verdict(_FREE, x),
    "scalars.solve_fundamental_q d": lambda x: scalars.solve_fundamental_q(x),
    "scalars.LaurentScalar.evaluate q": lambda x: scalars.q_number(2).evaluate(x),
    "bicrossed.RatioRational ratio": lambda x: bicrossed.RatioRational(x),
    "bicrossed.BicrossedParams q":
        lambda x: bicrossed.BicrossedParams(x, bicrossed.RatioIrrational()),
    "bicrossed.ScalingTime r": lambda x: bicrossed.ScalingTime(x, 0),
    "bicrossed.ScalingTime s": lambda x: bicrossed.ScalingTime(0, x),
    "bicrossed.iso_necessary nu_ratio":
        lambda x: bicrossed.iso_necessary(_HALF_IRRATIONAL, _MINUS_HALF_IRRATIONAL, x),
}

#: Text that is no finite rational, and text past the 24-digit budget: 25
#: digits, and an exponent that ``Fraction`` would expand to 3 million digits.
MALFORMED_TEXT = ["abc", "1/0", "nan", "inf"]
OVER_BUDGET_TEXT = ["1/" + "1" * 24, "1e-3000000"]


def test_the_rational_calls_take_valid_values():
    for name, call in RATIONAL_CALLS.items():
        call(5 if name.endswith((" dim_q_fund", " d")) else Fraction(1, 7))


@pytest.mark.parametrize("name", sorted(RATIONAL_CALLS))
def test_every_rational_argument_is_read_by_the_one_reader(name):
    call = RATIONAL_CALLS[name]
    for value in (0.5, 1.0, float("nan"), True, False):
        with pytest.raises(TypeError, match="for exactness"):
            call(value)
    for values, message in ((MALFORMED_TEXT, "need a finite rational"),
                            (OVER_BUDGET_TEXT, "must be in 1..24 digits")):
        for value in values:
            start = time.process_time()
            with pytest.raises(DomainError, match=message):
                call(value)
            assert time.process_time() - start < 1, value


_KAC = fusion.su2_ladder(3)
_FREE_KAC = fusion.free_unitary(2)

#: Each public function that takes a count, once per count argument and per
#: early exit (a Kac family's series ends before it is summed).
COUNT_CALLS = {
    "fusion.su2_ladder dim_fund": lambda k: fusion.su2_ladder(k),
    "fusion.so3_ladder dim_fund": lambda k: fusion.so3_ladder(k),
    "fusion.free_unitary dim_fund": lambda k: fusion.free_unitary(k, q=Fraction(1, 10)),
    "fusion.check_ladder n": lambda k: fusion.check_ladder(k, _THIRD),
    "fusion.rho_spectrum n": lambda k: list(fusion.rho_spectrum(k, _THIRD)),
    "spectral.trace_balanced n": lambda k: spectral.trace_balanced(k, _THIRD),
    "spectral.modular_norm_sq n": lambda k: spectral.modular_norm_sq(k, _THIRD, _THIRD),
    "spectral.modular_norm_sq bits": lambda k: spectral.modular_norm_sq(2, _THIRD, _THIRD, k),
    "spectral.modular_eigencoefficients n":
        lambda k: spectral.modular_eigencoefficients(k, _THIRD, _THIRD),
    "spectral.modular_eigencoefficients bits":
        lambda k: spectral.modular_eigencoefficients(2, _THIRD, _THIRD, k),
    "spectral.build_jacobi size": lambda k: spectral.build_jacobi(k, _THIRD),
    "spectral.matrix_commutant_dim size":
        lambda k: spectral.matrix_commutant_dim(k, [Fraction(1, 2)] * 3),
    "spectral.suq2_relation_residuals size":
        lambda k: spectral.suq2_relation_residuals(k, _THIRD),
    "criteria.verify_decay n_max": lambda k: criteria.verify_decay(_FAMILY, k),
    "criteria.kac_part n_max": lambda k: criteria.kac_part(_FAMILY, k),
    "criteria.quasi_split_sum_ladder bits":
        lambda k: criteria.quasi_split_sum_ladder(_FAMILY, _THIRD, bits=k),
    "criteria.quasi_split_sum_ladder Kac bits":
        lambda k: criteria.quasi_split_sum_ladder(_KAC, _THIRD, bits=k),
    "criteria.quasi_split_sum_ladder max_terms":
        lambda k: criteria.quasi_split_sum_ladder(_FAMILY, _THIRD, max_terms=k),
    "criteria.quasi_split_sum_ladder Kac max_terms":
        lambda k: criteria.quasi_split_sum_ladder(_KAC, _THIRD, max_terms=k),
    "criteria.block_sum_S bits": lambda k: criteria.block_sum_S(1, Fraction(1, 10), _THIRD, k),
    "criteria.block_sum_S Kac bits": lambda k: criteria.block_sum_S(1, 1, _THIRD, k),
    "criteria.block_sum_S max_terms":
        lambda k: criteria.block_sum_S(1, Fraction(1, 10), _THIRD, max_terms=k),
    "criteria.bound_S_dim2 bits": lambda k: criteria.bound_S_dim2(Fraction(1, 10), k),
    "criteria.bound_S_dimge3 bits":
        lambda k: criteria.bound_S_dimge3(Fraction(1, 2), Fraction(1, 10), k),
    "criteria.threshold_dim2 bits": lambda k: criteria.threshold_dim2(_THIRD, k),
    "criteria.threshold_remark bits": lambda k: criteria.threshold_remark(_THIRD, k),
    "criteria.threshold_ratio_dimge3 bits": lambda k: criteria.threshold_ratio_dimge3(k),
    "criteria.masa_verdict bits": lambda k: criteria.masa_verdict(_FAMILY, bits=k),
    "criteria.masa_verdict free Kac bits": lambda k: criteria.masa_verdict(_FREE_KAC, bits=k),
    "criteria.masa_verdict max_terms": lambda k: criteria.masa_verdict(_FAMILY, max_terms=k),
    "criteria.masa_verdict free Kac max_terms":
        lambda k: criteria.masa_verdict(_FREE_KAC, max_terms=k),
    "scalars.solve_fundamental_q bits": lambda k: scalars.solve_fundamental_q(3, k),
    "scalars.LaurentScalar.evaluate bits": lambda k: scalars.q_number(2).evaluate(_THIRD, k),
}


def test_the_count_calls_cover_every_bits_n_max_max_terms_and_size_argument():
    counts = {"bits", "n_max", "max_terms", "size"}
    takers = {f"{module.__name__.rsplit('.', 1)[1]}.{name} {arg}"
              for module in (fusion, spectral, criteria, scalars)
              for name, value in vars(module).items()
              if inspect.isfunction(value) and value.__module__ == module.__name__
              and not name.startswith("_")
              for arg in inspect.signature(value).parameters if arg in counts}
    assert takers <= set(COUNT_CALLS)


def test_the_count_calls_take_valid_values():
    for name, call in COUNT_CALLS.items():
        call(3 if "dim_fund" in name else 64 if "bits" in name else 4 if "size" in name else 2)


@pytest.mark.parametrize("name", sorted(COUNT_CALLS))
def test_every_count_refuses_a_bool_a_non_int_and_a_negative_value(name):
    # bits=True passed, bits=64.0 died in a shift, and a negative
    # n_max answered silently: [] from kac_part, True from verify_decay
    for value in (True, 64.0, "64", -1):
        with pytest.raises(DomainError):
            COUNT_CALLS[name](value)
