"""Modular character norms and the finite weighted-shift model."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.ctx_iv import MPIntervalContext

from qclassfun import dyadic, spectral
from qclassfun.dyadic import Enclosure
from qclassfun.errors import BudgetError, DomainError
from qclassfun.spectral import (
    MAX_COMMUTANT_SIZE,
    JacobiOperator,
    _count_below,
    _exact_count,
    _float_bounds,
    _ladder_sum,
    build_jacobi,
    commutant_dim,
    krylov_rank,
    matrix_commutant_dim,
    min_eigenvalue_gap,
    modular_eigencoefficients,
    modular_norm_sq,
    suq2_relation_residuals,
    trace_balanced,
)
from interval_oracle import context, to_enclosure

GRID_Q = tuple(Fraction(k, 10) for k in (1, 3, 5, 7, 9))
GRID_M = (2, 4, 8, 16)

#: Above this size the Kronecker SVD oracle (O(M^6), 44 s of CPU at M = 64)
#: gives way to the multiplicities of the float eigenvalues.
SVD_ORACLE_MAX_SIZE = 32

#: Relative cutoff of the float oracles' rank and multiplicity decisions.
RANK_RTOL = 1e-8


def rho_spectrum_exact(n: int, q: Fraction) -> list[Fraction]:
    """Exact rational oracle for :func:`qclassfun.fusion.rho_spectrum`."""
    return [q ** (-n + 2 * k) for k in range(n + 1)]


# ---------------------------------------------------------------------------
# modular norms


def _holds(enclosure: Enclosure, value) -> bool:
    lo, hi = dyadic.exact_endpoints(enclosure)
    return lo <= value <= hi


def test_norm_one_at_zero_for_any_balanced_spectrum():
    for n in (0, 1, 5, 12):
        assert _holds(modular_norm_sq(n, Fraction(2, 5), 0, 128), 1)


def test_norm_at_plus_and_minus_one_is_exactly_one():
    # the exponents -4b-1 = -1 and 1: the trace and the trace of the inverse agree
    for b in (0, Fraction(-1, 2)):
        norm = modular_norm_sq(7, Fraction(1, 3), b, 64)
        assert (norm.lo, norm.hi, norm.bits) == ((1, 0), (1, 0), 64)


def test_norm_at_quarter_gives_dimension_ratio():
    value = modular_norm_sq(1, Fraction(1, 2), Fraction(-1, 4), 128)
    assert _holds(value, Fraction(4, 5))


def test_norm_trivial_on_flat_spectrum():
    for b in (0, Fraction(-1, 4), Fraction(3, 7), 1):
        norm = modular_norm_sq(4, 1, b, 96)
        assert norm.bits == 96 and _holds(norm, 1)


def test_norm_matches_exact_rational_formula():
    # independent oracle: exact rational power sums for integer exponents
    q = Fraction(1, 3)
    for n in range(8):
        spectrum = rho_spectrum_exact(n, q)
        for b in (0, 1, -1, Fraction(1, 2)):
            exponent = -4 * Fraction(b) - 1
            if exponent.denominator != 1:
                continue
            expected = sum(lam ** int(exponent) for lam in spectrum) / sum(spectrum)
            assert _holds(modular_norm_sq(n, q, b, 128), expected)


def _mp_endpoints(enclosure: Enclosure) -> tuple:
    return tuple(mpmath.ldexp(m, e) for m, e in (enclosure.lo, enclosure.hi))


#: Ladders of the oracle tests at non-integer exponents and of the
#: coefficients: the one-point ladder, q = 1, q small, near 1, and 1e-23
#: below 1, where log q has 77 leading zero bits.
ORACLE_LADDERS = ((0, Fraction(1, 3)), (3, Fraction(1, 3)), (5, Fraction(1)),
                  (12, Fraction(4, 5)), (40, Fraction(97, 100)),
                  (2, Fraction(10**23 - 1, 10**23)))


def _ladder_oracle(ctx: MPIntervalContext, n: int, q: Fraction) -> list:
    return [ctx.mpf(lam.numerator) / lam.denominator for lam in rho_spectrum_exact(n, q)]


@pytest.mark.parametrize("bits", [1, 24, 64, 128, 333])
@pytest.mark.parametrize("b", [0, Fraction(-1, 4), Fraction(1, 4), Fraction(5, 4), -3,
                               Fraction(10**20 - 1, 4)], ids=str)
def test_integer_exponent_norm_is_tight_around_mpmaths_value(bits, b):
    # the ladder sums: an mpmath interval at 3 x bits as the oracle, the
    # result within a few units of its last bit, and an exponent of 67 bits
    # costs 67 squarings.  The oracle is an interval because the norm at
    # b = 0 is the point 1, which a rounded mpmath value may miss.
    for n, q in ((0, Fraction(1, 3)), (3, Fraction(1, 3)), (12, Fraction(4, 5)),
                 (40, Fraction(97, 100))):
        norm = modular_norm_sq(n, q, b, bits)
        assert norm.bits == bits
        exponent = int(-4 * Fraction(b) - 1)
        # a power of e multiplies the relative error of its base by e
        ctx = context(3 * bits + 16 + exponent.bit_length())
        lams = _ladder_oracle(ctx, n, q)
        oracle = to_enclosure(sum(lam**exponent for lam in lams) / sum(lams))
        with mpmath.workprec(ctx.prec):
            (lo, hi), (value_lo, value_hi) = _mp_endpoints(norm), _mp_endpoints(oracle)
            assert lo <= value_hi and value_lo <= hi
            assert hi - lo <= 8 * mpmath.ldexp(value_hi, -bits)


@pytest.mark.parametrize("bits", [1, 24, 64, 128, 333, 1024])
@pytest.mark.parametrize("b", [Fraction(1, 3), Fraction(-1, 3), Fraction(1, 8), Fraction(-5, 12),
                               Fraction(7, 6), Fraction(222_001, 3)], ids=str)
def test_non_integer_exponent_norm_is_tight_around_mpmaths_value(bits, b):
    # log q and exp on ints against an mpmath interval at 3 x bits; the
    # last b puts the 40-step ladder at 97/100 next to the `spectral` budget:
    # |4b + 1| n log2(1/q) is about 520,000 bits, and 2^19 is 524,288
    for n, q in ORACLE_LADDERS:
        norm = modular_norm_sq(n, q, b, bits)
        assert norm.bits == bits
        exponent = -4 * b - 1
        ctx = context(3 * bits + 16 + math.ceil(abs(exponent) * n).bit_length())
        e = ctx.mpf(exponent.numerator) / exponent.denominator
        lams = _ladder_oracle(ctx, n, q)
        oracle = to_enclosure(sum(lam**e for lam in lams) / sum(lams))
        with mpmath.workprec(ctx.prec):
            (lo, hi), (value_lo, value_hi) = _mp_endpoints(norm), _mp_endpoints(oracle)
            assert lo <= value_hi and value_lo <= hi, (n, q)
            assert hi - lo <= 8 * mpmath.ldexp(value_hi, -bits), (n, q)


@pytest.mark.parametrize("bits", [1, 24, 64, 128, 333, 1024])
@pytest.mark.parametrize("t", [Fraction(1, 3), Fraction(-7, 2), Fraction(5, 2),
                               Fraction(10**20, 3), 10**23, Fraction(1, 10**23)], ids=str)
def test_eigencoefficients_are_tight_around_mpmaths_values(bits, t):
    # against mpmath's cos and sin of 2t log(lam) at 3 x bits plus the bits
    # the angle reaches above 1 and log q below it.  Each cell is within a
    # few units of its last bit: of the value itself where the angle is below
    # 1, and where it is not, of the value or 1/16, whichever is larger, as
    # cos and sin are summed in fixed point.  At t = 10^23 mpmath's own
    # interval at 128 bits is 1.3e-15 wide.
    for n, q in ORACLE_LADDERS:
        cells = modular_eigencoefficients(n, q, t, bits)
        assert len(cells) == n + 1
        ctx = context(3 * bits + 256)
        twice_t = 2 * ctx.mpf(Fraction(t).numerator) / Fraction(t).denominator
        for (re, im), lam in zip(cells, _ladder_oracle(ctx, n, q), strict=True):
            angle = twice_t * ctx.log(lam)
            for cell, value in ((re, ctx.cos(angle)), (im, ctx.sin(angle))):
                assert cell.bits == bits
                oracle = to_enclosure(value)
                with mpmath.workprec(ctx.prec):
                    (lo, hi), (value_lo, value_hi) = _mp_endpoints(cell), _mp_endpoints(oracle)
                    assert lo <= value_hi and value_lo <= hi, (n, q, lam)
                    size = max(abs(value_lo), abs(value_hi))
                    if abs(angle.b) > 1:
                        size = max(size, mpmath.mpf(1) / 16)
                    assert hi - lo <= 8 * mpmath.ldexp(size, -bits), (n, q, lam)


@pytest.mark.parametrize("call", [
    lambda: modular_norm_sq(3, Fraction(1, 3), 0.25),
    lambda: modular_norm_sq(3, Fraction(1, 3), -0.25),
    lambda: modular_eigencoefficients(3, Fraction(1, 3), 0.5),
    lambda: modular_eigencoefficients(3, Fraction(1, 3), 0.0),
], ids=["b", "b_integer_exponent", "t", "t_zero"])
def test_a_float_b_or_t_is_refused(call):
    # b and t are read exactly, as q is: a float's binary value is not what it prints
    with pytest.raises(TypeError, match="for exactness"):
        call()


#: Ladder parameters of the exact oracle: dyadic ones, where every power is
#: exact and only Horner's rule rounds, and decimal ones near 0 and near 1.
LADDER_QS = st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(3, 4),
                             Fraction(1, 10), Fraction(3, 10), Fraction(7, 9), Fraction(97, 100),
                             Fraction(999, 1000), Fraction(1)])


@settings(derandomize=True, max_examples=300)
@given(st.integers(0, 40), LADDER_QS, st.integers(-12, 12), st.integers(1, 333))
def test_ladder_sum_brackets_the_exact_sum(n, q, e, bits):
    # the exact rational sums as the oracle, at precisions low enough that
    # every rounding shows: the sum before its last rounding, and the norm
    spectrum = rho_spectrum_exact(n, q)
    exact = sum(lam**e for lam in spectrum)
    low, high = (dyadic.to_fraction(end) for end in _ladder_sum(n, q, e, bits))
    assert low <= exact <= high
    assert high - low <= 8 * exact / 2**bits
    ratio = exact / sum(spectrum)
    lo, hi = dyadic.exact_endpoints(modular_norm_sq(n, q, Fraction(-e - 1, 4), bits))
    assert lo <= ratio <= hi
    assert hi - lo <= 8 * ratio / 2**bits


@pytest.mark.parametrize("call", [
    lambda n, q: trace_balanced(n, q),
    lambda n, q: modular_norm_sq(n, q, 0),
    lambda n, q: modular_norm_sq(n, q, Fraction(1, 3)),
    lambda n, q: modular_eigencoefficients(n, q, 0),
], ids=["trace_balanced", "modular_norm_sq", "modular_norm_sq_mpmath",
        "modular_eigencoefficients"])
@pytest.mark.parametrize("n, q", [(-1, Fraction(1, 2)), (2.0, Fraction(1, 2)),
                                  (True, Fraction(1, 2)), ("2", Fraction(1, 2)),
                                  (2, 0), (2, Fraction(-1, 3)), (2, Fraction(3, 2)),
                                  (2, "1.00000000000000000001")],
                         ids=["negative", "float", "bool", "str", "zero", "negative_q",
                              "above_one", "just_above_one"])
def test_each_modular_function_refuses_an_invalid_ladder(call, n, q):
    with pytest.raises(DomainError):
        call(n, q)


def test_trace_balanced():
    for n in range(31):
        assert trace_balanced(n, Fraction(2, 5))
    assert trace_balanced(7, "1/2") and trace_balanced(0, 1)


# ---------------------------------------------------------------------------
# eigencoefficients


def test_eigencoefficients_at_zero():
    for re, im in modular_eigencoefficients(3, Fraction(1, 2), 0, 96):
        assert _holds(re, 1)
        assert _holds(im, 0)


def test_eigencoefficients_half_turn():
    # at t = pi/(2 ln 2) both eigenvalues 2 and 1/2 land on -1; t is the
    # lower end of a 256-bit enclosure of it, about 2^-250 away, which moves
    # the coefficients far less than their 128-bit enclosures are wide
    ctx = context(256)
    t = dyadic.exact_endpoints(to_enclosure(ctx.pi / (2 * ctx.log(2))))[0]
    for re, im in modular_eigencoefficients(1, Fraction(1, 2), t, 128):
        assert _holds(re, -1)
        assert _holds(im, 0)


def test_eigencoefficients_flat_spectrum_fixed():
    for t in (Fraction(1, 3), 2, Fraction(-7, 2)):
        for re, im in modular_eigencoefficients(3, 1, t, 96):
            assert _holds(re, 1)
            assert _holds(im, 0)


def _square(enclosure: Enclosure) -> tuple[Fraction, Fraction]:
    """Exact range of ``x^2`` over the enclosure."""
    lo, hi = dyadic.exact_endpoints(enclosure)
    ends = (lo * lo, hi * hi)
    return (0 if lo <= 0 <= hi else min(ends)), max(ends)


def test_eigencoefficients_unit_modulus():
    for re, im in modular_eigencoefficients(4, Fraction(3, 10), Fraction(5, 7), 128):
        (re_lo, re_hi), (im_lo, im_hi) = _square(re), _square(im)
        assert re_lo + im_lo <= 1 <= re_hi + im_hi


# ---------------------------------------------------------------------------
# float oracles for the certified weighted-shift model


def _matrix(squares) -> np.ndarray:
    """The zero-diagonal symmetric tridiagonal with these squared off-diagonals."""
    size = len(squares) + 1
    matrix = np.zeros((size, size))
    for k, entry in enumerate(squares):
        matrix[k, k + 1] = matrix[k + 1, k] = math.sqrt(entry)
    return matrix


def oracle_krylov_rank(matrix: np.ndarray) -> int:
    """Dimension of the Krylov space of e0 under T: each new vector ``T v`` is
    orthogonalised twice against the basis so far (Gram-Schmidt), and the
    rank is the first step whose residual falls to ``RANK_RTOL * ||T||``."""
    size = matrix.shape[0]
    cutoff = RANK_RTOL * np.linalg.norm(matrix, np.inf)
    basis = np.zeros((size, size))
    basis[0, 0] = 1.0
    for k in range(1, size):
        vec = matrix @ basis[:, k - 1]
        for _ in range(2):
            vec -= basis[:, :k] @ (basis[:, :k].T @ vec)
        norm = np.linalg.norm(vec)
        if norm <= cutoff:
            return k
        basis[:, k] = vec / norm
    return size


def oracle_commutant_dim(matrix: np.ndarray) -> int:
    """Dimension of ``{X : XA = AX}``: the null space of the Kronecker
    commutation map by SVD, or above ``SVD_ORACLE_MAX_SIZE`` the sum of the
    squared multiplicities of the float eigenvalues."""
    size = matrix.shape[0]
    if size > SVD_ORACLE_MAX_SIZE:
        eigenvalues = np.linalg.eigvalsh(matrix)
        cutoff = RANK_RTOL * np.max(np.abs(eigenvalues))
        multiplicities = np.diff(np.flatnonzero(np.diff(eigenvalues, prepend=-np.inf,
                                                        append=np.inf) > cutoff))
        return int(np.sum(multiplicities**2))
    eye = np.eye(size)
    commutation = np.kron(matrix.T, eye) - np.kron(eye, matrix)
    singular = np.linalg.svd(commutation, compute_uv=False)
    return size * size - int(np.sum(singular > RANK_RTOL * singular[0]))


def oracle_gap(matrix: np.ndarray) -> float:
    return float(np.min(np.diff(np.linalg.eigvalsh(matrix))))


# ---------------------------------------------------------------------------
# weighted-shift compression


def test_build_jacobi_entries():
    op = build_jacobi(2, Fraction(1, 2))
    assert op.off_diagonal == (pytest.approx(math.sqrt(0.75)),)
    assert op.squares == (Fraction(3, 4),)
    op3 = build_jacobi(3, Fraction(1, 2))
    assert op3.off_diagonal == (
        pytest.approx(math.sqrt(0.75)),
        pytest.approx(math.sqrt(1 - 0.5**4)),
    )


def test_build_jacobi_free_shift_limit():
    op = build_jacobi(6, Fraction(1, 10**9))
    assert all(abs(entry - 1.0) < 1e-12 for entry in op.off_diagonal)


def test_build_jacobi_domain():
    with pytest.raises(DomainError):
        build_jacobi(1, Fraction(1, 2))
    with pytest.raises(DomainError):
        build_jacobi(4, 1)
    with pytest.raises(DomainError):
        JacobiOperator(3, (0.5, 0.0))


def test_build_jacobi_reads_q_exactly():
    # float(q) is 1.0, but the rational q is below 1 and every square positive
    op = build_jacobi(4, "0.99999999999999999999999")
    assert all(0 < entry < Fraction(1, 10**21) for entry in op.squares)
    assert commutant_dim(op) == 4 and min_eigenvalue_gap(op) > 0


def test_krylov_rank_small():
    assert krylov_rank(build_jacobi(2, Fraction(1, 2))) == 2
    assert krylov_rank(build_jacobi(8, Fraction(1, 2))) == 8
    assert krylov_rank(build_jacobi(12, Fraction(9, 10))) == 12


@pytest.mark.parametrize("size, q", [(32, "0.3"), (32, "0.7"), (64, "0.5"), (16, "0.999")])
def test_krylov_rank_full_where_the_monomial_basis_lost_it(size, q):
    # the SVD rank of [e0, T e0, ...] gave 14, 16, 10 and 8 here
    assert krylov_rank(build_jacobi(size, q)) == size


def test_krylov_rank_non_cyclic_control():
    # a vanishing square b_k^2 confines e0 to the first k + 1 basis vectors;
    # JacobiOperator rejects every such operator, so krylov_rank may return M
    for squares in [(1, 0, 4, 9), (Fraction(1, 3), 2, 0), (0, 1), (2, 2, 2, 2, 0)]:
        assert oracle_krylov_rank(_matrix(squares)) == squares.index(0) + 1
        with pytest.raises(DomainError):
            JacobiOperator(len(squares) + 1, tuple(Fraction(entry) for entry in squares))
    assert oracle_krylov_rank(_matrix((1, 2, 3))) == 4
    assert krylov_rank(JacobiOperator(4, (Fraction(1), Fraction(2), Fraction(3)))) == 4

def test_commutant_dim_small():
    assert commutant_dim(build_jacobi(2, Fraction(1, 2))) == 2
    assert commutant_dim(build_jacobi(10, Fraction(1, 2))) == 10


@pytest.mark.parametrize("size, q, most, gap", [
    (16, "1/2", 25, 0.10923968126007821),
    (32, "4/10", 41, 0.027790561616711784),
    (8, "9/10", 15, 0.40735396556556225),
])
def test_commutant_dim_isolates_without_narrowing_the_gap(size, q, most, gap, monkeypatch):
    # Isolating M eigenvalues takes about one Sturm count each; narrowing the
    # brackets around the smallest spacing, which only the gap reads, takes
    # well over a hundred more, and commutant_dim makes none of them.
    counts = []

    def counted(bounds, x):
        counts.append(x)
        return _count_below(bounds, x)

    monkeypatch.setattr(spectral, "_count_below", counted)
    spectral._isolate.cache_clear()
    op = build_jacobi(size, q)
    assert commutant_dim(op) == size
    assert len(counts) <= most
    assert min_eigenvalue_gap(op) == gap


def test_rank_and_commutant_on_grid():
    # the certified model against the float oracles, and the gap printed as
    # a lower bound within 1e-6 of the float gap
    grid = [(size, q) for size in GRID_M for q in GRID_Q]
    for size, q in grid + [(64, Fraction(999, 1000)),
                           (32, Fraction(123456789012, 123456789013))]:
        op = build_jacobi(size, q)
        matrix = _matrix(op.squares)
        assert krylov_rank(op) == oracle_krylov_rank(matrix) == size
        assert commutant_dim(op) == oracle_commutant_dim(matrix) == size
        gap, expected = min_eigenvalue_gap(op), oracle_gap(matrix)
        assert expected >= gap >= (1 - 1e-6) * expected
        assert gap > 1e-6
        if size >= 4:
            assert suq2_relation_residuals(size, q, Fraction(3, 7)) <= 1e-12


def test_commutant_negative_control():
    # two identical decoupled blocks repeat every eigenvalue: the commutant
    # has dimension 3 * 2^2 = 12, and the model must not report 6
    squares = (Fraction(1, 2), 2, 0, Fraction(1, 2), 2)
    assert oracle_commutant_dim(_matrix(squares)) == 12
    with pytest.raises(BudgetError, match="not certified simple"):
        matrix_commutant_dim(6, squares)
    # split blocks with disjoint spectra are still certified simple
    assert matrix_commutant_dim(4, (Fraction(1, 2), 0, 2)) == 4


def test_commutant_domain():
    for size, squares in [(1, ()), (3, (1,)), (3, (1, -1))]:
        with pytest.raises(DomainError):
            matrix_commutant_dim(size, squares)


def test_commutant_budget():
    size = MAX_COMMUTANT_SIZE + 1
    with pytest.raises(BudgetError, match="capped"):
        matrix_commutant_dim(size, (1,) * (size - 1))
    with pytest.raises(BudgetError):
        min_eigenvalue_gap(JacobiOperator(size, (Fraction(1, 2),) * (size - 1)))


#: build_jacobi(10**6, "1/2") in a child held to 1 GiB of address space and
#: 10 s of CPU: the exact squares ``1 - 4^-k`` of that size would take about
#: M^2 bits, so only a refusal made before allocating finishes in time.
_SIZE_PROBE = """
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
resource.setrlimit(resource.RLIMIT_CPU, (10, 10))
from qclassfun import spectral
from qclassfun.errors import BudgetError
start = time.process_time()
try:
    spectral.build_jacobi(10**6, "1/2")
except BudgetError as exc:
    print("capped" in str(exc), time.process_time() - start)
"""


def test_a_huge_matrix_size_is_refused_before_anything_is_allocated():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _SIZE_PROBE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    capped, seconds = done.stdout.split()
    assert capped == "True" and float(seconds) < 1


def test_float_bounds_bracket_the_value():
    for value in (Fraction(3, 4), Fraction(1, 3), Fraction(2, 3), 1 - Fraction(1, 10**30),
                  Fraction(10**400 + 1, 10**400)):
        lo, hi = _float_bounds(value)
        assert Fraction(lo) <= value <= Fraction(hi)
        assert hi == lo or math.nextafter(lo, math.inf) == hi
    assert _float_bounds(Fraction(3, 4)) == (0.75, 0.75)


@pytest.mark.parametrize("squares", [
    (Fraction(3, 4), Fraction(15, 16), Fraction(63, 64)),
    (1, 1, 1, 1, 1, 1),
    (Fraction(1, 2), 2, 0, 1, 3),
    (Fraction(1, 2), 2, 0, Fraction(1, 2), 2),
    (Fraction(1, 10**20), 1, Fraction(7, 3), Fraction(1, 10**20)),
])
def test_sturm_counts_match_the_eigenvalues(squares):
    eigenvalues = np.linalg.eigvalsh(_matrix(squares))
    bounds = [_float_bounds(Fraction(entry)) for entry in squares]
    points = np.concatenate([eigenvalues[:-1] + np.diff(eigenvalues) / 3,
                             [eigenvalues[0] - 1, eigenvalues[-1] + 1, 0.123, -0.77]])
    for x in map(float, points):
        if np.min(np.abs(eigenvalues - x)) < 1e-9:
            continue
        expected = int(np.sum(eigenvalues < x))
        assert _exact_count(squares, x) == expected
        assert _count_below(bounds, x) in (None, expected)


def test_exact_count_at_vanishing_minors():
    # at x = 0 the first pivot is 0 and the interval count gives up
    assert _count_below([(1.0, 1.0), (1.0, 1.0)], 0.0) is None
    # spectrum -sqrt(2), 0, sqrt(2): x = 0 is an eigenvalue, not below itself
    assert _exact_count((1, 1), 0.0) == 1
    # free shift of order 4 (spectrum +-0.618, +-1.618): the minor det(T_1 - 1) vanishes
    assert _exact_count((1, 1, 1), 1.0) == 3
    assert _exact_count((1, 1, 1), -1.0) == 1
    # a vanishing square splits the matrix into two blocks of spectrum -1, 1,
    # each counted on its own, also where x is an eigenvalue of the first
    assert _exact_count((1, 0, 1), 0.0) == 2
    assert _exact_count((1, 0, 1), 1.0) == 2
    assert _exact_count((1, 0, 1), 1.5) == 4


def test_relation_residuals_interior():
    assert suq2_relation_residuals(16, Fraction(1, 2)) <= 1e-12
    assert suq2_relation_residuals(16, Fraction(1, 2), Fraction(37, 100)) <= 1e-12
    # the bound is a rounding width at 128 bits
    assert suq2_relation_residuals(16, Fraction(1, 2), Fraction(37, 100)) <= 1e-30


@pytest.mark.parametrize("size", [4, 8, 32, 768])
@pytest.mark.parametrize("q", [Fraction(1, 10), Fraction(1, 2), Fraction(9, 10),
                               Fraction("0.999999999")], ids=str)
@pytest.mark.parametrize("phase", [Fraction(0), Fraction(3, 7), Fraction(-1, 3)], ids=str)
def test_relation_residuals_bound_mpmaths_entries(size, q, phase):
    # the same interior entries in mpmath at 384 bits, where they are
    # rounding noise far below the 128-bit fixed-point bound; the bound
    # itself is a rounding width, not a loose cap
    bound = suq2_relation_residuals(size, q, phase)
    with mpmath.workprec(384):
        mq = mpmath.mpf(q.numerator) / q.denominator
        angle = mpmath.mpf(phase.numerator) / phase.denominator
        unit = (mpmath.cos(angle), mpmath.sin(angle))
        modulus_sq = unit[0] ** 2 + unit[1] ** 2
        powers = [mq**k for k in range(size)]
        shift = [mpmath.sqrt(1 - power**2) for power in powers]
        worst = mpmath.mpf(0)
        for k in range(1, size - 1):
            g_sq = modulus_sq * powers[k] ** 2
            entries = [shift[k] ** 2 + g_sq - 1, shift[k + 1] ** 2 + mq**2 * g_sq - 1]
            if k >= 2:
                entries += [(shift[k] * powers[k] - mq * powers[k - 1] * shift[k]) * part
                            for part in unit]
            worst = max([worst, *map(abs, entries)])
    assert worst <= bound <= 2.0**-100


def test_relation_residuals_boundary_is_large():
    # the compression breaks the co-isometry relation only in the last row
    size, q = 8, 0.5
    a = np.zeros((size, size))
    for k in range(1, size):
        a[k - 1, k] = math.sqrt(1 - q ** (2 * k))
    g = np.diag([q**k for k in range(size)])
    full = a @ a.T + q**2 * (g @ g.T) - np.eye(size)
    assert abs(full[size - 1, size - 1]) > 0.9


def test_relation_residuals_domain():
    with pytest.raises(DomainError):
        suq2_relation_residuals(3, Fraction(1, 2))
    with pytest.raises(DomainError):
        suq2_relation_residuals(8, 1)
    with pytest.raises(DomainError):
        suq2_relation_residuals(8, 0)
