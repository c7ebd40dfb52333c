"""Modular character norms and the finite weighted-shift model."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import iv

from qclassfun import fusion, intervals
from qclassfun.errors import BudgetError, DomainError
from qclassfun.spectral import (
    JacobiOperator,
    build_jacobi,
    commutant_dim,
    krylov_rank,
    matrix_commutant_dim,
    matrix_krylov_rank,
    min_eigenvalue_gap,
    modular_eigencoefficients,
    modular_norm_sq,
    suq2_relation_residuals,
    trace_balanced,
)

GRID_Q = (0.1, 0.3, 0.5, 0.7, 0.9)
GRID_M = (2, 4, 8, 16)


# ---------------------------------------------------------------------------
# modular norms


def test_norm_one_at_zero_for_any_balanced_spectrum():
    with intervals.precision(128):
        for n in (0, 1, 5, 12):
            rho = fusion.rho_spectrum(n, Fraction(2, 5))
            assert intervals.contains(modular_norm_sq(rho, 0), 1)


def test_norm_at_quarter_gives_dimension_ratio():
    with intervals.precision(128):
        rho = fusion.rho_spectrum(1, Fraction(1, 2))
        value = modular_norm_sq(rho, Fraction(-1, 4))
        assert intervals.contains(value, Fraction(4, 5))


def test_norm_trivial_on_flat_spectrum():
    with intervals.precision(96):
        flat = [intervals.make(1) for _ in range(5)]
        for b in (0, Fraction(-1, 4), Fraction(3, 7), 1):
            assert intervals.contains(modular_norm_sq(flat, b), 1)


def test_norm_matches_exact_rational_formula():
    # independent oracle: exact rational power sums for integer exponents
    q = Fraction(1, 3)
    for n in range(8):
        spectrum = fusion.rho_spectrum_exact(n, q)
        for b in (0, 1, -1, Fraction(1, 2)):
            exponent = -4 * Fraction(b) - 1
            if exponent.denominator != 1:
                continue
            expected = sum(lam ** int(exponent) for lam in spectrum) / sum(spectrum)
            with intervals.precision(128):
                rho = fusion.rho_spectrum(n, q)
                assert intervals.contains(modular_norm_sq(rho, b), expected)


def test_norm_rejects_empty_and_nonpositive():
    with pytest.raises(DomainError):
        modular_norm_sq([], 0)
    with intervals.precision(64):
        with pytest.raises(DomainError):
            modular_norm_sq([intervals.from_endpoints(-1, 1)], 0)


def test_trace_balanced():
    with intervals.precision(96):
        assert trace_balanced(fusion.rho_spectrum(7, Fraction(1, 2)))
        skewed = [intervals.make(2), intervals.make(3)]
        assert not trace_balanced(skewed)


# ---------------------------------------------------------------------------
# eigencoefficients


def test_eigencoefficients_at_zero():
    with intervals.precision(96):
        coeffs = modular_eigencoefficients(fusion.rho_spectrum(3, Fraction(1, 2)), 0)
        for re, im in coeffs:
            assert intervals.contains(re, 1)
            assert intervals.contains(im, 0)


def test_eigencoefficients_half_turn():
    # at t = pi/(2 ln 2) both eigenvalues 2 and 1/2 land on -1
    with intervals.precision(128):
        t = iv.pi / (2 * iv.log(2))
        coeffs = modular_eigencoefficients([Fraction(2), Fraction(1, 2)], t)
        for re, im in coeffs:
            assert intervals.contains(re, -1)
            assert intervals.contains(im, 0)


def test_eigencoefficients_flat_spectrum_fixed():
    with intervals.precision(96):
        for t in (Fraction(1, 3), 2, Fraction(-7, 2)):
            coeffs = modular_eigencoefficients([Fraction(1)] * 4, t)
            for re, im in coeffs:
                assert intervals.contains(re, 1)
                assert intervals.contains(im, 0)


def test_eigencoefficients_unit_modulus():
    with intervals.precision(128):
        rho = fusion.rho_spectrum(4, Fraction(3, 10))
        for re, im in modular_eigencoefficients(rho, Fraction(5, 7)):
            assert intervals.contains(re * re + im * im, 1)


# ---------------------------------------------------------------------------
# weighted-shift compression


def test_build_jacobi_entries():
    op = build_jacobi(2, 0.5)
    assert op.off_diagonal == (pytest.approx(math.sqrt(0.75)),)
    op3 = build_jacobi(3, 0.5)
    assert op3.off_diagonal == (
        pytest.approx(math.sqrt(0.75)),
        pytest.approx(math.sqrt(1 - 0.5**4)),
    )


def test_build_jacobi_free_shift_limit():
    op = build_jacobi(6, 1e-9)
    assert all(abs(entry - 1.0) < 1e-12 for entry in op.off_diagonal)


def test_build_jacobi_domain():
    with pytest.raises(DomainError):
        build_jacobi(1, 0.5)
    with pytest.raises(DomainError):
        build_jacobi(4, 1.0)
    with pytest.raises(DomainError):
        JacobiOperator(3, (0.5, 0.0))


def test_krylov_rank_small():
    assert krylov_rank(build_jacobi(2, 0.5)) == 2
    assert krylov_rank(build_jacobi(8, 0.5)) == 8
    assert krylov_rank(build_jacobi(12, 0.9)) == 12


@pytest.mark.parametrize("size, q", [(32, 0.3), (32, 0.7), (64, 0.5), (16, 0.999)])
def test_krylov_rank_full_where_the_monomial_basis_lost_it(size, q):
    # the SVD rank of [e0, T e0, ...] gave 14, 16, 10 and 8 here
    assert krylov_rank(build_jacobi(size, q)) == size


def test_krylov_rank_non_cyclic_control():
    # e0 only reaches its own 2x2 block
    block = np.zeros((5, 5))
    block[0, 1] = block[1, 0] = 1.0
    block[2, 3] = block[3, 2] = 2.0
    block[4, 4] = 3.0
    assert matrix_krylov_rank(block) == 2


def test_commutant_dim_small():
    assert commutant_dim(build_jacobi(2, 0.5)) == 2
    assert commutant_dim(build_jacobi(10, 0.5)) == 10


def test_rank_and_commutant_on_grid():
    for size in GRID_M:
        for q in GRID_Q:
            op = build_jacobi(size, q)
            assert krylov_rank(op) == size
            assert commutant_dim(op) == size
            assert min_eigenvalue_gap(op) > 1e-6


def test_commutant_negative_control():
    # a repeated eigenvalue inflates the commutant beyond M
    degenerate = np.diag([1.0, 1.0, 2.0, 3.0, 4.0])
    assert matrix_commutant_dim(degenerate) == 5 + 2


def test_commutant_budget():
    with pytest.raises(BudgetError):
        matrix_commutant_dim(np.eye(65))


def test_relation_residuals_interior():
    assert suq2_relation_residuals(16, 0.5) <= 1e-12
    lam = cmath.exp(0.37j)
    assert suq2_relation_residuals(16, 0.5, lam) <= 1e-12


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
        suq2_relation_residuals(3, 0.5)
    with pytest.raises(DomainError):
        suq2_relation_residuals(8, 0.5, 2.0)
