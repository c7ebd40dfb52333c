"""Modular action on characters and finite weighted-shift shadows.

The modular group scales the diagonal coefficients of a character by complex
powers of the intertwiner eigenvalues; the squared 2-norm of the twisted
character is ``Tr(rho^(-4b-1)) / Tr(rho)``, which specializes to 1 at
``b = 0`` (trace balance) and to dim/dim_q at ``b = -1/4``.

The finite model compresses the real part of the weighted shift
``a phi_k = sqrt(1 - q^(2k)) phi_(k-1)`` to the first M basis vectors.  Two
finite shadows of maximal abelianness are checked: the first basis vector is
cyclic (full Krylov rank) and the commutant of the compression is exactly the
polynomials in it (dimension M).  Matrix work is plain fixed-precision
linear algebra, not intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from mpmath import iv

from . import intervals
from .errors import BudgetError, DomainError
from .intervals import Interval, IntervalLike

#: Relative cutoff used for all integer rank decisions: on singular values
#: (commutant) and on Gram-Schmidt residuals against the matrix norm (Krylov).
RANK_RTOL = 1e-8

#: Largest matrix size accepted by the dense commutant solve.
MAX_COMMUTANT_SIZE = 64


def trace_balanced(rho: Sequence[Interval]) -> bool:
    """Certify-or-refute that sum(rho) can equal sum(1/rho)."""
    total = sum(rho, intervals.make(0))
    total_inv = sum((intervals.inv(lam) for lam in rho), intervals.make(0))
    return intervals.overlaps(total, total_inv)


def modular_norm_sq(rho: Sequence[Interval | Fraction], b) -> Interval:
    """Squared 2-norm of the character twisted by the modular group at
    imaginary part `b`: ``sum(lam^(-4b-1)) / sum(lam)``.

    The real part of the modular parameter drops out, so only `b` is taken.
    `b` may be a Fraction, int, float or decimal string.
    """
    spectrum = [intervals.make(lam) if isinstance(lam, (Fraction, int)) else lam for lam in rho]
    if not spectrum:
        raise DomainError("empty spectrum")
    for lam in spectrum:
        if intervals.lower(lam) <= 0:
            raise DomainError(f"spectrum must be strictly positive, got {lam}")
    exponent = -4 * Fraction(str(b) if isinstance(b, float) else b) - 1
    if exponent.denominator == 1:
        powered = [lam ** int(exponent) for lam in spectrum]
    else:
        e = intervals.make(exponent)
        powered = [lam**e for lam in spectrum]
    numerator = sum(powered, intervals.make(0))
    denominator = sum(spectrum, intervals.make(0))
    return numerator / denominator


def modular_eigencoefficients(
    rho: Sequence[Interval | Fraction], t: IntervalLike
) -> list[tuple[Interval, Interval]]:
    """Unit-circle coefficients ``lam^(2it)`` of the twisted character.

    Returns (real, imaginary) enclosure pairs, one per eigenvalue, in the
    order of `rho`.  At ``t = 0`` every coefficient is 1.
    """
    time = intervals.make(t)
    out = []
    for lam in rho:
        lam_iv = intervals.make(lam) if isinstance(lam, (Fraction, int)) else lam
        if intervals.lower(lam_iv) <= 0:
            raise DomainError(f"spectrum must be strictly positive, got {lam_iv}")
        angle = 2 * time * iv.log(lam_iv)
        out.append((iv.cos(angle), iv.sin(angle)))
    return out


# ---------------------------------------------------------------------------
# finite weighted-shift model


@dataclass(frozen=True)
class JacobiOperator:
    """Symmetric tridiagonal compression with zero diagonal.

    Entry k of `off_diagonal` is ``sqrt(1 - q^(2(k+1)))``; all entries are
    strictly positive, which makes the spectrum simple and the first basis
    vector cyclic.
    """

    size: int
    off_diagonal: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.size < 2:
            raise DomainError(f"need size >= 2, got {self.size}")
        if len(self.off_diagonal) != self.size - 1:
            raise DomainError("off-diagonal length must be size - 1")
        if any(entry <= 0 for entry in self.off_diagonal):
            raise DomainError("off-diagonal entries must be strictly positive")

    def matrix(self) -> np.ndarray:
        m = np.zeros((self.size, self.size))
        for k, entry in enumerate(self.off_diagonal):
            m[k, k + 1] = entry
            m[k + 1, k] = entry
        return m


def build_jacobi(size: int, q: float) -> JacobiOperator:
    """Compression of the real part of the weighted shift to M basis vectors."""
    if size < 2:
        raise DomainError(f"need size >= 2, got {size}")
    if not 0 < q < 1:
        raise DomainError(f"q must lie in (0, 1), got {q}")
    off = tuple(math.sqrt(1.0 - q ** (2 * (k + 1))) for k in range(size - 1))
    return JacobiOperator(size, off)


def matrix_krylov_rank(matrix: np.ndarray) -> int:
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


def krylov_rank(op: JacobiOperator) -> int:
    """Krylov rank of e0 under the compression; M certifies cyclicity of e0."""
    return matrix_krylov_rank(op.matrix())


def matrix_commutant_dim(matrix: np.ndarray) -> int:
    """Dimension of ``{X : XA = AX}`` via the Kronecker commutation map."""
    size = matrix.shape[0]
    if matrix.shape != (size, size):
        raise DomainError("square matrix required")
    if size > MAX_COMMUTANT_SIZE:
        raise BudgetError(f"dense commutant solve capped at size {MAX_COMMUTANT_SIZE}")
    eye = np.eye(size)
    commutation = np.kron(matrix.T, eye) - np.kron(eye, matrix)
    singular = np.linalg.svd(commutation, compute_uv=False)
    return size * size - int(np.sum(singular > RANK_RTOL * singular[0]))


def commutant_dim(op: JacobiOperator) -> int:
    """Commutant dimension of the compression; M means simple spectrum
    and commutant = polynomials in the operator."""
    return matrix_commutant_dim(op.matrix())


def min_eigenvalue_gap(op: JacobiOperator) -> float:
    """Smallest spacing between consecutive eigenvalues."""
    eigenvalues = np.linalg.eigvalsh(op.matrix())
    return float(np.min(np.diff(np.sort(eigenvalues))))


def suq2_relation_residuals(size: int, q: float, phase: complex = 1.0) -> float:
    """Largest interior residual of the deformed-unitary generator relations.

    Builds the truncated shift ``a`` and diagonal ``g`` with
    ``a phi_k = sqrt(1 - q^(2k)) phi_(k-1)`` and ``g phi_k = phase q^k phi_k``
    and evaluates

        a* a + g* g - 1,   a a* + q^2 g g* - 1,   g g* - g* g,
        a g - q g a,       a g* - q g* a

    restricted to rows and columns 1..M-2.  Compression breaks the relations
    only in the last row/column, so the interior maximum is at numerical zero.
    """
    if size < 4:
        raise DomainError(f"need size >= 4 to have an interior block, got {size}")
    if not 0 < q < 1:
        raise DomainError(f"q must lie in (0, 1), got {q}")
    if abs(abs(phase) - 1.0) > 1e-12:
        raise DomainError(f"phase must have unit modulus, got {phase!r}")

    a = np.zeros((size, size), dtype=complex)
    for k in range(1, size):
        a[k - 1, k] = np.sqrt(1.0 - q ** (2 * k))
    g = np.diag([phase * q**k for k in range(size)])
    eye = np.eye(size)

    residuals = [
        a.conj().T @ a + g.conj().T @ g - eye,
        a @ a.conj().T + q**2 * (g @ g.conj().T) - eye,
        g @ g.conj().T - g.conj().T @ g,
        a @ g - q * (g @ a),
        a @ g.conj().T - q * (g.conj().T @ a),
    ]
    interior = slice(1, size - 1)
    return max(float(np.max(np.abs(r[interior, interior]))) for r in residuals)
