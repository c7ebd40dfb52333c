"""Modular action on characters and finite weighted-shift shadows.

The modular group scales the diagonal coefficients of a character by complex
powers of the intertwiner eigenvalues; the squared 2-norm of the twisted
character is ``Tr(rho^(-4b-1)) / Tr(rho)``, which specializes to 1 at
``b = 0`` (trace balance) and to dim/dim_q at ``b = -1/4``.  The
``SU_q(2)`` intertwiner has the spectrum ``{q^(2k-n) : k = 0..n}``, so
these functions take the ladder ``(n, q)`` and the working precision
`bits`, and return :class:`~qclassfun.dyadic.Enclosure` values.  There a
power sum is a deformed integer, so trace balance is the identity ``[n+1]_q
= [n+1]_(1/q)`` and the norm at an integer exponent runs on the ints of
:mod:`qclassfun.dyadic` (:func:`_ladder_sum`).  A non-integer exponent and
the unit-circle coefficients need ``log`` and ``exp`` of each eigenvalue
stepped by :func:`qclassfun.fusion.rho_spectrum`, in mpmath's interval
arithmetic (through :mod:`qclassfun.intervals`).

The finite model compresses the real part of the weighted shift
``a phi_k = sqrt(1 - q^(2k)) phi_(k-1)`` to the first M basis vectors.  Two
finite shadows of maximal abelianness are checked: the first basis vector is
cyclic (full Krylov rank) and the commutant of the compression is exactly the
polynomials in it (dimension M).  The compression is held exactly, by its
squared off-diagonals ``1 - q^(2k)``, and every answer is certified: the
Krylov rank is read from the exact squares, a simple spectrum and a lower
bound on the eigenvalue gap come from Sturm counts on outward-rounded float
pivots (an exact integer count where those cannot decide), and the relation
residuals are bounded in integer fixed point and read back exactly.  No
numpy is needed.
"""

from __future__ import annotations

import math
from functools import lru_cache
from fractions import Fraction

from . import dyadic
from .budgets import DEFAULT_BITS, MAX_COMMUTANT_SIZE
from .dyadic import Dyadic, Enclosure
from .errors import BudgetError, DomainError, Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Sequence

#: The two brackets around the smallest eigenvalue spacing are narrowed to
#: this fraction of it, so the printed gap is within twice it of the true gap.
GAP_RTOL = 2.0**-30

#: Bits beyond `bits`, and beyond the bits of ``|e| n``, at which a ladder
#: sum encloses `q`, ``1/q`` and their powers and runs its Horner steps.
LADDER_GUARD_BITS = 16


def _ladder_sum(n: int, q: Fraction, e: int, bits: int) -> tuple[Dyadic, Dyadic]:
    """Lower and upper dyadic bound of ``sum_k q^(e(2k-n))``, ``k = 0..n``,
    for an int `e`: ``q^(-a n) S(q^(2a))`` with ``a = |e|`` and ``S(y) = 1 +
    y + ... + y^n``.  `q` and ``1/q`` are enclosed once and raised by
    :func:`dyadic.power` at `bits` plus guard bits plus the bits of ``a n``,
    as a power multiplies the relative error of its base by its exponent.
    S has positive terms and increases with y, so Horner's rule ``s -> 1 +
    y s`` is floored from the lower end of y and ceiled from the upper one
    in fixed point, with no cancellation.  At ``e = 0`` it is exactly n + 1.
    """
    a = abs(e)
    work = bits + LADDER_GUARD_BITS + (a * n).bit_length()
    p, r = q.as_integer_ratio()
    base, inverse = dyadic.round_quotient(p, r, work), dyadic.round_quotient(r, p, work)
    y_lo = dyadic.floor_fixed(dyadic.power(base[0], 2 * a, work, False), work)
    y_hi = -dyadic.floor_fixed(dyadic.negate(dyadic.power(base[1], 2 * a, work, True)), work)
    one = 1 << work
    low = high = one
    for _ in range(n):
        low, high = one + (y_lo * low >> work), one - (-y_hi * high >> work)
    (m_lo, e_lo), (m_hi, e_hi) = (dyadic.power(inverse[0], a * n, work, False),
                                  dyadic.power(inverse[1], a * n, work, True))
    return (m_lo * low, e_lo - work), (m_hi * high, e_hi - work)


def trace_balanced(n: int, q: int | str | Fraction) -> bool:
    """Whether ``Tr(rho) = Tr(rho^-1)`` on the ladder ``(n, q)``: always,
    since the spectrum is closed under ``lam -> 1/lam`` and both traces are
    ``[n+1]_q = [n+1]_(1/q)``.  So after the one check of ``(n, q)`` it
    returns True, as :func:`krylov_rank` returns M."""
    from .fusion import check_ladder

    check_ladder(n, q)
    return True


def modular_norm_sq(n: int, q: int | str | Fraction, b,
                    bits: int = DEFAULT_BITS) -> Enclosure:
    """Squared 2-norm of the character twisted by the modular group at
    imaginary part `b`: ``sum(lam^(-4b-1)) / sum(lam)`` over the spectrum
    of the ladder ``(n, q)``.

    The real part of the modular parameter drops out, so only `b` is taken.
    `b` may be a Fraction, int, float or decimal string.  At the exponents
    ±1 the sums are equal (trace balance) and the norm is exactly 1; at any
    other integer exponent both come from :func:`_ladder_sum` and are
    divided once, rounded outward to `bits`, so the exponent costs its bit
    length in squarings.  Any other exponent runs in mpmath's intervals at
    `bits`, one eigenvalue at a time.
    """
    from .fusion import check_ladder, rho_spectrum

    q = check_ladder(n, q)
    exponent = -4 * Fraction(str(b) if isinstance(b, float) else b) - 1
    dyadic.check_bits(bits)
    if exponent.denominator == 1:
        if abs(exponent) == 1:
            return Enclosure((1, 0), (1, 0), bits)
        powered, total = _ladder_sum(n, q, exponent.numerator, bits), _ladder_sum(n, q, 1, bits)
        return Enclosure(dyadic.divide(powered[0], total[1], bits, False),
                         dyadic.divide(powered[1], total[0], bits, True), bits)
    from . import intervals

    with intervals.precision(bits) as ctx:
        e, total, powered = intervals.make(exponent, ctx), 0, 0
        for num, den in rho_spectrum(n, q):
            lam = intervals.quotient(num, den, ctx)
            total, powered = total + lam, powered + lam**e
        return intervals.to_enclosure(powered / total)


def modular_eigencoefficients(n: int, q: int | str | Fraction, t: int | str | Fraction,
                              bits: int = DEFAULT_BITS) -> list[tuple[Enclosure, Enclosure]]:
    """Unit-circle coefficients ``lam^(2it)`` of the twisted character, for
    the eigenvalues of the ladder ``(n, q)`` and the exact `t`.

    Returns (real, imaginary) enclosure pairs at `bits`, one per eigenvalue,
    in the order of :func:`qclassfun.fusion.rho_spectrum`.  At ``t = 0``
    every coefficient is 1.
    """
    from . import intervals
    from .fusion import rho_spectrum

    spectrum = rho_spectrum(n, q)
    with intervals.precision(bits) as ctx:
        twice_t = 2 * intervals.make(t, ctx)
        out = []
        for num, den in spectrum:
            angle = twice_t * ctx.log(intervals.quotient(num, den, ctx))
            out.append((intervals.to_enclosure(ctx.cos(angle)),
                        intervals.to_enclosure(ctx.sin(angle))))
    return out


# ---------------------------------------------------------------------------
# finite weighted-shift model


class JacobiOperator(Record):
    """Symmetric tridiagonal compression with zero diagonal, held exactly.

    Entry k of `squares` is the squared off-diagonal ``1 - q^(2(k+1))``, a
    rational for rational q.  All entries are strictly positive, which makes
    the spectrum simple and the first basis vector cyclic.
    """

    __slots__ = ("size", "squares")

    def __init__(self, size: int, squares: tuple[Fraction, ...],
                 _set=object.__setattr__) -> None:
        if size < 2:
            raise DomainError(f"need size >= 2, got {size}")
        if len(squares) != size - 1:
            raise DomainError("off-diagonal length must be size - 1")
        if any(entry <= 0 for entry in squares):
            raise DomainError("off-diagonal entries must be strictly positive")
        _set(self, "size", size)
        _set(self, "squares", squares)

    @property
    def off_diagonal(self) -> tuple[float, ...]:
        """The off-diagonal entries as floats, for display."""
        return tuple(math.sqrt(entry) for entry in self.squares)


def build_jacobi(size: int, q: Fraction | int | float | str) -> JacobiOperator:
    """Compression of the real part of the weighted shift to M basis vectors.

    `q` is read exactly; a float as the binary rational it denotes.
    """
    q = Fraction(q)
    if not 0 < q < 1:
        raise DomainError(f"q must lie in (0, 1), got {q}")
    squares, power = [], Fraction(1)
    for _ in range(size - 1):
        power *= q * q
        squares.append(1 - power)
    return JacobiOperator(size, tuple(squares))


def krylov_rank(op: JacobiOperator) -> int:
    """Krylov rank of e0 under the compression: always M.

    ``T^k e0`` reaches basis vector k with coefficient ``b_0 ... b_(k-1)`` and
    none beyond it, so the rank is M exactly when no square vanishes, which
    :class:`JacobiOperator` checks exactly at construction: e0 is cyclic.
    """
    return op.size


def _float_bounds(value: Fraction) -> tuple[float, float]:
    """The floats nearest to `value` below and above it (equal for a float)."""
    near = float(value)
    exact = Fraction(near)
    if exact < value:
        return near, math.nextafter(near, math.inf)
    if exact > value:
        return math.nextafter(near, -math.inf), near
    return near, near


def _exact_count(squares: Sequence[Fraction], x: float) -> int:
    """Number of eigenvalues below `x`, exactly.

    It is the number of sign changes along the leading minors
    ``r_k = det(T_k - x)``, which obey ``r_k = -x r_(k-1) - b_(k-1)^2 r_(k-2)``.
    With ``x = a/s`` and ``b_k^2 = n_k/m_k`` the minors scaled by
    ``s^(k+1) m_0 ... m_(k-1)`` are integers with the same signs:
    ``R_k = -a m_(k-1) R_(k-1) - n_(k-1) m_(k-2) s^2 R_(k-2)``.  A vanishing
    minor inside a block is skipped (its neighbours have opposite signs), and
    the sequence restarts where a square vanishes and the matrix splits.
    """
    a, s = x.as_integer_ratio()
    count, sign = 0, 1
    before, last, m_before = 0, 1, 1
    for entry in (0, *squares):
        n, m = Fraction(entry).as_integer_ratio()
        if n == 0:
            last, sign = 1, 1
        before, last, m_before = last, -a * m * last - n * m_before * s * s * before, m
        if last:
            count += (last < 0) != (sign < 0)
            sign = last
    return count


def _count_below(bounds: Sequence[tuple[float, float]], x: float) -> int | None:
    """Certified number of eigenvalues below `x`, or None.

    By Sylvester's law of inertia it is the number of negative pivots
    ``d_k = -x - b_(k-1)^2 / d_(k-1)`` of ``T - x = L D L^T`` (Barth, Martin
    and Wilkinson 1967).  Each pivot is enclosed in floats rounded outward
    from the enclosures `bounds` of the squares; None means an enclosure
    holds 0, so its sign is not certified.
    """
    nextafter, inf, ninf = math.nextafter, math.inf, -math.inf
    neg = -x
    lo = hi = neg
    count = 0
    for square_lo, square_hi in bounds:
        if lo > 0:
            lo, hi = (nextafter(neg - nextafter(square_hi / lo, inf), ninf),
                      nextafter(neg - nextafter(square_lo / hi, ninf), inf))
        elif hi < 0:
            count += 1
            lo, hi = (nextafter(neg - nextafter(square_lo / lo, inf), ninf),
                      nextafter(neg - nextafter(square_hi / hi, ninf), inf))
        else:
            return None
    if lo > 0:
        return count
    if hi < 0:
        return count + 1
    return None


@lru_cache(maxsize=8)
def _isolate(squares: tuple[Fraction, ...]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Certified brackets ``lows[i] <= lambda_i < highs[i]`` of the
    eigenvalues in increasing order, with ``highs[i] <= lows[i + 1]``.

    Bracket i ends with exactly i eigenvalues below ``lows[i]`` and i + 1
    below ``highs[i]``, so it holds one eigenvalue and the spectrum is simple.
    The two brackets around the smallest spacing are then narrowed to
    ``GAP_RTOL`` times that spacing, or to float resolution.  Reaching float
    resolution before a bracket holds one eigenvalue, as at a multiple
    eigenvalue, raises :class:`BudgetError`.
    """
    size = len(squares) + 1
    if size > MAX_COMMUTANT_SIZE:
        raise BudgetError(f"Sturm-count model capped at size {MAX_COMMUTANT_SIZE}")
    bounds = [_float_bounds(Fraction(entry)) for entry in squares]
    # Gershgorin: every |lambda| is at most 2 max b_k, below this power of two.
    radius = math.ldexp(1.0, math.frexp(2 * math.sqrt(max(hi for _, hi in bounds)))[1] + 1)
    lows, highs = [-radius] * size, [radius] * size
    low_counts, high_counts = [0] * size, [size] * size

    def split(i: int) -> bool:
        # Bisect bracket i, or return False at float resolution; the count
        # also tightens the brackets after it.  Where the float count is not
        # certified at the midpoint (a leading minor vanishes near it), two
        # other inner points are tried before the exact count.
        lo, hi = lows[i], highs[i]
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            return False
        for point in (mid, (5 * lo + 3 * hi) / 8, (3 * lo + 5 * hi) / 8):
            count = _count_below(bounds, point) if lo < point < hi else None
            if count is not None:
                break
        else:
            point, count = mid, _exact_count(squares, mid)
        for j in range(i, count):
            if point < highs[j]:
                highs[j], high_counts[j] = point, count
        for j in range(max(i, count), size):
            if point > lows[j]:
                lows[j], low_counts[j] = point, count
        return True

    for i in range(size):
        while low_counts[i] != i or high_counts[i] != i + 1:
            if not split(i):
                raise BudgetError("eigenvalue brackets reached float resolution: "
                                  "the spectrum is not certified simple")
    while True:
        spacings = [low - high for low, high in zip(lows[1:], highs)]
        spacing = min(spacings)
        j = spacings.index(spacing)
        wide = [k for k in (j, j + 1) if highs[k] - lows[k] > GAP_RTOL * spacing]
        if not any([split(k) for k in wide]):
            return tuple(lows), tuple(highs)


def matrix_commutant_dim(size: int, squares: Sequence[Fraction]) -> int:
    """Dimension of ``{X : XT = TX}`` for the zero-diagonal tridiagonal of
    order `size` with squared off-diagonals `squares`.

    For a symmetric matrix it is the sum of the squared multiplicities, which
    is `size` exactly when the spectrum is simple.  That is certified by
    :func:`_isolate`; a spectrum it cannot certify simple raises
    :class:`BudgetError`, so a multiple eigenvalue is never reported as `size`.
    """
    if size < 2 or len(squares) != size - 1 or any(entry < 0 for entry in squares):
        raise DomainError("need size >= 2 and size - 1 nonnegative squares")
    _isolate(tuple(squares))
    return size


def commutant_dim(op: JacobiOperator) -> int:
    """Commutant dimension of the compression; M means simple spectrum
    and commutant = polynomials in the operator."""
    return matrix_commutant_dim(op.size, op.squares)


def min_eigenvalue_gap(op: JacobiOperator) -> float:
    """Certified lower bound on the smallest spacing between consecutive
    eigenvalues, within a relative ``2 * GAP_RTOL`` of it."""
    lows, highs = _isolate(op.squares)
    return min(_float_bounds(Fraction(lo) - Fraction(hi))[0] for lo, hi in zip(lows[1:], highs))


def suq2_relation_residuals(size: int, q: Fraction | int | float | str,
                            phase: Fraction | int | str = 0) -> float:
    """Certified upper bound on the interior residuals of the deformed-unitary
    generator relations.

    The truncated shift ``a phi_k = sqrt(1 - q^(2k)) phi_(k-1)`` and diagonal
    ``g phi_k = e^(i phase) q^k phi_k`` (`q` and the angle `phase` read
    exactly) enter

        a* a + g* g - 1,   a a* + q^2 g g* - 1,   g g* - g* g,
        a g - q g a,       a g* - q g* a

    restricted to rows and columns 1..M-2.  The first three are diagonal and
    the last two hold only the superdiagonal, where ``a g* - q g* a`` is the
    complex conjugate of ``a g - q g a``; so the O(M) entries are enclosed one
    by one in integer fixed point at the default 128 fraction bits, with
    ``sqrt(1 - q^(2k))`` from :func:`dyadic.fixed_sqrt` and ``cos`` and
    ``sin`` of the phase from :func:`dyadic.fixed_cos_sin`.  Compression
    breaks the relations only in the last row and column, so every interior
    entry encloses 0.
    """
    if size < 4:
        raise DomainError(f"need size >= 4 to have an interior block, got {size}")
    q = Fraction(q)
    if not 0 < q < 1:
        raise DomainError(f"q must lie in (0, 1), got {q}")
    p = DEFAULT_BITS
    one = 1 << p
    unit = [dyadic.fixed_abs(part) for part in dyadic.fixed_cos_sin(Fraction(phase), p)]
    modulus_sq = tuple(map(sum, zip(*(dyadic.fixed_mul(part, part, p) for part in unit))))
    base = dyadic.to_fixed(q, p)
    powers = [(one, one)]
    for _ in range(size - 1):
        powers.append(dyadic.fixed_mul(powers[-1], base, p))
    squares = [dyadic.fixed_mul(power, power, p) for power in powers]
    shift = [dyadic.fixed_sqrt((one - hi, one - lo), p) for lo, hi in squares]

    def sum_minus_one(x: dyadic.Fixed, y: dyadic.Fixed) -> int:
        # bound of |x + y - 1|
        return max(one - x[0] - y[0], x[1] + y[1] - one)

    bound = 0
    for k in range(1, size - 1):
        g_sq = dyadic.fixed_mul(modulus_sq, squares[k], p)
        bound = max(bound,
                    sum_minus_one(dyadic.fixed_mul(shift[k], shift[k], p), g_sq),
                    sum_minus_one(dyadic.fixed_mul(shift[k + 1], shift[k + 1], p),
                                  dyadic.fixed_mul(squares[1], g_sq, p)),
                    g_sq[1] - g_sq[0])
        if k >= 2:  # entry (k-1, k) of a g - q g a, real and imaginary parts
            left = dyadic.fixed_mul(shift[k], powers[k], p)
            right = dyadic.fixed_mul(dyadic.fixed_mul(powers[1], powers[k - 1], p), shift[k], p)
            gap = max(left[1] - right[0], right[1] - left[0])
            bound = max(bound, *(-(-gap * part[1] >> p) for part in unit))
    return _float_bounds(Fraction(bound, one))[1]
