"""Modular action on characters and finite weighted-shift shadows.

The modular group scales the diagonal coefficients of a character by complex
powers of the intertwiner eigenvalues; the squared 2-norm of the twisted
character is ``Tr(rho^(-4b-1)) / Tr(rho)``, which specializes to 1 at
``b = 0`` (trace balance) and to dim/dim_q at ``b = -1/4``.  The
``SU_q(2)`` intertwiner has the spectrum ``{q^(2k-n) : k = 0..n}``, so
these functions take the ladder ``(n, q)`` and the working precision
`bits`, and return :class:`~qclassfun.dyadic.Enclosure` values, all on the
ints of :mod:`qclassfun.dyadic`.  There a power sum is a deformed integer,
so trace balance is the identity ``[n+1]_q = [n+1]_(1/q)``, and the norm at
any exponent is one ladder sum (:func:`_ladder_sum`), whose powers of `q`
are ``exp(c log q)``.  The unit-circle coefficients are the cosines and sines
of the multiples ``(2k-n) 2t log q`` of one angle.  Each function takes one
``log q`` at most, and none steps the spectrum.

The finite model compresses the real part of the weighted shift
``a phi_k = sqrt(1 - q^(2k)) phi_(k-1)`` to the first M basis vectors.  Two
finite shadows of maximal abelianness are checked: the first basis vector is
cyclic (full Krylov rank) and the commutant of the compression is exactly the
polynomials in it (dimension M).  The compression is held exactly, by its
squared off-diagonals ``1 - q^(2k)``, and every answer is certified: the
Krylov rank and the simple spectrum follow from the exact check that every
square is positive, a lower bound on the eigenvalue gap comes from Sturm
counts on outward-rounded float pivots (an exact integer count where those
cannot decide), and the relation residuals are bounded in integer fixed
point and read back exactly.  Nothing computed outlives the call.  The size
M is a count of at most ``MAX_COMMUTANT_SIZE``, checked before anything of
that size is allocated.  No numpy is needed.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import dyadic
from .budgets import DEFAULT_BITS, MAX_BITS, MAX_COMMUTANT_SIZE
from .dyadic import Dyadic, Enclosure
from .errors import BudgetError, DomainError, Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Sequence

#: The two brackets around the smallest eigenvalue spacing are narrowed to
#: this fraction of it, so the printed gap is within twice it of the true gap.
GAP_RTOL = 2.0**-30

#: Guard bits of the ladder's modular functions.  Beyond `bits` and the bits
#: of ``|e| n``, a ladder sum encloses ``log q`` and the exponentials of its
#: multiples and runs its Horner steps; beyond `bits` and the bits that ``log
#: q`` lies below 1 and the largest angle above it, the coefficients
#: enclose ``log q``, and beyond those that an angle lies below 1, sum its
#: cosine and sine.
LADDER_GUARD_BITS = 16


def _ladder_sum(n: int, q: Fraction, e: int | Fraction, bits: int) -> tuple[Dyadic, Dyadic]:
    """Lower and upper dyadic bound of ``sum_k q^(e(2k-n))``, ``k = 0..n``:
    ``q^(-a n) S(q^(2a))`` with ``a = |e|`` and ``S(y) = 1 + y + ... + y^n``.
    ``log q`` is enclosed once by :func:`dyadic.fixed_log` and both powers
    are ``e^(c log q)`` from :func:`dyadic.exp`, at `bits` plus guard bits
    plus the bits of ``a n``, as a power multiplies the error of a
    logarithm by its exponent.  S has positive terms and increases with y,
    so Horner's rule ``s -> 1 + y s`` is floored from the lower end of y and
    ceiled from the upper one in fixed point, with no cancellation.  At
    ``e = 0`` it is exactly n + 1.
    """
    a = abs(e)
    work = bits + LADDER_GUARD_BITS + math.ceil(a * n).bit_length()
    log_lo, log_hi = dyadic.fixed_log(q, work)  # log q <= 0

    def exp_of(c: Fraction, log: int, ceiling: bool) -> Dyadic:
        # e^(c log q) at the end of log q that bounds it, rounded the same way
        top, c_den = c.numerator * log, c.denominator
        return dyadic.exp((-(-top // c_den) if ceiling else top // c_den, -work), work, ceiling)

    y = exp_of(2 * a, log_lo, False), exp_of(2 * a, log_hi, True)
    scale = exp_of(-a * n, log_hi, False), exp_of(-a * n, log_lo, True)
    y_lo = dyadic.floor_fixed(y[0], work)
    y_hi = -dyadic.floor_fixed(dyadic.negate(y[1]), work)
    one = 1 << work
    low = high = one
    for _ in range(n):
        low, high = one + (y_lo * low >> work), one - (-y_hi * high >> work)
    (m_lo, e_lo), (m_hi, e_hi) = scale
    return (m_lo * low, e_lo - work), (m_hi * high, e_hi - work)


def trace_balanced(n: int, q: int | str | Fraction) -> bool:
    """Whether ``Tr(rho) = Tr(rho^-1)`` on the ladder ``(n, q)``: always,
    since the spectrum is closed under ``lam -> 1/lam`` and both traces are
    ``[n+1]_q = [n+1]_(1/q)``.  So after the one check of ``(n, q)`` it
    returns True, as :func:`krylov_rank` returns M."""
    from .fusion import check_ladder

    check_ladder(n, q)
    return True


def modular_norm_sq(n: int, q: int | str | Fraction, b: int | str | Fraction,
                    bits: int = DEFAULT_BITS) -> Enclosure:
    """Squared 2-norm of the character twisted by the modular group at
    imaginary part `b`: ``sum(lam^(-4b-1)) / sum(lam)`` over the spectrum
    of the ladder ``(n, q)``.

    The real part of the modular parameter drops out, so only `b` is taken,
    read by :func:`dyadic.read_rational` as `q` is.  At the exponents ±1 the
    sums are equal (trace balance) and the norm is exactly 1; at any other
    exponent both sums come from :func:`_ladder_sum` and are divided once,
    rounded outward to `bits`; each sum costs one ``log q`` and two
    exponentials.
    """
    from .fusion import check_ladder

    q = check_ladder(n, q)
    exponent = -4 * dyadic.read_rational(b) - 1
    dyadic.check_count(bits, "bits", 1, MAX_BITS)
    if abs(exponent) == 1:
        return Enclosure((1, 0), (1, 0), bits)
    powered, total = _ladder_sum(n, q, exponent, bits), _ladder_sum(n, q, 1, bits)
    return Enclosure(dyadic.divide(powered[0], total[1], bits, False),
                     dyadic.divide(powered[1], total[0], bits, True), bits)


def modular_eigencoefficients(n: int, q: int | str | Fraction, t: int | str | Fraction,
                              bits: int = DEFAULT_BITS) -> list[tuple[Enclosure, Enclosure]]:
    """Unit-circle coefficients ``lam^(2it)`` of the twisted character, for
    the eigenvalues of the ladder ``(n, q)`` and `t`, read as `q` is.

    Returns (real, imaginary) enclosure pairs at `bits`, one per eigenvalue,
    in the order of :func:`qclassfun.fusion.rho_spectrum`.  The coefficient
    of ``q^j`` is ``cos(j theta) + i sin(j theta)`` with ``theta = 2t log
    q``, so ``log q`` is enclosed once by :func:`dyadic.fixed_log`, at bits
    enough that ``|j| theta`` keeps `bits` bits of its own size, below 1, or
    of a unit, above 1.  Each ``|j|`` runs :func:`dyadic.fixed_cos_sin` once,
    at the exact midpoint of ``|j| theta`` and at as many fraction bits more
    as that lies below 1, widened by ``|j|`` times the radius of theta, as
    cos and sin are 1-Lipschitz; ``-j`` negates the sine.  At ``t = 0`` or
    ``q = 1`` every coefficient is exactly 1.
    """
    from .fusion import check_ladder

    q = check_ladder(n, q)
    t = dyadic.read_rational(t)
    dyadic.check_count(bits, "bits", 1, MAX_BITS)
    if not t or q == 1:
        return [(Enclosure((1, 0), (1, 0), bits), Enclosure((0, 0), (0, 0), bits))] * (n + 1)
    p, r = q.as_integer_ratio()
    # 1 - q <= |log q| <= 1/q - 1
    below = r.bit_length() - (r - p).bit_length() + 1
    above = math.ceil(2 * abs(t) * n * Fraction(r - p, p)).bit_length()
    work = bits + LADDER_GUARD_BITS + below + above
    log_lo, log_hi = dyadic.fixed_log(q, work)
    mid = t * Fraction(log_lo + log_hi, 1 << work)
    radius = abs(t) * Fraction(log_hi - log_lo, 1 << work)
    cells = {}
    for j in range(n % 2, n + 1, 2):
        angle = j * mid
        size = angle.denominator.bit_length() - abs(angle.numerator).bit_length()
        frac_bits = bits + LADDER_GUARD_BITS + max(size, 0)
        widen = -(-(j * radius.numerator << frac_bits) // radius.denominator)
        cos, sin = (dyadic.fixed_enclosure(lo - widen, hi + widen, frac_bits, bits)
                    for lo, hi in dyadic.fixed_cos_sin(angle, frac_bits))
        cells[j] = cos, sin
        cells[-j] = cos, Enclosure(dyadic.negate(sin.hi), dyadic.negate(sin.lo), bits)
    return [cells[2 * k - n] for k in range(n + 1)]


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


def _check_size(size: int, low: int = 2) -> None:
    """The check of a matrix size: a count of at least `low`, and at most
    ``MAX_COMMUTANT_SIZE``, the cap of the Sturm-count model, checked before
    anything of that size is allocated."""
    dyadic.check_count(size, "size", low)
    if size > MAX_COMMUTANT_SIZE:
        raise BudgetError(f"Sturm-count model capped at size {MAX_COMMUTANT_SIZE}")


def _read_q(q: int | str | Fraction) -> Fraction:
    """`q` read by :func:`dyadic.read_rational`; it must lie in (0, 1)."""
    q = dyadic.read_rational(q)
    if not 0 < q < 1:
        raise DomainError(f"q must lie in (0, 1), got {q}")
    return q


def build_jacobi(size: int, q: int | str | Fraction) -> JacobiOperator:
    """Compression of the real part of the weighted shift to M basis vectors;
    `size` is checked by :func:`_check_size` and `q` read by :func:`_read_q`."""
    _check_size(size)
    q = _read_q(q)
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


def _split(squares: tuple[Fraction, ...], bounds: list[tuple[float, float]],
           brackets: tuple[list, list, list, list], i: int) -> bool:
    """Bisect bracket i of ``brackets = (lows, highs, low_counts,
    high_counts)`` in place, or return False at float resolution; the count
    also tightens the brackets after it.  Where the float count is not
    certified at the midpoint (a leading minor vanishes near it), two other
    inner points are tried before the exact count."""
    lows, highs, low_counts, high_counts = brackets
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
    for j in range(max(i, count), len(lows)):
        if point > lows[j]:
            lows[j], low_counts[j] = point, count
    return True


def _isolate(squares: Sequence[Fraction]) -> tuple[list, tuple[list, list, list, list]]:
    """Certified brackets ``lows[i] <= lambda_i < highs[i]`` of the
    eigenvalues in increasing order, with ``highs[i] <= lows[i + 1]``.

    Returns the float bounds of the squares and the brackets ``(lows, highs,
    low_counts, high_counts)`` that :func:`_split` narrows.  Bracket i ends
    with exactly i eigenvalues below ``lows[i]`` and i + 1 below
    ``highs[i]``, so it holds one eigenvalue and the spectrum is simple.
    Reaching float resolution before a bracket holds one eigenvalue, as at a
    multiple eigenvalue, raises :class:`BudgetError`.
    """
    size = len(squares) + 1
    _check_size(size)
    bounds = [_float_bounds(Fraction(entry)) for entry in squares]
    # Gershgorin: every |lambda| is at most 2 max b_k, below this power of two.
    radius = math.ldexp(1.0, math.frexp(2 * math.sqrt(max(hi for _, hi in bounds)))[1] + 1)
    brackets = lows, highs, low_counts, high_counts = (
        [-radius] * size, [radius] * size, [0] * size, [size] * size)
    for i in range(size):
        while low_counts[i] != i or high_counts[i] != i + 1:
            if not _split(squares, bounds, brackets, i):
                raise BudgetError("eigenvalue brackets reached float resolution: "
                                  "the spectrum is not certified simple")
    return bounds, brackets


def matrix_commutant_dim(size: int, squares: Sequence[Fraction]) -> int:
    """Dimension of ``{X : XT = TX}`` for the zero-diagonal tridiagonal T of
    order `size` with squared off-diagonals `squares`.

    For a symmetric matrix it is the sum of the squared multiplicities, which
    is `size` exactly when the spectrum is simple.  Where every square is
    positive it is: deleting the first row and the last column of ``T - x``
    leaves a triangular matrix whose diagonal is the nonzero off-diagonals,
    so ``rank(T - x) >= size - 1`` for every x, every eigenvalue is simple,
    and the commutant is the algebra of polynomials in T, of dimension
    `size` (Parlett, *The Symmetric Eigenvalue Problem*, 1998, ch. 7).  A
    zero square splits T into blocks that may share an eigenvalue, so there
    the spectrum is certified simple by :func:`_isolate`, and one it cannot
    certify raises :class:`BudgetError`: a multiple eigenvalue is never
    reported as `size`.  `size` is checked by :func:`_check_size` and each
    square read by :func:`dyadic.read_rational`.
    """
    _check_size(size)
    squares = tuple(map(dyadic.read_rational, squares))
    if len(squares) != size - 1 or any(entry < 0 for entry in squares):
        raise DomainError("need size >= 2 and size - 1 nonnegative squares")
    if not all(squares):
        _isolate(squares)
    return size


def commutant_dim(op: JacobiOperator) -> int:
    """Commutant dimension of the compression: M, as every square is
    positive, so the spectrum is simple and the commutant is the
    polynomials in the operator (see :func:`matrix_commutant_dim`)."""
    return matrix_commutant_dim(op.size, op.squares)


def min_eigenvalue_gap(op: JacobiOperator) -> float:
    """Certified lower bound on the smallest spacing between consecutive
    eigenvalues, within a relative ``2 * GAP_RTOL`` of it.

    The two brackets of :func:`_isolate` around the smallest spacing are
    narrowed in place to ``GAP_RTOL`` times that spacing, or to float
    resolution; each still holds one eigenvalue."""
    squares = op.squares
    bounds, brackets = _isolate(squares)
    lows, highs = brackets[:2]
    while True:
        spacings = [low - high for low, high in zip(lows[1:], highs)]
        spacing = min(spacings)
        j = spacings.index(spacing)
        wide = [k for k in (j, j + 1) if highs[k] - lows[k] > GAP_RTOL * spacing]
        if not any([_split(squares, bounds, brackets, k) for k in wide]):
            break
    return min(_float_bounds(Fraction(lo) - Fraction(hi))[0] for lo, hi in zip(lows[1:], highs))


def suq2_relation_residuals(size: int, q: int | str | Fraction,
                            phase: int | str | Fraction = 0) -> float:
    """Certified upper bound on the interior residuals of the deformed-unitary
    generator relations.

    The truncated shift ``a phi_k = sqrt(1 - q^(2k)) phi_(k-1)`` and diagonal
    ``g phi_k = e^(i phase) q^k phi_k`` (`q` read by :func:`_read_q`, the
    angle `phase` by :func:`dyadic.read_rational`) enter

        a* a + g* g - 1,   a a* + q^2 g g* - 1,   g g* - g* g,
        a g - q g a,       a g* - q g* a

    restricted to rows and columns 1..M-2.  The first three are diagonal and
    the last two hold only the superdiagonal, where ``a g* - q g* a`` is the
    complex conjugate of ``a g - q g a``; so the O(M) entries are enclosed one
    by one in integer fixed point at the default 128 fraction bits, with
    ``sqrt(1 - q^(2k))`` from :func:`dyadic.fixed_sqrt` and ``cos`` and
    ``sin`` of the phase from :func:`dyadic.fixed_cos_sin`.  Compression
    breaks the relations only in the last row and column, so every interior
    entry encloses 0.  `size` is checked by :func:`_check_size`; it must be
    at least 4 to have an interior block.
    """
    _check_size(size, 4)
    q, phase = _read_q(q), dyadic.read_rational(phase)
    p = DEFAULT_BITS
    one = 1 << p
    unit = [dyadic.fixed_abs(part) for part in dyadic.fixed_cos_sin(phase, p)]
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
