"""Certified summability criteria, series bounds, thresholds and verdicts.

The central quantity is the series of square roots of classical-over-quantum
dimension ratios, summed over all irreducible labels.  A finite value
certifies the quasi-split property of the class-function inclusion; combined
with the absence of nontrivial labels with trivial intertwiner it yields the
"not a MASA" verdict (ladder families) or the relative-commutant conclusion
(free-unitary families, where the class-function algebra is non-abelian).

Every sum is certified: terms are enclosed with outward rounding and a
geometric majorant bounds the tail, so reported values are true enclosures,
never point estimates.  Root findings below use bisection on functions whose
monotonicity is first certified on a grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable

from . import fusion, intervals
from .errors import BudgetError, DomainError, FamilyError, KacTypeError
from .fusion import FusionFamily, Label
from .intervals import MAX_BITS, Context, Interval, IntervalLike
from .scalars import q_number, solve_fundamental_q

DEFAULT_MAX_TERMS = 10_000

#: sup of the multiplicity of the top component in fundamental-times-ladder
#: fusion; both ladder kinds have multiplicity one there.
LADDER_SUP_C = 1

VERDICT_NOT_MASA = "not a MASA"
VERDICT_RELATIVE_COMMUTANT = (
    "quasi-split; relative commutant not contained in class functions"
)
VERDICT_NO_CONCLUSION = "no conclusion"


class Verdict(Enum):
    CONVERGES = "converges"
    DIVERGES = "diverges"
    UNDETERMINED = "undetermined"


class QuasiSplit(Enum):
    YES = "yes"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of a certified summation.

    When `verdict` is CONVERGES, the true sum lies in ``partial_sum +
    tail_bound`` where `tail_bound` encloses the omitted tail from below by 0.
    """

    verdict: Verdict
    partial_sum: Interval | None = None
    tail_bound: Interval | None = None
    terms_used: int = 0

    def sum_enclosure(self) -> Interval:
        """Enclosure of the full series value (CONVERGES only), in the
        context of `partial_sum`."""
        if self.verdict is not Verdict.CONVERGES:
            raise DomainError(f"series did not converge: {self.verdict.value}")
        assert self.partial_sum is not None and self.tail_bound is not None
        total = self.partial_sum + self.tail_bound
        return intervals.from_endpoints(
            intervals.lower(self.partial_sum), intervals.upper(total), total.ctx
        )


def _doublings(bits: int) -> list[int]:
    """`bits`, then twice, four times ... as much while at most MAX_BITS.
    `bits` itself always comes first, so its context rejects it if invalid."""
    return [bits << k for k in range(MAX_BITS.bit_length()) if k == 0 or bits << k <= MAX_BITS]


def _tol_fraction(tol) -> Fraction:
    """`tol` as an exact positive rational; floats are read by their repr."""
    try:
        value = Fraction(tol) if isinstance(tol, (int, Fraction)) else Fraction(str(tol))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"tolerance must be a positive rational, got {tol!r}") from exc
    if value <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    return value


# ---------------------------------------------------------------------------
# ratios and exponential decay


def ratio_exact(label: Label, family: FusionFamily) -> Fraction:
    """Exact classical/quantum dimension ratio of a label (<= 1 always)."""
    return Fraction(fusion.dim(label, family, "classical")) / fusion.dim(
        label, family, "quantum"
    )


def ratio(label: Label, family: FusionFamily) -> Interval:
    """Enclosure of dim/dim_q; exactly 1 on the trivial label and in the
    Kac case."""
    return intervals.make(ratio_exact(label, family))


def verify_decay(family: FusionFamily, n_max: int) -> bool:
    """Exact check of the paper's decay lemma: ``A_(n+1) >= c A_n`` for
    ``1 <= n < n_max``, with ``c = 1 + (A_1 - 1)/sup_c``.

    This is the exact reproduction of the lemma; the certified sums below
    use the sharper majorant of the deformed-integer closed form instead.
    """
    if not family.is_ladder:
        raise FamilyError("decay verification applies to ladder families")
    classical = fusion.ladder_dims(family.kind, Fraction(family.dim_c_fund))
    quantum = fusion.ladder_dims(family.kind, family.dim_q_fund)
    ratios = (q / c for c, q in zip(classical, quantum))
    next(ratios)  # A_0
    previous = next(ratios)  # A_1
    if previous <= 1:
        raise KacTypeError("Kac-type family has no decay rate")
    c = 1 + (previous - 1) / LADDER_SUP_C
    for _ in range(1, n_max):
        current = next(ratios)
        if current < c * previous:
            return False
        previous = current
    return True


# ---------------------------------------------------------------------------
# certified series


def _is_exact_one(x: Interval) -> bool:
    return intervals.lower(x) == 1 and intervals.upper(x) == 1


def _deformed_ratio_sum(
    roots: Callable[[Context], tuple[Interval, Interval]],
    step: int,
    first: int,
    tol,
    bits: int,
    max_terms: int,
) -> SeriesResult:
    """Certified ``sum sqrt([m]_x / [m]_y)`` over ``m = first, first+step, ...``.

    ``roots(ctx)`` encloses ``0 < y < x <= 1`` in the context `ctx`, and
    ``[m]_t = t^(1-m) (1 - t^(2m)) / (1 - t^2)`` is the deformed integer
    (``m`` itself when ``x`` is exactly 1).  With ``z = sqrt(y/x)`` the term
    is ``z^(m-1) sqrt(a_m (1 - y^2) / (1 - y^(2m)))``, where
    ``a_m = (1 - x^(2m)) / (1 - x^2)`` (``m`` at ``x = 1``).  The powers
    ``x^(2m)``, ``y^(2m)`` and ``z^(m-1)`` are carried from term to term
    by one multiplication each, so a term costs O(1) interval operations.

    Each term with ``m >= 2`` is at most ``C z^(m-1)``, where
    ``C = ((1 - x^2)(1 + y^2))^(-1/2)``, because ``1 - x^(2m) <= 1`` and
    ``(1 - y^2)/(1 - y^(2m)) <= 1/(1 + y^2)``; at ``x = 1`` it is at most
    ``m z^(m-1)``.  With ``w = z^step`` the tail after term ``m`` is then
    at most ``C z^(m-1) w/(1-w)``, or ``z^(m-1) (m w/(1-w) + step w/(1-w)^2)``
    at ``x = 1``, and summation stops once that majorant is at most `tol`.
    A term certainly above its own majorant is a bug and raises.

    Up to `max_terms` terms are summed at each precision, starting at
    `bits` and doubling up to MAX_BITS while a budget-exhausted majorant
    still reaches down to `tol`.
    """
    if max_terms < 1:
        raise DomainError(f"need a positive term budget, got {max_terms}")
    tol = _tol_fraction(tol)
    partial = None
    for bits in _doublings(bits):
        with intervals.precision(bits) as ctx:
            x, y = roots(ctx)
            unit = _is_exact_one(x)
            z = intervals.isqrt(y if unit else y / x)
            w = z**step
            if not (intervals.upper(w) < 1 and intervals.upper(y) < 1
                    and (unit or intervals.upper(x) < 1)):
                continue  # y and x are not separated at this precision
            x2, y2 = x * x, y * y
            x_step, y_step = x2**step, y2**step
            xm, ym, zm = x2**first, y2**first, z ** (first - 1)
            one_minus_y2 = 1 - y2
            geometric = w / (1 - w)
            if unit:
                poly = step * geometric / (1 - w)
            else:
                inv_one_minus_x2 = 1 / (1 - x2)
                scale = 1 / intervals.isqrt((1 - x2) * (1 + y2))
                tail_factor = scale * geometric
            partial = intervals.make(0, ctx)
            m = first
            for terms in range(1, max_terms + 1):
                a_m = m if unit else (1 - xm) * inv_one_minus_x2
                term = zm * intervals.isqrt(a_m * one_minus_y2 / (1 - ym))
                if intervals.lower(term) > intervals.upper(zm * (m if unit else scale)):
                    raise AssertionError(f"term {m} exceeds its majorant; kernel bug")
                partial += term
                majorant = zm * (m * geometric + poly if unit else tail_factor)
                hi = intervals.exact_endpoints(majorant)[1]
                if hi is not None and hi <= tol:
                    tail = intervals.from_endpoints(0, intervals.upper(majorant), ctx)
                    return SeriesResult(Verdict.CONVERGES, partial, tail, terms)
                m += step
                xm *= x_step
                ym *= y_step
                zm *= w
            lo = intervals.exact_endpoints(majorant)[0]
            if lo is not None and lo > tol:
                break  # the tail genuinely exceeds tol; more bits cannot help
    return SeriesResult(Verdict.UNDETERMINED, partial, None,
                        0 if partial is None else max_terms)


def quasi_split_sum_ladder(
    family: FusionFamily,
    tol,
    bits: int = intervals.DEFAULT_BITS,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesResult:
    """Certified sum of sqrt(dim(n)/dim_q(n)) over all ladder labels n >= 0.

    Ladder dimensions are deformed integers: ``dim(n) = [n+1]_t`` for
    two-term fusion, with ``t + 1/t`` the fundamental dimension, and
    ``dim(n) = [2n+1]_r`` for three-term (so3) fusion, with
    ``r^2 + r^-2`` the fundamental dimension minus 1.  The series is
    therefore summed by :func:`_deformed_ratio_sum` over ``m = n+1``
    (resp. ``m = 2n+1``) with ``x`` the classical root and ``y`` the
    quantum one; ``x = 1`` exactly at N = 2 (resp. N = 3), where the
    majorant is polynomial-geometric.  Summation stops once the majorant
    ``(y/x)^((m-1)/2) / sqrt((1 - x^2)(1 + y^2))`` summed over the tail
    drops below `tol`; it decays at a strictly faster geometric rate than
    the paper's ``c = 1 + (A_1 - 1)`` bound, which :func:`verify_decay`
    still checks exactly.  `terms_used` counts label 0, and the budget is
    ``max_terms + 1`` labels.  Kac families diverge (the general term is 1).
    """
    if not family.is_ladder:
        raise FamilyError("ladder summation applies to ladder families")
    if max_terms < 1:
        raise DomainError(f"need a positive term budget, got {max_terms}")
    if family.is_kac:
        return SeriesResult(Verdict.DIVERGES)
    step = 2 if family.kind is fusion.FamilyKind.SO3_LADDER else 1
    return _deformed_ratio_sum(_fundamental_roots(family), step, 1, tol, bits, max_terms + 1)


def _fundamental_roots(family: FusionFamily) -> Callable[[Context], tuple[Interval, Interval]]:
    """``roots(ctx)`` for the kernel: the classical and quantum roots of the
    fundamental, ``t`` with ``t + 1/t`` its dimension, or for so3 ``r``
    with ``r^2 + r^-2`` its dimension minus 1."""
    so3 = family.kind is fusion.FamilyKind.SO3_LADDER
    shift = 1 if so3 else 0

    def roots(ctx: Context) -> tuple[Interval, Interval]:
        x = solve_fundamental_q(intervals.make(family.dim_c_fund - shift, ctx))
        y = solve_fundamental_q(intervals.make(family.dim_q_fund - shift, ctx))
        return (intervals.isqrt(x), intervals.isqrt(y)) if so3 else (x, y)

    return roots


def block_sum_S(
    q_c: IntervalLike,
    q_q: IntervalLike,
    tol,
    bits: int = intervals.DEFAULT_BITS,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> SeriesResult:
    """Certified sum over one family of alternating blocks.

    Term n >= 1 is ``sqrt(d_c(n) / d_q(n))`` where ``d(n)`` is the
    order-(n+1) deformed integer at `q_c` (classical; exactly ``n + 1`` at
    ``q_c = 1``) and at `q_q` (quantum): the sum of
    :func:`_deformed_ratio_sum` with ``x = q_c``, ``y = q_q`` from
    ``m = 2``.  The tail is bounded by the geometric majorant
    ``sqrt(q_q/q_c)^m / ((1 - sqrt(q_q/q_c)) sqrt((1 - q_c^2)(1 + q_q^2)))``
    after term ``m``, or by its polynomial-geometric form
    ``sqrt(q_q)^m ((m+1) - m sqrt(q_q)) / (1 - sqrt(q_q))^2`` at
    ``q_c = 1``.  Exactly equal deformation parameters mean Kac type, where
    every term is 1 and the sum diverges.

    The inputs are enclosed at each precision the kernel tries; a pair
    certainly outside ``0 < q_q <= q_c <= 1`` raises there, and a pair not
    yet separated from ``q_q = q_c`` or ``q_c = 1`` escalates like any other
    unseparated pair, ending `undetermined` if no precision separates it.
    """
    exact_kinds = (int, str, Fraction)
    if isinstance(q_c, exact_kinds) and isinstance(q_q, exact_kinds):
        if Fraction(q_c) == Fraction(q_q):
            return SeriesResult(Verdict.DIVERGES)
    point = intervals.make(q_c)
    if intervals.identical(point, intervals.make(q_q, point.ctx)) and intervals.width(point) == 0:
        return SeriesResult(Verdict.DIVERGES)

    def roots(ctx: Context) -> tuple[Interval, Interval]:
        qc, qq = intervals.make(q_c, ctx), intervals.make(q_q, ctx)
        if (intervals.upper(qq) <= 0 or intervals.lower(qc) > 1
                or intervals.certainly_lt(qc, qq)):
            raise DomainError(f"need 0 < q_q <= q_c <= 1, got {qq}, {qc}")
        return qc, qq

    return _deformed_ratio_sum(roots, 1, 2, tol, bits, max_terms)


def total_sum_free(block_sum: Interval | SeriesResult) -> SeriesResult:
    """Total over all free-unitary labels from the one-family block sum.

    Chained blocks contribute geometrically, so the total is
    ``1 + 2 S / (1 - S)`` when ``S < 1`` is certified and diverges when
    ``S >= 1``.  A block enclosure straddling 1 stays undetermined.  The
    total is computed at the block sum's precision.
    """
    if isinstance(block_sum, SeriesResult):
        if block_sum.verdict is Verdict.DIVERGES:
            return SeriesResult(Verdict.DIVERGES)
        if block_sum.verdict is Verdict.UNDETERMINED:
            return SeriesResult(Verdict.UNDETERMINED)
        s = block_sum.sum_enclosure()
    else:
        s = intervals.make(block_sum)
    if intervals.lower(s) < 0:
        raise DomainError(f"block sum must be nonnegative, got {s}")
    if intervals.upper(s) < 1:
        total = 1 + 2 * s / (1 - s)
        return SeriesResult(Verdict.CONVERGES, total, intervals.make(0, s.ctx))
    if intervals.lower(s) >= 1:
        return SeriesResult(Verdict.DIVERGES)
    return SeriesResult(Verdict.UNDETERMINED)


# ---------------------------------------------------------------------------
# closed-form bounds and certified thresholds


def bound_S_dim2(q: IntervalLike, bits: int = intervals.DEFAULT_BITS) -> Interval:
    """Closed-form upper bound for the block sum when the fundamental has
    classical dimension 2:

        sqrt(q)(2 - sqrt(q)) / (sqrt(1 + q^2) (1 - sqrt(q))^2),

    monotone increasing on (0, 1).
    """
    with intervals.precision(bits) as ctx:
        point = intervals.make(q, ctx)
        if intervals.lower(point) <= 0 or intervals.upper(point) >= 1:
            raise DomainError(f"q must lie strictly inside (0, 1), got {point}")
        root = intervals.isqrt(point)
        return (
            root
            * (2 - root)
            / (intervals.isqrt(1 + point * point) * (1 - root) ** 2)
        )


def bound_S_dimge3(
    q_c: IntervalLike, q_q: IntervalLike, bits: int = intervals.DEFAULT_BITS
) -> Interval:
    """Geometric majorant of the block sum for fundamental dimension >= 3:

        (1 - q_c^2)^(-1/2) * sqrt(q_q/q_c) / (1 - sqrt(q_q/q_c)).

    Its unit crossing in the ratio q_q/q_c, at the extreme admissible q_c,
    is exactly the ratio threshold reported by
    :func:`threshold_ratio_dimge3`.
    """
    with intervals.precision(bits) as ctx:
        qc = intervals.make(q_c, ctx)
        qq = intervals.make(q_q, ctx)
        if intervals.lower(qq) <= 0 or intervals.upper(qc) >= 1:
            raise DomainError(f"need 0 < q_q < q_c < 1, got {qq}, {qc}")
        if not intervals.certainly_lt(qq, qc):
            raise DomainError(f"need q_q < q_c certified, got {qq}, {qc}")
        root = intervals.isqrt(qq / qc)
        return 1 / intervals.isqrt(1 - qc * qc) * root / (1 - root)


def _bisect_unit_crossing(
    f: Callable[[Interval], Interval],
    lo: Fraction,
    hi: Fraction,
    tol,
    bits: int,
    grid_points: int = 17,
) -> Interval:
    """Enclose the unique solution of ``f = 1`` in [lo, hi] to width `tol`.

    `f` must be increasing; this is certified on a coarse grid first.
    Midpoint sign evaluations that straddle 1 trigger precision escalation.
    The final bracket is narrower than `tol` and is enclosed at the first
    doubling of `bits` whose outward rounding keeps it within `tol`.
    """
    tol_fraction = _tol_fraction(tol)
    span = hi - lo
    grid = [lo + span * k / (grid_points - 1) for k in range(grid_points)]
    with intervals.precision(bits) as ctx:
        values = [f(intervals.make(x, ctx)) for x in grid]
    for left, right in zip(values, values[1:]):
        if not intervals.certainly_lt(left, right):
            raise DomainError("monotonicity could not be certified on the grid")
    if not intervals.certainly_lt(values[0], 1):
        raise DomainError(f"no sign change: f({lo}) not certified below 1")
    if not intervals.certainly_gt(values[-1], 1):
        raise DomainError(f"no sign change: f({hi}) not certified above 1")
    while hi - lo >= tol_fraction:
        mid = (lo + hi) / 2
        for eval_bits in _doublings(bits):
            with intervals.precision(eval_bits) as ctx:
                value = f(intervals.make(mid, ctx))
            if intervals.upper(value) < 1:
                lo = mid
                break
            if intervals.lower(value) > 1:
                hi = mid
                break
        else:
            raise BudgetError(f"sign of f({mid}) undecided at {MAX_BITS} bits")
    for enclosure_bits in _doublings(bits):
        with intervals.precision(enclosure_bits) as ctx:
            enclosure = intervals.from_endpoints(lo, hi, ctx)
        if intervals.width_at_most(enclosure, tol_fraction):
            return enclosure
    raise BudgetError(f"no enclosure of width {tol} at {MAX_BITS} bits")


def threshold_dim2(tol, bits: int = intervals.DEFAULT_BITS) -> Interval:
    """Certified unit crossing of :func:`bound_S_dim2` (near 0.0861)."""

    def f(x: Interval) -> Interval:
        return bound_S_dim2(x, bits=x.ctx.prec)

    return _bisect_unit_crossing(f, Fraction(1, 100), Fraction(1, 2), tol, bits)


def threshold_ratio_dimge3(bits: int = intervals.DEFAULT_BITS) -> Interval:
    """Closed-form ratio threshold ``(1 + sqrt((3 sqrt(5) + 5)/10))^(-2)``,
    with decimal expansion starting 0.2306."""
    with intervals.precision(bits) as ctx:
        u = intervals.isqrt((3 * intervals.isqrt(intervals.make(5, ctx)) + 5) / 10)
        return (1 + u) ** (-2)


def _remark_two_term(x: Interval) -> Interval:
    two = q_number(2).evaluate(x)
    three = q_number(3).evaluate(x)
    return intervals.isqrt(2 / two) + intervals.isqrt(3 / three)


def threshold_remark(tol, bits: int = intervals.DEFAULT_BITS) -> Interval:
    """Certified root of ``sqrt(2/[2]) + sqrt(3/[3]) = 1`` (near 0.2134).

    The left side is a two-term lower bound for the dimension-2 block sum,
    so above this root that sum certainly exceeds 1.
    """
    return _bisect_unit_crossing(
        _remark_two_term, Fraction(1, 100), Fraction(1, 2), tol, bits
    )


# ---------------------------------------------------------------------------
# verdict logic


def kac_part(family: FusionFamily, n_max: int) -> list[int]:
    """Ladder labels up to `n_max` whose intertwiner is certified trivial,
    i.e. whose quantum dimension equals the classical one exactly.

    Non-Kac families yield exactly the trivial label."""
    if not family.is_ladder:
        raise FamilyError("kac_part applies to ladder families")
    classical = fusion.ladder_dims(family.kind, Fraction(family.dim_c_fund))
    quantum = fusion.ladder_dims(family.kind, family.dim_q_fund)
    return [n for n, c, q in zip(range(n_max + 1), classical, quantum) if c == q]


@dataclass(frozen=True)
class MasaVerdict:
    """Combined verdict for one family.

    `verdict_text` is a fixed enumeration: ``"not a MASA"`` requires both a
    certified quasi-split inclusion and all nontrivial labels carrying a
    nontrivial intertwiner; the free-unitary conclusion addresses the
    relative commutant instead, since its class-function algebra is
    non-abelian.
    """

    quasi_split: QuasiSplit
    all_nontrivial_rho_nontrivial: bool
    verdict_text: str
    series: SeriesResult
    block_sum: SeriesResult | None = None


def masa_verdict(
    family: FusionFamily,
    tol=Fraction(1, 10**6),
    n_max: int = 50,
    bits: int = intervals.DEFAULT_BITS,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> MasaVerdict:
    """Run the summability criterion and the intertwiner scan for `family`."""
    if family.is_ladder:
        series = quasi_split_sum_ladder(family, tol, bits=bits, max_terms=max_terms)
        all_nontrivial = kac_part(family, n_max) == [0]
        block = None
    else:
        if family.is_kac:
            block = SeriesResult(Verdict.DIVERGES)
        else:
            block = _deformed_ratio_sum(_fundamental_roots(family), 1, 2, tol, bits, max_terms)
        series = total_sum_free(block)
        # Non-Kac free-unitary families have nontrivial intertwiners on every
        # nontrivial word; Kac ones on none.
        all_nontrivial = not family.is_kac

    if series.verdict is Verdict.CONVERGES:
        quasi = QuasiSplit.YES
    else:
        quasi = QuasiSplit.UNDETERMINED

    if quasi is QuasiSplit.YES and all_nontrivial:
        text = VERDICT_NOT_MASA if family.is_ladder else VERDICT_RELATIVE_COMMUTANT
    else:
        text = VERDICT_NO_CONCLUSION
    return MasaVerdict(quasi, all_nontrivial, text, series, block)
