"""The full verification grid behind the ``report`` subcommand.

Each criterion function returns a deterministic payload with a ``passed``
flag and the checked values; wall-clock budgets enter only as booleans so
that reports stay byte-identical across runs.  The same functions drive the
acceptance test module.  Every criterion takes the working precision
``bits``; the exact ones (dimensions, words, moments, bicrossed tables) and
the fixed-precision matrix checks do not read it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from . import bicrossed, criteria, dyadic, fusion, noncrossing, spectral
from .budgets import DEFAULT_BITS
from .criteria import Verdict
from .scalars import solve_fundamental_q

#: Riordan-style counts of no-singleton noncrossing partitions, k = 0..7.
NO_SINGLETON_COUNTS = (1, 0, 1, 1, 3, 6, 15, 36)

RANDOM_SEED = 20240229


def criterion_1_threshold_dim2(bits: int = DEFAULT_BITS) -> dict:
    """Dimension-2 threshold encloses 0.0861 at width 1e-3 within 5 s."""
    start = time.perf_counter()
    enclosure = criteria.threshold_dim2(Fraction(1, 1000), bits=bits)
    elapsed = time.perf_counter() - start
    lo, hi = dyadic.exact_endpoints(enclosure)
    contains = lo <= Fraction(861, 10000) <= hi
    narrow = hi - lo <= Fraction(1, 1000)
    runtime_ok = elapsed < 5.0
    return {
        "id": 1,
        "name": "threshold_dim2 encloses 0.0861",
        "passed": contains and narrow and runtime_ok,
        "details": {
            "enclosure": dyadic.to_decimal_pair(enclosure, 25),
            "contains_0.0861": contains,
            "width_ok": narrow,
            "runtime_ok": runtime_ok,
        },
    }


def criterion_2_threshold_ratio(bits: int = DEFAULT_BITS) -> dict:
    """Ratio threshold is 0.2306 +- 1e-4 and drives the bound to exactly 1."""
    ratio = criteria.threshold_ratio_dimge3(bits=bits)
    ratio_lo, ratio_hi = dyadic.exact_endpoints(ratio)
    near = Fraction(2305, 10000) <= ratio_lo and ratio_hi <= Fraction(2307, 10000)
    q_c = solve_fundamental_q(3, bits=bits)
    qc_lo, qc_hi = dyadic.exact_endpoints(q_c)
    q_q = dyadic.rational_enclosure(qc_lo * ratio_lo, qc_hi * ratio_hi, bits)
    bound = criteria.bound_S_dimge3(q_c, q_q, bits=bits)
    bound_lo, bound_hi = dyadic.exact_endpoints(bound)
    hits_one = bound_lo <= 1 <= bound_hi and bound_hi - bound_lo <= Fraction(1, 10**6)
    return {
        "id": 2,
        "name": "threshold_ratio_dimge3 and unit crossing of the bound",
        "passed": near and hits_one,
        "details": {
            "ratio": dyadic.to_decimal_pair(ratio, 25),
            "ratio_near_0.2306": near,
            "bound_at_threshold": dyadic.to_decimal_pair(bound, 25),
            "bound_encloses_1": hits_one,
        },
    }


def criterion_3_threshold_remark(bits: int = DEFAULT_BITS) -> dict:
    """Remark threshold encloses 0.2134; block sums certify S>1 / S<1."""
    start = time.perf_counter()
    enclosure = criteria.threshold_remark(Fraction(1, 1000), bits=bits)
    first = time.perf_counter() - start
    lo, hi = dyadic.exact_endpoints(enclosure)
    contains = lo <= Fraction(2134, 10000) <= hi
    narrow = hi - lo <= Fraction(1, 1000)

    start = time.perf_counter()
    above = criteria.block_sum_S(1, Fraction(22, 100), Fraction(1, 10**6), bits=bits)
    second = time.perf_counter() - start
    start = time.perf_counter()
    below = criteria.block_sum_S(1, Fraction(5, 100), Fraction(1, 10**6), bits=bits)
    third = time.perf_counter() - start

    s_above = (above.verdict is Verdict.CONVERGES
               and dyadic.exact_endpoints(above.sum_enclosure())[0] > 1)
    s_below = (below.verdict is Verdict.CONVERGES
               and dyadic.exact_endpoints(below.sum_enclosure())[1] < 1)
    runtime_ok = first < 10.0 and second < 10.0 and third < 10.0
    return {
        "id": 3,
        "name": "threshold_remark and certified block-sum comparisons",
        "passed": contains and narrow and s_above and s_below and runtime_ok,
        "details": {
            "enclosure": dyadic.to_decimal_pair(enclosure, 25),
            "contains_0.2134": contains,
            "width_ok": narrow,
            "S_at_0.22": dyadic.to_decimal_pair(above.sum_enclosure(), 25),
            "S_above_1": s_above,
            "S_at_0.05": dyadic.to_decimal_pair(below.sum_enclosure(), 25),
            "S_below_1": s_below,
            "runtime_ok": runtime_ok,
        },
    }


def criterion_4_modular_norms(bits: int = DEFAULT_BITS) -> dict:
    """Twisted norms: 1 at b=0 and dim/dim_q at b=-1/4, widths <= 1e-20."""
    width_cap = Fraction(1, 10**20)
    failures = []
    for q_str in ("0.3", "0.5", "0.8"):
        q = Fraction(q_str)
        table = fusion.scaled_dims(range(21), fusion.su2_ladder(2, q=q))
        for n, (classical, quantum, scale) in enumerate(table):
            ok = True
            for b, expected in ((0, 1), (Fraction(-1, 4), Fraction(classical * scale, quantum))):
                lo, hi = dyadic.exact_endpoints(spectral.modular_norm_sq(n, q, b, bits))
                ok = ok and lo <= expected <= hi and hi - lo <= width_cap
            if not ok:
                failures.append({"q": q_str, "n": n})
    return {
        "id": 4,
        "name": "modular norm identities for ladder spectra",
        "passed": not failures,
        "details": {"grid": "n <= 20, q in {0.3, 0.5, 0.8}", "failures": failures},
    }


def _scaled_dims(family: fusion.FusionFamily, labels) -> dict[str, tuple[int, dict]]:
    """Classical and quantum dimensions of `labels`, read as one table by
    :func:`fusion.scaled_dims`: for each kind of dimension, exact integer
    numerators over one common denominator ``scale`` (1 for the classical
    ones, the largest ``b^length`` for the quantum ones), so that the
    additivity checks add and compare ints."""
    labels = list(labels)
    table = fusion.scaled_dims(labels, family)
    scale = max(denominator for *_, denominator in table)
    return {
        "classical": (1, {label: d for label, (d, _, _) in zip(labels, table)}),
        "quantum": (scale, {label: d * (scale // denominator)
                            for label, (_, d, denominator) in zip(labels, table)}),
    }


def _ladder_evolutions(family: fusion.FusionFamily, n_max: int, m_max: int) -> list:
    """For each n <= n_max, the decompositions of ``1^(x)m (x) n`` for
    m = 1..m_max; they depend only on the family's kind.  Each label's
    product with the fundamental is computed once."""
    fundamental = [fusion.tensor_fundamental(label, family)
                   for label in range(n_max + m_max + 1)]
    evolutions = []
    for n in range(n_max + 1):
        state, states = {n: 1}, []
        for _ in range(m_max):
            next_state: dict[int, int] = {}
            for label, mult in state.items():
                for part, pm in fundamental[label].items():
                    next_state[part] = next_state.get(part, 0) + mult * pm
            state = next_state
            states.append(state)
        evolutions.append(states)
    return evolutions


def _additivity_ladder(family: fusion.FusionFamily, evolutions: list) -> list:
    """Check d(1)^m d(n) = sum of multiplicities times dimensions, exactly."""
    m_max = len(evolutions[0])
    failures = []
    for which, (scale, dims) in _scaled_dims(family, range(len(evolutions) + m_max)).items():
        for n, states in enumerate(evolutions):
            power, expected = 1, dims[n]
            for m, state in enumerate(states, start=1):
                power *= scale
                expected *= dims[1]
                total = sum(mult * dims[label] for label, mult in state.items())
                if total * power != expected:  # both sides times scale**(m+1)
                    failures.append({"which": which, "n": n, "m": m})
                    break
    return failures


def _additivity_free(family: fusion.FusionFamily, max_len: int, products: list) -> list:
    """Check d(x) d(y) = sum of multiplicities times dimensions, exactly, for
    each ``(x, y, x (x) y)`` in `products`; words are at most `max_len` long."""
    failures = []
    for which, (scale, dims) in _scaled_dims(family, fusion.all_words(2 * max_len)).items():
        for x, y, parts in products:
            total = sum(mult * dims[product] for product, mult in parts.items())
            if total * scale != dims[x] * dims[y]:  # both sides times scale**2
                failures.append({"which": which, "x": x or "e", "y": y or "e"})
    return failures


def criterion_5_dimension_additivity(bits: int = DEFAULT_BITS) -> dict:
    """Exact dimension additivity across tensor decompositions.

    Each decomposition is computed once and checked against every table
    that shares it: ladder families of one kind share the evolutions of
    ``1^(x)m (x) n``, and free fusion does not depend on the family."""
    ladder_failures = []
    evolutions = {}
    for family in (
        fusion.su2_ladder(2, q=Fraction(1, 4)),
        fusion.su2_ladder(3, q=Fraction(1, 5)),
        fusion.so3_ladder(4, dim_q_fund=5),
    ):
        if family.kind not in evolutions:
            evolutions[family.kind] = _ladder_evolutions(family, n_max=20, m_max=20)
        ladder_failures += _additivity_ladder(family, evolutions[family.kind])
    words = list(fusion.all_words(5))
    products = [(x, y, fusion.tensor_free(x, y)) for x in words for y in words]
    free_failures = []
    for family in (
        fusion.free_unitary(2, q=Fraction(1, 10)),
        fusion.free_unitary(3, dim_q_fund=4),
    ):
        free_failures += _additivity_free(family, 5, products)
    return {
        "id": 5,
        "name": "dimension additivity oracle",
        "passed": not ladder_failures and not free_failures,
        "details": {
            "ladder_failures": ladder_failures[:5],
            "free_failures": free_failures[:5],
        },
    }


def criterion_6_word_calculus(bits: int = DEFAULT_BITS) -> dict:
    """Block-product word dimensions agree with the tensor recursion."""

    def recursive_dim(word: str, d1: Fraction, memo: dict[str, Fraction]) -> Fraction:
        if word not in memo:
            head, rest = word[0], word[1:]
            total = d1 * recursive_dim(rest, d1, memo) if rest else d1
            for product, mult in fusion.tensor_free(head, rest).items():
                if product != word:
                    total -= mult * recursive_dim(product, d1, memo)
            memo[word] = total
        return memo[word]

    failures = []
    words = list(fusion.all_words(6, min_len=1))
    for fundamental_dim in (2, 3):
        table = fusion.scaled_dims(words, fusion.free_unitary(fundamental_dim))
        d1 = Fraction(fundamental_dim)
        memo: dict[str, Fraction] = {"": Fraction(1)}
        for word, (classical, _, _) in zip(words, table):
            if classical != recursive_dim(word, d1, memo):
                failures.append({"dim": fundamental_dim, "word": word})
    # Same agreement for a non-integer dimension function.
    table = fusion.scaled_dims(words, fusion.free_unitary(2, dim_q_fund=Fraction(5, 2)))
    memo = {"": Fraction(1)}
    for word, (_, quantum, scale) in zip(words, table):
        if Fraction(quantum, scale) != recursive_dim(word, Fraction(5, 2), memo):
            failures.append({"dim": "5/2", "word": word})
    return {
        "id": 6,
        "name": "word-calculus oracle (blocks vs tensor recursion)",
        "passed": not failures,
        "details": {"failures": failures[:5]},
    }


def ladder_grid() -> tuple[list[tuple[str, fusion.FusionFamily]], list[str]]:
    """The non-Kac ladder grid, and the names of the combinations skipped
    because their quantum dimension would fall below the classical one, so
    that they define no family."""
    families, skipped = [], []
    for n in (2, 3, 4, 5):
        for q_str in ("0.1", "0.2", "0.3"):
            q = Fraction(q_str)
            name = f"o-plus N={n} qq={q_str}"
            if q + 1 / q >= n:
                families.append((name, fusion.su2_ladder(n, q=q)))
            else:
                skipped.append(name)
    for dim_q in (5, 10):
        families.append((f"so3 N=4 dimq={dim_q}", fusion.so3_ladder(4, dim_q_fund=dim_q)))
    return families, skipped


def criterion_7_decay_and_quasi_split(bits: int = DEFAULT_BITS) -> dict:
    """Certified decay to n=50 and convergent sums with tails <= 1e-6."""
    failures = []
    families, skipped = ladder_grid()
    for name, family in families:
        decay_ok = criteria.verify_decay(family, 50)
        series = criteria.quasi_split_sum_ladder(
            family, Fraction(1, 10**6), bits=bits)
        series_ok = series.verdict is Verdict.CONVERGES
        if series_ok:
            lo, hi = dyadic.exact_endpoints(series.tail_bound)
            series_ok = hi - lo <= Fraction(1, 10**6)
        if not (decay_ok and series_ok):
            failures.append({"family": name, "decay": decay_ok,
                             "verdict": series.verdict.value})
    return {
        "id": 7,
        "name": "certified ratio decay and quasi-split summation over the ladder grid",
        "passed": not failures,
        "details": {"failures": failures,
                    "skipped_invalid_families": skipped},
    }


def criterion_8_moment_oracles(bits: int = DEFAULT_BITS) -> dict:
    """Invariant multiplicities match the independent counts."""
    failures = []
    su2 = fusion.su2_ladder(2)
    for k in range(17):
        mult = fusion.invariant_multiplicity([1] * k, su2)
        enumerated = noncrossing.count_noncrossing_matchings(k)
        closed = noncrossing.catalan(k // 2) if k % 2 == 0 else 0
        if not (mult == enumerated == closed):
            failures.append({"family": "su2", "k": k, "mult": mult})
    so3 = fusion.so3_ladder(4)
    for k in range(9):
        mult = fusion.invariant_multiplicity([1] * k, so3)
        enumerated = noncrossing.count_nosingleton_noncrossing(k)
        if mult != enumerated:
            failures.append({"family": "so3", "k": k, "mult": mult})
        if k < len(NO_SINGLETON_COUNTS) and mult != NO_SINGLETON_COUNTS[k]:
            failures.append({"family": "so3-table", "k": k, "mult": mult})
    free = fusion.free_unitary(2)
    for k in range(7):
        word = fusion.alternating_word(2 * k)
        mult = fusion.invariant_multiplicity(list(word), free)
        enumerated = noncrossing.count_ab_matchings(word)
        closed = noncrossing.catalan(k)
        if not (mult == enumerated == closed):
            failures.append({"family": "u-plus", "k": k, "mult": mult})
    return {
        "id": 8,
        "name": "moment oracles (Catalan / no-singleton counts)",
        "passed": not failures,
        "details": {"failures": failures},
    }


def criterion_9_operator_model(bits: int = DEFAULT_BITS) -> dict:
    """Krylov rank, commutant dimension and interior relation residuals."""
    start = time.perf_counter()
    failures = []
    q_grid = [Fraction(k, 10) for k in range(1, 10)]
    for size in (2, 4, 8, 16):
        for q in q_grid:
            op = spectral.build_jacobi(size, q)
            if spectral.krylov_rank(op) != size or spectral.commutant_dim(op) != size:
                failures.append({"M": size, "q": str(q), "check": "rank"})
            if size >= 4:
                residual = spectral.suq2_relation_residuals(size, q)
                if residual > 1e-12:
                    failures.append({"M": size, "q": str(q), "check": "residual"})
    runtime_ok = time.perf_counter() - start < 30.0
    return {
        "id": 9,
        "name": "operator-model shadows (rank, commutant, residuals)",
        "passed": not failures and runtime_ok,
        "details": {"failures": failures, "runtime_ok": runtime_ok},
    }


def criterion_10_bicrossed_table(bits: int = DEFAULT_BITS) -> dict:
    """Truth-table laws for scaling times, plus the anchored example rows."""
    rng = random.Random(RANDOM_SEED)

    def random_fraction() -> Fraction:
        return Fraction(rng.randint(-12, 12), rng.randint(1, 12))

    times = [bicrossed.ScalingTime(random_fraction(), random_fraction())
             for _ in range(50)]
    params_by_mode = {
        "irrational": bicrossed.BicrossedParams(
            Fraction(1, 2), bicrossed.RatioIrrational()),
        "rational": bicrossed.BicrossedParams(
            Fraction(1, 2), bicrossed.RatioRational(Fraction(1, 2))),
    }
    failures = []
    for mode, params in params_by_mode.items():
        for t in times:
            trivial = bicrossed.is_trivial_scaling(t, params)
            inner = bicrossed.is_inner_scaling(t, params)
            if trivial and not inner:
                failures.append({"mode": mode, "law": "trivial=>inner"})
            if trivial != bicrossed.is_trivial_scaling(-t, params):
                failures.append({"mode": mode, "law": "trivial negation"})
            if inner != bicrossed.is_inner_scaling(-t, params):
                failures.append({"mode": mode, "law": "inner negation"})
        for t1 in times[:12]:
            for t2 in times[:12]:
                if (bicrossed.is_trivial_scaling(t1, params)
                        and bicrossed.is_trivial_scaling(t2, params)
                        and not bicrossed.is_trivial_scaling(t1 + t2, params)):
                    failures.append({"mode": mode, "law": "trivial addition"})
                if (bicrossed.is_inner_scaling(t1, params)
                        and bicrossed.is_inner_scaling(t2, params)
                        and not bicrossed.is_inner_scaling(t1 + t2, params)):
                    failures.append({"mode": mode, "law": "inner addition"})

    anchored = [
        bicrossed.is_trivial_scaling(
            bicrossed.ScalingTime(Fraction(0), Fraction(1)),
            params_by_mode["irrational"]),
        bicrossed.is_trivial_scaling(
            bicrossed.ScalingTime(Fraction(0), Fraction(1)),
            params_by_mode["rational"]),
        bicrossed.is_inner_scaling(
            bicrossed.ScalingTime(Fraction(5, 3), Fraction(2)),
            params_by_mode["irrational"]),
        bicrossed.is_inner_scaling(
            bicrossed.ScalingTime(Fraction(7, 9), Fraction(3, 11)),
            params_by_mode["rational"]),
    ]
    # The rational charge itself is inner in every mode.
    for params in params_by_mode.values():
        anchored.append(bicrossed.is_inner_scaling(
            bicrossed.ScalingTime(Fraction(4, 7), Fraction(0)), params))
    return {
        "id": 10,
        "name": "bicrossed scaling-time decision table",
        "passed": not failures and all(anchored),
        "details": {"failures": failures[:5], "anchored_rows": anchored},
    }


def criterion_11_kac_degeneration(bits: int = DEFAULT_BITS) -> dict:
    """Kac families: unit ratios, divergent series, full Kac part,
    no verdict."""
    failures = []
    kac_families = {
        "o-plus N=2": fusion.su2_ladder(2),
        "o-plus N=3": fusion.su2_ladder(3),
        "so3 N=4": fusion.so3_ladder(4),
        "u-plus dim=2": fusion.free_unitary(2),
        "u-plus dim=3": fusion.free_unitary(3),
    }
    for name, family in kac_families.items():
        labels = (
            list(range(9)) if family.is_ladder
            else list(fusion.all_words(3))
        )
        if any(classical * scale != quantum
               for classical, quantum, scale in fusion.scaled_dims(labels, family)):
            failures.append({"family": name, "check": "ratios"})
        verdict = criteria.masa_verdict(family, n_max=12, bits=bits)
        if verdict.series.verdict is not Verdict.DIVERGES:
            failures.append({"family": name, "check": "series"})
        if verdict.verdict_text != criteria.VERDICT_NO_CONCLUSION:
            failures.append({"family": name, "check": "verdict"})
        if family.is_ladder and criteria.kac_part(family, 12) != list(range(13)):
            failures.append({"family": name, "check": "kac_part"})
    return {
        "id": 11,
        "name": "Kac degeneration across all family kinds",
        "passed": not failures,
        "details": {"failures": failures},
    }


CRITERIA = (
    criterion_1_threshold_dim2,
    criterion_2_threshold_ratio,
    criterion_3_threshold_remark,
    criterion_4_modular_norms,
    criterion_5_dimension_additivity,
    criterion_6_word_calculus,
    criterion_7_decay_and_quasi_split,
    criterion_8_moment_oracles,
    criterion_9_operator_model,
    criterion_10_bicrossed_table,
    criterion_11_kac_degeneration,
)


def run_all(bits: int = DEFAULT_BITS) -> dict:
    """Run every criterion; aggregate payload for the ``report`` command."""
    results = [check(bits=bits) for check in CRITERIA]
    return {
        "criteria": results,
        "all_passed": all(entry["passed"] for entry in results),
    }
