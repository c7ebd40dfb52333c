"""Labels, tensor decompositions, dimensions and spectra."""

import collections
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qclassfun import criteria, dyadic, fusion
from qclassfun.cli import main
from qclassfun.errors import DomainError, FamilyError
from qclassfun.fusion import (
    FusionFamily,
    all_words,
    check_ladder,
    dim,
    factorize,
    free_unitary,
    invariant_multiplicity,
    rho_spectrum,
    so3_ladder,
    su2_ladder,
    tensor_free,
    tensor_fundamental,
    tensor_reduce,
)
from qclassfun.scalars import q_number, solve_fundamental_q
from interval_oracle import context, make, to_enclosure

words = st.text(alphabet="AB", max_size=8)


# ---------------------------------------------------------------------------
# families


def test_family_requires_dominating_quantum_dimension():
    with pytest.raises(DomainError):
        su2_ladder(4, q=Fraction(3, 10))  # 0.3 + 1/0.3 < 4
    with pytest.raises(DomainError):
        so3_ladder(4, dim_q_fund=Fraction(7, 2))


def test_so3_ladder_needs_fundamental_dimension_three():
    # at dimension 2 the recursion gives classical dimensions 1, 2, 1, -1, ...
    for dim_q in (None, Fraction(5, 2), 3):
        with pytest.raises(DomainError):
            so3_ladder(2, dim_q_fund=dim_q)
    assert so3_ladder(3).is_kac


def test_family_rejects_floats():
    with pytest.raises(TypeError):
        su2_ladder(2, q=0.3)


@pytest.mark.parametrize("build", [
    lambda: su2_ladder(3.0),
    lambda: free_unitary(2.5),
    lambda: free_unitary(2.5, q="1/10"),
    lambda: so3_ladder(True),
], ids=["su2 float", "free non-integer", "free non-integer deformed", "so3 bool"])
def test_family_refuses_a_classical_dimension_that_is_no_int(build):
    # su2_ladder(3.0) printed float dimensions and "not a MASA"; free_unitary(2.5)
    # gave a classical dimension of 5/2 and, with q, a quasi-split verdict
    with pytest.raises(DomainError, match="fundamental dimension must be an int"):
        build()


def test_kac_flag():
    assert su2_ladder(2).is_kac
    assert su2_ladder(2, q=1).is_kac
    assert not su2_ladder(2, q=Fraction(1, 2)).is_kac


# ---------------------------------------------------------------------------
# conjugation


def conjugate_word(word: str) -> str:
    """Oracle: the conjugate of a free word, reversed with the two letters swapped."""
    return "".join({"A": "B", "B": "A"}[ch] for ch in reversed(word))


def test_conjugate_examples():
    assert conjugate_word("AB") == "AB"
    assert conjugate_word("AAB") == "ABB"


@given(words)
def test_conjugation_involutive(w):
    assert conjugate_word(conjugate_word(w)) == w


@given(words, words)
def test_conjugation_antimultiplicative(x, y):
    assert conjugate_word(x + y) == conjugate_word(y) + conjugate_word(x)


# ---------------------------------------------------------------------------
# tensor products


def test_tensor_fundamental_examples():
    su2 = su2_ladder(2, q=Fraction(1, 2))
    assert tensor_fundamental(0, su2) == {1: 1}
    assert tensor_fundamental(4, su2) == {3: 1, 5: 1}
    so3 = so3_ladder(4, dim_q_fund=5)
    assert tensor_fundamental(1, so3) == {0: 1, 1: 1, 2: 1}
    # keys come in canonical (ascending) order
    for family in (su2, so3):
        for n in range(6):
            keys = list(tensor_fundamental(n, family))
            assert keys == sorted(keys)


def test_tensor_fundamental_rejects_free_family():
    with pytest.raises(FamilyError):
        tensor_fundamental(1, free_unitary(2))


def test_tensor_free_examples():
    assert tensor_free("A", "B") == {"": 1, "AB": 1}
    assert tensor_free("A", "A") == {"AA": 1}
    assert tensor_free("", "BA") == {"BA": 1}


def _tensor_free_by_cuts(x: str, y: str) -> dict:
    """Oracle: try every cut of `x` and keep those whose mirrored tail starts `y`."""
    terms: dict[str, int] = {}
    for cut in range(len(x) + 1):
        head, tail = x[:cut], x[cut:]
        mirrored = conjugate_word(tail)
        if y.startswith(mirrored):
            product = head + y[len(mirrored):]
            terms[product] = terms.get(product, 0) + 1
    return {w: terms[w] for w in sorted(terms, key=fusion.label_sort_key)}


def test_tensor_free_matches_the_cut_by_cut_oracle_up_to_length_7():
    pool = list(all_words(7))
    for x in pool:
        for y in pool:
            expected = _tensor_free_by_cuts(x, y)
            result = tensor_free(x, y)
            assert result == expected
            assert list(result) == list(expected), (x, y)


@given(words, words)
def test_tensor_free_conjugate_distributivity(x, y):
    direct = tensor_free(conjugate_word(y), conjugate_word(x))
    mirrored = {conjugate_word(t): m for t, m in tensor_free(x, y).items()}
    assert direct == mirrored


@given(words, words)
def test_tensor_free_decomposition_is_canonically_sorted(x, y):
    terms = list(tensor_free(x, y))
    assert terms == sorted(terms, key=lambda w: (len(w), w))


# ---------------------------------------------------------------------------
# block factorization


def test_factorize_examples():
    assert factorize("ABBA") == ["AB", "BA"]
    assert factorize("AAA") == ["A", "A", "A"]
    assert factorize("ABAB") == ["ABAB"]
    with pytest.raises(DomainError):
        factorize("")


def _is_alternating(block: str) -> bool:
    return all(a != b for a, b in zip(block, block[1:]))


def _chained(blocks: list[str]) -> bool:
    return all(x[-1] == y[0] for x, y in zip(blocks, blocks[1:]))


@given(words.filter(bool))
def test_factorize_properties(w):
    blocks = factorize(w)
    assert "".join(blocks) == w
    assert all(block and _is_alternating(block) for block in blocks)
    assert _chained(blocks)


def _all_chained_splittings(w: str):
    """Exhaustive oracle: every splitting into alternating chained blocks."""
    if len(w) == 1:
        yield [w]
        return
    for cut in range(1, len(w) + 1):
        head = w[:cut]
        if not _is_alternating(head):
            continue
        if cut == len(w):
            yield [head]
            continue
        rest = w[cut:]
        if rest[0] != head[-1]:
            continue
        for tail_blocks in _all_chained_splittings(rest):
            yield [head] + tail_blocks


@given(st.text(alphabet="AB", min_size=1, max_size=8))
def test_factorize_unique_among_chained_splittings(w):
    splittings = list(_all_chained_splittings(w))
    assert splittings == [factorize(w)]


# ---------------------------------------------------------------------------
# dimensions


def test_ladder_dim_examples():
    fam = su2_ladder(2, q=Fraction(1, 2))
    assert [dim(n, fam) for n in range(5)] == [1, 2, 3, 4, 5]
    assert dim(3, fam) == 4


def test_word_dim_examples():
    uf = free_unitary(2)
    assert dim("AB", uf) == 3
    assert dim("ABBA", uf) == 9
    # cross-check via additivity on AB (x) BA
    parts = tensor_free("AB", "BA")
    assert sum(m * dim(w, uf) for w, m in parts.items()) == dim("AB", uf) * dim("BA", uf)


def test_word_quantum_dim_is_deformed_integer_at_fundamental_root():
    # dual route: the exact block recursion against the oracle's evaluation of
    # the deformed integer's sum form at the root of x + 1/x = dim_q.
    fam = free_unitary(2, dim_q_fund=Fraction(7, 2))
    root_lo, root_hi = dyadic.exact_endpoints(solve_fundamental_q(Fraction(7, 2), bits=128))
    ctx = context(128)
    root = ctx.mpf([make(root_lo, ctx).a, make(root_hi, ctx).b])
    for n in range(1, 8):
        word = fusion.alternating_word(n)
        value = make(0, ctx)
        for e, c in sorted(q_number(n + 1).coeffs.items()):
            value += c * root**e
        lo, hi = dyadic.exact_endpoints(to_enclosure(value))
        assert lo <= Fraction(dim(word, fam, "quantum")) <= hi


def test_dim_additivity_spot_checks():
    for fam in (su2_ladder(2, q=Fraction(1, 4)), so3_ladder(4, dim_q_fund=5)):
        for which in ("classical", "quantum"):
            d1 = Fraction(dim(1, fam, which))
            for n in range(8):
                total = sum(
                    m * Fraction(dim(k, fam, which))
                    for k, m in tensor_fundamental(n, fam).items()
                )
                assert total == d1 * Fraction(dim(n, fam, which))


def test_word_dim_additivity_exhaustive_length_6():
    fam = free_unitary(2, q=Fraction(1, 10))
    pool = list(all_words(6))
    for which in ("classical", "quantum"):
        cache: dict[str, Fraction] = {}

        def d(word: str) -> Fraction:
            if word not in cache:
                cache[word] = Fraction(dim(word, fam, which))
            return cache[word]

        for x in pool:
            for y in pool:
                total = sum(m * d(w) for w, m in tensor_free(x, y).items())
                assert total == d(x) * d(y)


def _fraction_ladder(kind, d1: Fraction, count: int) -> list[Fraction]:
    """Oracle: the first `count` ladder dimensions for the fundamental
    dimension `d1`, stepped in `Fraction` from ``d1 d(n) = d(n-1) + d(n+1)``
    (plus ``d(n)`` on the right for so3)."""
    shift = 1 if kind is fusion.FamilyKind.SO3_LADDER else 0
    values = [Fraction(1), d1]
    while len(values) < count:
        values.append((d1 - shift) * values[-1] - values[-2])
    return values[:count]


def _dim_by_blocks(word: str, family, which: str):
    """Oracle: the product of one `Fraction` ladder value per block."""
    d1 = Fraction(family.dim_c_fund) if which == "classical" else family.dim_q_fund
    ladder = _fraction_ladder(fusion.FamilyKind.SU2_LADDER, d1, len(word) + 1)
    value = Fraction(1)
    for block in (factorize(word) if word else []):
        value *= ladder[len(block)]
    return int(value) if which == "classical" else value


@pytest.mark.parametrize("family", [
    free_unitary(2),
    free_unitary(2, q=Fraction(1, 10)),
    free_unitary(2, dim_q_fund=Fraction(5, 2)),
    free_unitary(3, q=Fraction(13, 97)),
], ids=["kac", "q=1/10", "dim_q=5/2", "q=13/97"])
def test_word_dim_matches_the_per_block_fraction_product(family):
    words = list(all_words(11))
    b = family.dim_q_fund.denominator
    # the unreduced triples over b^length that dims and criterion 5 read
    for word, (classical, numerator, denominator) in zip(words, fusion.scaled_dims(words, family)):
        expected = {which: _dim_by_blocks(word, family, which)
                    for which in ("classical", "quantum")}
        for which, value in expected.items():
            assert dim(word, family, which) == value, (word, which)
            assert type(dim(word, family, which)) is type(value), (word, which)
        assert type(classical) is int and classical == expected["classical"], word
        assert denominator == b ** len(word), word
        assert Fraction(numerator, denominator) == expected["quantum"], word


@pytest.mark.parametrize("family", [
    su2_ladder(3, q=Fraction(15, 97)), so3_ladder(5, dim_q_fund=Fraction(71, 10)), so3_ladder(4),
], ids=["o-plus q=15/97", "so3 dim_q=71/10", "so3 kac"])
def test_ladder_scaled_dims_are_the_dimensions_over_b_to_the_label(family):
    b = family.dim_q_fund.denominator
    for n, (classical, numerator, denominator) in enumerate(fusion.scaled_dims(range(40), family)):
        assert classical == dim(n, family, "classical")
        assert denominator == b**n
        assert Fraction(numerator, denominator) == dim(n, family, "quantum")


def test_kac_degeneration_matches_classical():
    for fam in (su2_ladder(3), so3_ladder(5), free_unitary(2)):
        labels = range(9) if fam.is_ladder else all_words(4)
        for label in labels:
            quantum, classical = dim(label, fam, "quantum"), dim(label, fam, "classical")
            assert quantum == classical
            # the Kac quantum d1 equals the classical one; each keeps its type
            assert type(quantum) is Fraction and type(classical) is int


def test_dim_rejects_wrong_labels():
    with pytest.raises(FamilyError):
        dim("AB", su2_ladder(2))
    with pytest.raises(FamilyError):
        dim(2, free_unitary(2))
    with pytest.raises(FamilyError):
        dim("XY", free_unitary(2))


@pytest.mark.parametrize("family, labels", [
    (su2_ladder(3, q=Fraction(15, 97)), [7, 0, 40, 7, 3]),
    (so3_ladder(5, dim_q_fund=Fraction(71, 10)), list(range(30, -1, -3))),
    (free_unitary(3, q=Fraction(13, 97)), ["ABBA", "", "B", "AAAB", "ABBA", *all_words(4)]),
], ids=["o-plus", "so3", "u-plus"])
def test_scaled_dims_is_the_table_of_its_one_label_tables(family, labels):
    assert fusion.scaled_dims(iter(labels), family) == [
        fusion.scaled_dims([label], family)[0] for label in labels]
    assert fusion.scaled_dims([], family) == []


def test_scaled_dims_checks_every_label_and_dim_checks_which():
    family = free_unitary(2)
    with pytest.raises(DomainError, match="which must be"):
        dim("A", family, "both")
    with pytest.raises(FamilyError):
        fusion.scaled_dims(["AB", "AXB"], family)
    with pytest.raises(FamilyError):
        fusion.scaled_dims([1, -1], su2_ladder(2))
    with pytest.raises(FamilyError):
        fusion.scaled_dims([1, True], su2_ladder(2))


def test_a_word_table_splits_each_word_once(monkeypatch, capsys):
    # 8,190 words of 1..12 letters, each split by one call of factorize
    splits = collections.Counter()
    split = fusion.factorize

    def counted(word):
        splits[word] += 1
        return split(word)

    monkeypatch.setattr(fusion, "factorize", counted)
    assert main(["dims", "--family", "u-plus", "--dim", "2", "--qq", "0.1",
                 "--word-len", "12"]) == 0
    capsys.readouterr()
    assert len(splits) == 2**13 - 2 and set(splits.values()) == {1}


# ---------------------------------------------------------------------------
# ladder dimension caches


@pytest.fixture
def fresh_ladder_caches():
    fusion._ladder_value.cache_clear()
    yield
    fusion._ladder_value.cache_clear()


def _reference(kind, a, b, n):
    """Oracle: ``D(n) = d(n)·b^n`` for ``d1 = a/b``, from the `Fraction` recursion."""
    scaled = _fraction_ladder(kind, Fraction(a, b), n + 1)[n] * b**n
    assert scaled.denominator == 1
    return scaled.numerator


LADDER_KINDS = [fusion.FamilyKind.SU2_LADDER, fusion.FamilyKind.SO3_LADDER]
LADDER_D1 = [(2, 1), (3, 1), (17, 4), (5, 1), (71, 10)]
LADDER_CALL = st.tuples(st.sampled_from(LADDER_KINDS), st.sampled_from(LADDER_D1),
                        st.integers(0, 60)).map(lambda call: (call[0], *call[1], call[2]))


@given(st.lists(LADDER_CALL, max_size=30))
def test_ladder_values_do_not_depend_on_the_call_order(calls):
    # Labels going down and families interleaved, cached or not: every value
    # is the recursion's term.
    fusion._ladder_value.cache_clear()
    for call in calls:
        assert fusion._ladder_value.__wrapped__(*call) == _reference(*call)
        assert fusion._ladder_value(*call) == _reference(*call)
    fusion._ladder_value.cache_clear()


@given(st.sampled_from(LADDER_KINDS), st.integers(1, 10**6), st.integers(1, 10**6),
       st.integers(0, 40))
def test_scaled_ladder_values_are_in_lowest_terms(kind, a, b, n):
    a, b = Fraction(a, b).as_integer_ratio()  # coprime
    for k, value in enumerate(fusion._ladder_values(kind, a, b, n)[:n + 1]):
        assert math.gcd(value, b) == 1
        assert Fraction(value, b**k) == _fraction_ladder(kind, Fraction(a, b), k + 1)[k]


@pytest.mark.parametrize("argv, kind, d1", [
    (["dims", "--family", "o-plus", "--N", "4", "--qq", "15/97", "--max", "400"],
     fusion.FamilyKind.SU2_LADDER, Fraction(15, 97) + Fraction(97, 15)),
    (["dims", "--family", "so3", "--N", "5", "--dimq", "71/10", "--max", "400"],
     fusion.FamilyKind.SO3_LADDER, Fraction(71, 10)),
], ids=["o-plus", "so3"])
def test_a_dims_table_advances_each_recursion_once_per_label(
        argv, kind, d1, capsys, monkeypatch, fresh_ladder_caches):
    calls = []
    ladder_values = fusion._ladder_values

    def counted(*call):
        values = ladder_values(*call)
        calls.append((call, len(values)))
        return values

    monkeypatch.setattr(fusion, "_ladder_values", counted)
    assert main(argv) == 0
    capsys.readouterr()
    # One list per recursion (classical and quantum), each stepped to label
    # 400 once: 401 terms are 401 steps.
    n_fund = int(argv[4])
    assert calls == [((kind, n_fund, 1, 400), 401),
                     ((kind, *d1.as_integer_ratio(), 400), 401)]


def test_ladder_caches_stay_bounded(fresh_ladder_caches):
    kind = fusion.FamilyKind.SU2_LADDER
    assert fusion._ladder_value.cache_info().maxsize == fusion.LADDER_CACHE_SIZE
    d1_values = [(2 + Fraction(k, 10_007)).as_integer_ratio() for k in range(10_000)]
    for a, b in d1_values:
        fusion._ladder_value(kind, a, b, 3)
    assert fusion._ladder_value.cache_info().currsize <= fusion.LADDER_CACHE_SIZE
    # The first values were evicted and come back correct.
    for a, b in d1_values[:5] + d1_values[-5:]:
        for n in (5, 2, 0):
            assert fusion._ladder_value(kind, a, b, n) == _reference(kind, a, b, n)
    a, b = d1_values[-1]
    d1 = Fraction(a, b)
    assert d1**3 - 2 * d1 == Fraction(fusion._ladder_value(kind, a, b, 3), b**3)


@pytest.mark.parametrize("family", [
    su2_ladder(3, q=Fraction(15, 97)), so3_ladder(5, dim_q_fund=Fraction(71, 10)),
], ids=["o-plus", "so3"])
def test_a_ladder_table_indexes_its_two_prefixes(family, fresh_ladder_caches):
    kind, c = family.kind, family.dim_c_fund
    a, b = family.dim_q_fund.as_integer_ratio()
    labels = [7, 0, 40, 7, 3, 40, 1, 12, 0]
    expected = [(_reference(kind, c, 1, n), _reference(kind, a, b, n), b**n) for n in labels]
    assert fusion.scaled_dims(labels, family) == expected
    # Tables of other families in between leave this one as it was.
    for k in range(4):
        other = FusionFamily(kind, c + 1, Fraction(10 * (c + 2) + k, 10))
        fusion.scaled_dims([5, 2, 9], other)
    assert fusion.scaled_dims(labels, family) == expected
    assert fusion._ladder_value.cache_info().currsize == 0


def test_tables_and_verdicts_leave_the_value_cache_empty(fresh_ladder_caches):
    for family in (su2_ladder(5, q="0.19"), so3_ladder(4, dim_q_fund="17/2"), su2_ladder(3)):
        criteria.masa_verdict(family)
        criteria.kac_part(family, 300)
        if not family.is_kac:
            criteria.verify_decay(family, 60)
        fusion.scaled_dims(range(200, -1, -7), family)
    fusion.scaled_dims(all_words(6), free_unitary(2, q="3/20"))
    assert fusion._ladder_value.cache_info().currsize == 0


def test_a_dropped_table_leaves_no_dimensions_behind(fresh_ladder_caches):
    # Labels 0..3000 of o-plus N=3 at q = 1/5: the two recursions' lists
    # alone hold about 3.8 MiB of ints, and none of it may outlive the table.
    family = su2_ladder(3, q="1/5")
    tracemalloc.start()
    try:
        table = fusion.scaled_dims(range(3001), family)
        assert len(table) == 3001
        del table
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 512 * 1024


# ---------------------------------------------------------------------------
# spectra


def test_rho_spectrum_examples():
    assert list(rho_spectrum(0, Fraction(1, 2))) == [(1, 1)]
    assert list(rho_spectrum(1, "1/2")) == [(2, 1), (1, 2)]
    assert list(rho_spectrum(1, 1)) == [(1, 1), (1, 1)]
    spectrum = list(rho_spectrum(2, Fraction(1, 2)))
    assert spectrum == [(4, 1), (1, 1), (1, 4)]
    assert all(type(term) is int for pair in spectrum for term in pair)
    assert sum(Fraction(*pair) for pair in spectrum) == Fraction(21, 4)  # [3] at 1/2


@pytest.mark.parametrize("q", [Fraction(2, 5), Fraction(7, 9), Fraction(1, 6), Fraction(1)],
                         ids=str)
def test_rho_spectrum_trace_balance_up_to_30(q):
    for n in range(31):
        spectrum = list(rho_spectrum(n, q))
        # the pairs are the exact powers, in lowest terms
        assert spectrum == [(lam.numerator, lam.denominator)
                            for lam in (q ** (-n + 2 * k) for k in range(n + 1))]
        assert sum(Fraction(num, den) for num, den in spectrum) == sum(
            Fraction(den, num) for num, den in spectrum)


def test_rho_spectrum_domain():
    # checked when called, before a pair is stepped
    for q in (Fraction(3, 2), 0, Fraction(-1, 2)):
        with pytest.raises(DomainError):
            rho_spectrum(2, q)
    for n in (-1, 2.0, True):
        with pytest.raises(DomainError):
            rho_spectrum(n, Fraction(1, 2))
    with pytest.raises(TypeError):  # a float is refused, not read as its binary value
        rho_spectrum(2, 0.5)


def test_check_ladder_reads_q_exactly():
    assert check_ladder(3, "0.5") == Fraction(1, 2) and check_ladder(0, 1) == 1
    assert check_ladder(2, "0.99999999999999999999999") < 1
    with pytest.raises(DomainError, match="got 1.00000000000000000001"):
        check_ladder(2, "1.00000000000000000001")


# ---------------------------------------------------------------------------
# invariant multiplicities


def test_invariant_multiplicity_examples():
    assert invariant_multiplicity([1, 1, 1, 1], su2_ladder(2, q=Fraction(1, 2))) == 2
    assert invariant_multiplicity(list("ABAB"), free_unitary(2)) == 2
    assert invariant_multiplicity([1, 1, 1, 1], so3_ladder(4, dim_q_fund=5)) == 3


def test_invariant_multiplicity_rejects_mixed_families():
    with pytest.raises(FamilyError):
        invariant_multiplicity(["A", 1], su2_ladder(2))
    with pytest.raises(FamilyError):
        invariant_multiplicity([1], free_unitary(2))


def test_tensor_reduce_restricts_ladder_labels_to_fundamental():
    with pytest.raises(DomainError):
        tensor_reduce([2], su2_ladder(2))


def test_tensor_reduce_with_start_matches_manual_fold():
    # a free-unitary fold may start at any word: AB (x) B (x) A
    state = tensor_reduce(["AB", "B", "A"], free_unitary(2))
    manual: dict[str, int] = {}
    for part, mult in tensor_free("AB", "B").items():
        for word, word_mult in tensor_free(part, "A").items():
            manual[word] = manual.get(word, 0) + mult * word_mult
    assert state == manual == {"AB": 1, "ABBA": 1}

def test_tensor_reduce_empty_fold_is_trivial():
    assert tensor_reduce([], su2_ladder(2)) == {0: 1}
    assert tensor_reduce([], free_unitary(2)) == {"": 1}


def test_fundamental_power_multiplicities_are_ballot_numbers():
    # independent oracle: the multiplicity of label j in the k-th fundamental
    # power equals the count of nonnegative walks 0 -> j, i.e.
    # C(k, (k-j)/2) - C(k, (k-j)/2 - 1)
    import math

    fam = su2_ladder(2)
    for k in range(11):
        state = tensor_reduce([1] * k, fam)
        for j in range(k + 20):
            if (k - j) % 2 == 1 or j > k:
                expected = 0
            else:
                down = (k - j) // 2
                expected = math.comb(k, down) - (math.comb(k, down - 1) if down else 0)
            assert state.get(j, 0) == expected


@given(st.lists(st.sampled_from("AB"), max_size=7))
def test_free_moments_match_opposite_letter_matchings(letters):
    from qclassfun.noncrossing import count_ab_matchings

    word = "".join(letters)
    assert invariant_multiplicity(list(word), free_unitary(2)) == count_ab_matchings(word)
