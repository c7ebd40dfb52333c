"""Irreducible labels, tensor decompositions and dimension functions.

Three fusion families are modeled:

* ``SU2_LADDER`` -- self-conjugate ladder with ``1 (x) n = (n-1) + (n+1)``,
* ``SO3_LADDER`` -- self-conjugate ladder with ``1 (x) n = (n-1) + n + (n+1)``,
* ``FREE_UNITARY`` -- labels are words over ``{A, B}`` forming a free monoid,
  with the conjugate of a word obtained by reversing it and swapping letters.

Ladder labels are plain nonnegative ints (0 is trivial); free labels are
strings over ``A``/``B`` (the empty string is trivial).  All dimensions are
computed exactly, the classical and the quantum one of each label in one
table of :func:`scaled_dims`: classical dimensions are ints, quantum
dimensions unreduced quotients of ints read from the same integer
recursions, and :func:`rho_spectrum` steps the intertwiner's spectrum as
exact int pairs.
"""

from __future__ import annotations

import itertools
import math
import re
from _thread import allocate_lock
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .budgets import MAX_TABLE_DIGITS
from .dyadic import check_count, read_rational
from .errors import BudgetError, DomainError, FamilyError, Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator, Sequence

Label = int | str
Decomposition = dict  # label -> positive multiplicity, canonically ordered

WORD_ALPHABET = "AB"
_CONJUGATE_LETTER = {"A": "B", "B": "A"}
#: A maximal alternating run of A and B: it ends before a repeated letter.
_ALTERNATING_BLOCK = re.compile("A(?:BA)*B?|B(?:AB)*A?")


class FamilyKind(Enum):
    SU2_LADDER = "su2-ladder"
    SO3_LADDER = "so3-ladder"
    FREE_UNITARY = "free-unitary"


class FusionFamily(Record):
    """Fusion data of one family: kind plus fundamental dimensions.

    `dim_c_fund` is an int of at least 2, or 3 for so3 ladders, whose
    classical dimensions go 1, 2, 1, -1, ... at 2.  The rational
    `dim_q_fund` must dominate it; equality is the Kac case, where every
    quantum dimension collapses onto the classical one.
    """

    __slots__ = ("kind", "dim_c_fund", "dim_q_fund")

    def __init__(self, kind: FamilyKind, dim_c_fund: int, dim_q_fund: int | str | Fraction,
                 _set=object.__setattr__) -> None:
        check_count(dim_c_fund, "fundamental dimension", 3 if kind is FamilyKind.SO3_LADDER else 2)
        dim_q_fund = read_rational(dim_q_fund)
        if dim_q_fund < dim_c_fund:
            raise DomainError(
                f"quantum dimension {dim_q_fund} may not fall below the "
                f"classical dimension {dim_c_fund}"
            )
        _set(self, "kind", kind)
        _set(self, "dim_c_fund", dim_c_fund)
        _set(self, "dim_q_fund", dim_q_fund)

    @property
    def is_kac(self) -> bool:
        return self.dim_q_fund == self.dim_c_fund

    @property
    def is_ladder(self) -> bool:
        return self.kind is not FamilyKind.FREE_UNITARY

    def trivial_label(self) -> Label:
        return 0 if self.is_ladder else ""


def _dim_q_from_args(
    dim_fund: int,
    dim_q_fund: int | str | Fraction | None,
    q: int | str | Fraction | None,
) -> int | str | Fraction:
    if dim_q_fund is not None and q is not None:
        raise DomainError("give either dim_q_fund or q, not both")
    if q is not None:
        qq = read_rational(q)
        if not (0 < qq <= 1):
            raise DomainError(f"deformation parameter must lie in (0, 1], got {qq}")
        return qq + 1 / qq
    return dim_fund if dim_q_fund is None else dim_q_fund  # Kac by default


def su2_ladder(dim_fund: int, dim_q_fund=None, q=None) -> FusionFamily:
    """Ladder family with two-term fusion; `q` sets dim_q = q + 1/q."""
    return FusionFamily(FamilyKind.SU2_LADDER, dim_fund, _dim_q_from_args(dim_fund, dim_q_fund, q))


def so3_ladder(dim_fund: int, dim_q_fund=None) -> FusionFamily:
    """Ladder family with three-term fusion (quantum automorphism type)."""
    return FusionFamily(FamilyKind.SO3_LADDER, dim_fund, _dim_q_from_args(dim_fund, dim_q_fund, None))


def free_unitary(dim_fund: int, dim_q_fund=None, q=None) -> FusionFamily:
    """Free-monoid family; labels are words over {A, B}."""
    return FusionFamily(FamilyKind.FREE_UNITARY, dim_fund, _dim_q_from_args(dim_fund, dim_q_fund, q))


# ---------------------------------------------------------------------------
# label handling


def check_label(label: Label, family: FusionFamily) -> Label:
    """Validate that `label` belongs to `family`; return it unchanged."""
    if family.is_ladder:
        if not isinstance(label, int) or isinstance(label, bool) or label < 0:
            raise FamilyError(f"ladder families use nonnegative int labels, got {label!r}")
        return label
    if not isinstance(label, str) or label.strip(WORD_ALPHABET):
        raise FamilyError(f"free-unitary labels are words over {{A, B}}, got {label!r}")
    return label


def label_sort_key(label: Label):
    if isinstance(label, int):
        return (label,)
    return (len(label), label)


def _canonical(terms: dict) -> Decomposition:
    return {k: terms[k] for k in sorted(terms, key=label_sort_key) if terms[k] > 0}


def all_words(max_len: int, min_len: int = 0) -> Iterator[str]:
    """All words over {A, B} with length in [min_len, max_len], short first."""
    for length in range(min_len, max_len + 1):
        for letters in itertools.product(WORD_ALPHABET, repeat=length):
            yield "".join(letters)


def alternating_word(length: int) -> str:
    """The alternating word ``ABAB...`` of given length."""
    return "AB" * (length // 2) + "A" * (length % 2)


# ---------------------------------------------------------------------------
# tensor products


def tensor_fundamental(n: int, family: FusionFamily) -> Decomposition:
    """Decomposition of fundamental (x) ladder-n."""
    if not family.is_ladder:
        raise FamilyError("tensor_fundamental applies to ladder families only")
    check_label(n, family)
    if n == 0:
        return {1: 1}
    if family.kind is FamilyKind.SU2_LADDER:
        return {n - 1: 1, n + 1: 1}
    return {n - 1: 1, n: 1, n + 1: 1}


def tensor_free(x: str, y: str) -> Decomposition:
    """Free fusion: sum of ``a * b`` over splits ``x = a c``, ``y = conj(c) b``.

    A split that cancels k letters needs the last k letters of `x` to mirror
    the first k of `y`, so the splits that occur are k = 0..K for the longest
    such run K.  Their products have distinct lengths, so each has
    multiplicity 1, and listing them shortest first is the canonical order.
    """
    for word in (x, y):
        if word.strip(WORD_ALPHABET):
            raise FamilyError(f"free-unitary labels are words over {{A, B}}, got {word!r}")
    cancelled = 0
    while (cancelled < len(x) and cancelled < len(y)
           and _CONJUGATE_LETTER[x[-1 - cancelled]] == y[cancelled]):
        cancelled += 1
    return {x[:len(x) - k] + y[k:]: 1 for k in range(cancelled, -1, -1)}


def factorize(word: str) -> list[str]:
    """Split a nonempty word over {A, B} into maximal alternating blocks.

    Cuts fall exactly between equal adjacent letters; the last letter of each
    block then matches the first letter of the next, re-concatenation gives
    back the input, and the factorization is the unique chained one.  The
    letters are not checked here: :func:`scaled_dims` checks the label with
    :func:`check_label` before splitting it.
    """
    if not word:
        raise DomainError("the empty word has no block factorization")
    return _ALTERNATING_BLOCK.findall(word)


def tensor_reduce(labels: Sequence[Label], family: FusionFamily) -> Decomposition:
    """Decomposition of ``labels[0] (x) ... (x) labels[-1]``.

    Ladder families are generated by their fundamental, so ladder entries
    must be 0 or 1; free-unitary entries may be arbitrary words.
    """
    state: dict[Label, int] = {family.trivial_label(): 1}
    for label in labels:
        check_label(label, family)
        if family.is_ladder and label not in (0, 1):
            raise DomainError(
                "ladder products are built from iterated fundamental factors; "
                f"use labels 0 or 1, got {label}"
            )
        next_state: dict[Label, int] = {}
        for current, mult in state.items():
            if family.is_ladder:
                parts = {current: 1} if label == 0 else tensor_fundamental(current, family)
            else:
                parts = tensor_free(current, label)
            for part, part_mult in parts.items():
                next_state[part] = next_state.get(part, 0) + mult * part_mult
        state = next_state
    return _canonical(state)


def invariant_multiplicity(labels: Sequence[Label], family: FusionFamily) -> int:
    """Multiplicity of the trivial label in the iterated tensor product."""
    return tensor_reduce(labels, family).get(family.trivial_label(), 0)


# ---------------------------------------------------------------------------
# dimensions


#: Most ladder dimensions :func:`_ladder_value` keeps, and most
#: ``(kind, a, b)`` prefixes :func:`_ladder_values` extends; the least
#: recently used go first.
LADDER_CACHE_SIZE = 4096
LADDER_PREFIXES = 32


#: Guards the shared prefixes: two threads must not extend one list.
_LADDER_LOCK = allocate_lock()


@lru_cache(maxsize=LADDER_PREFIXES)
def _ladder_prefix(kind: FamilyKind, a: int, b: int) -> list[int]:
    """The scaled terms ``D(0), D(1), ...`` of :func:`_ladder_values`
    computed so far; shared by every caller, which appends in place while
    holding ``_LADDER_LOCK``."""
    return [1, a]


def _ladder_values(kind: FamilyKind, a: int, b: int, n: int) -> list[int]:
    """Scaled dimensions ``D(k) = d(k)·b^k`` of the ladder labels 0..n for
    the fundamental dimension ``d1 = a/b`` in lowest terms.

    The fundamental fusion forces ``d1 d(k) = d(k-1) + d(k+1)`` for two-term
    (su2) fusion and ``d1 d(k) = d(k-1) + d(k) + d(k+1)`` for three-term
    (so3) fusion, so ``D(k+1) = (a - s·b)·D(k) - b²·D(k-1)`` with s = 0 for
    su2 and 1 for so3; classical dimensions are the case b = 1.  The
    two-term ``d(k)`` is the deformed integer of order k+1 at the root of
    ``x + 1/x = d1``.  ``D(k)`` is congruent to ``a^k`` mod b, so
    ``D(k)/b^k`` is in lowest terms.  This is the only place either
    recursion is written.  The stored prefix is extended only as far as
    `n`, so a table of labels 0..n costs n+1 steps; entries are only
    appended, so the first n+1 stay valid after the lock is released.
    """
    step = a - b if kind is FamilyKind.SO3_LADDER else a
    scale = b * b
    with _LADDER_LOCK:
        values = _ladder_prefix(kind, a, b)
        while len(values) <= n:
            values.append(step * values[-1] - scale * values[-2])
    return values


@lru_cache(maxsize=LADDER_CACHE_SIZE)
def _ladder_value(kind: FamilyKind, a: int, b: int, n: int) -> int:
    """``D(n)`` of :func:`_ladder_values`, read from the stored prefix."""
    return _ladder_values(kind, a, b, n)[n]


def dim(label: Label, family: FusionFamily, which: str = "classical") -> int | Fraction:
    """Exact classical (an int) or quantum (a Fraction) dimension of a
    label: one entry of the one-label table of :func:`scaled_dims`."""
    if which not in ("classical", "quantum"):
        raise DomainError(f"which must be 'classical' or 'quantum', got {which!r}")
    classical, quantum, scale = scaled_dims((label,), family)[0]
    return classical if which == "classical" else Fraction(quantum, scale)


def scaled_dims(labels: Iterable[Label], family: FusionFamily) -> list[tuple[int, int, int]]:
    """Exact dimensions of `labels`, in their order, each as the triple
    ``(d, D, b^length)`` of ints for the quantum fundamental dimension
    ``a/b``: ``d`` is the classical dimension and ``D/b^length`` the quantum
    one, an unreduced quotient; no gcd is taken.

    Ladder dimensions follow the linear recursion of the family; a free word
    contributes the product over its alternating blocks, where a block of
    length n carries the order-(n+1) deformed integer of the fundamental
    dimension.  Both run on the scaled ints of :func:`_ladder_values`, so
    ``D`` is congruent to ``a^length`` mod b and the quotient is in lowest
    terms already; the classical dimension is the case ``b = 1``.  Each
    label is checked once, both recursions and the powers ``b^length`` are
    stepped once up to the longest label or word, and each word is split
    once; a ladder label is read through :func:`_ladder_value`.

    The table holds about ``log10(a)`` digits per unit of label length, so
    the lengths are summed as the labels are checked, and a table past
    ``MAX_TABLE_DIGITS`` is a :class:`BudgetError` before either recursion
    steps.
    """
    c = family.dim_c_fund
    a, b = family.dim_q_fund.as_integer_ratio()
    most = MAX_TABLE_DIGITS / math.log10(a)  # a >= 2
    checked, length = [], 0
    for label in labels:
        checked.append(check_label(label, family))
        length += label if family.is_ladder else len(label)
        if length > most:
            raise BudgetError(f"the dimension table exceeds its budget of {MAX_TABLE_DIGITS} digits")
    labels = checked
    top = max(labels if family.is_ladder else map(len, labels), default=0)
    powers = list(itertools.accumulate(itertools.repeat(b, top), int.__mul__, initial=1))
    if family.is_ladder:
        kind = family.kind
        return [(_ladder_value(kind, c, 1, n), _ladder_value(kind, a, b, n), powers[n])
                for n in labels]
    classical = _ladder_values(FamilyKind.SU2_LADDER, c, 1, top)
    quantum = _ladder_values(FamilyKind.SU2_LADDER, a, b, top)
    table = []
    for word in labels:
        blocks = [len(block) for block in factorize(word)] if word else []
        table.append((math.prod(classical[n] for n in blocks),
                      math.prod(quantum[n] for n in blocks), powers[len(word)]))
    return table


def check_ladder(n: int, q: int | str | Fraction) -> Fraction:
    """The one check of an ``SU_q(2)`` ladder ``(n, q)``: `n` must be a
    nonnegative int, and `q`, read with :func:`~qclassfun.dyadic.read_rational`,
    must lie in ``(0, 1]``, decided exactly.  Returns `q` as a ``Fraction``."""
    check_count(n, "ladder index", 0)
    value = read_rational(q)
    if not 0 < value <= 1:
        raise DomainError(f"spectral parameter must lie in (0, 1], got {q}")
    return value


def rho_spectrum(n: int, q: int | str | Fraction) -> Iterator[tuple[int, int]]:
    """Spectrum ``{q^(2k-n) : k = 0..n}`` of the positive intertwiner, whose
    trace is the order-(n+1) deformed integer, in the order of k, as int
    pairs ``(numerator, denominator)`` in lowest terms; ``(n, q)`` is checked
    by :func:`check_ladder` on the call.  For ``q = p/r`` the pairs are
    ``(r^j, p^j)`` or ``(p^j, r^j)`` with ``j = |2k-n|``, stepped down from
    ``j = n`` by exact division by ``r^2`` and ``p^2`` and back up by
    multiplication, so two powers of each are alive at a time.
    """
    p, r = check_ladder(n, q).as_integer_ratio()
    return _ladder_pairs(n, p, r)


def _ladder_pairs(n: int, p: int, r: int) -> Iterator[tuple[int, int]]:
    p2, r2 = p * p, r * r
    num, den = r**n, p**n
    for _ in range(n // 2):
        yield num, den
        num, den = num // r2, den // p2
    if n % 2:
        yield num, den
    num, den = den, num
    for _ in range(n // 2 + 1):
        yield num, den
        num, den = num * p2, den * r2
