"""Irreducible labels, tensor decompositions and dimension functions.

Three fusion families are modeled:

* ``SU2_LADDER`` -- self-conjugate ladder with ``1 (x) n = (n-1) + (n+1)``,
* ``SO3_LADDER`` -- self-conjugate ladder with ``1 (x) n = (n-1) + n + (n+1)``,
* ``FREE_UNITARY`` -- labels are words over ``{A, B}`` forming a free monoid,
  with the conjugate of a word obtained by reversing it and swapping letters.

Ladder labels are plain nonnegative ints (0 is trivial); free labels are
strings over ``A``/``B`` (the empty string is trivial).  All dimensions are
computed exactly: classical dimensions are ints, quantum dimensions are
:class:`~fractions.Fraction` values read from the same integer recursions,
and :func:`rho_spectrum` gives the intertwiner's spectrum as exact
``Fraction`` values too.
"""

from __future__ import annotations

import itertools
import math
import re
from _thread import allocate_lock
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, FamilyError, Record

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


def exact_fraction(value: int | str | Fraction) -> Fraction:
    """Exact conversion; floats are refused to avoid silent binary rounding."""
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(
            f"pass an int, Fraction or decimal string for exactness, got {value!r}"
        )
    return Fraction(value)


class FusionFamily(Record):
    """Fusion data of one family: kind plus fundamental dimensions.

    `dim_q_fund` must dominate `dim_c_fund`; equality is the Kac case, where
    every quantum dimension collapses onto the classical one.
    """

    __slots__ = ("kind", "dim_c_fund", "dim_q_fund")

    def __init__(self, kind: FamilyKind, dim_c_fund: int, dim_q_fund: Fraction,
                 _set=object.__setattr__) -> None:
        if dim_c_fund < 2:
            raise DomainError(f"fundamental dimension must be >= 2, got {dim_c_fund}")
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
) -> Fraction:
    if dim_q_fund is not None and q is not None:
        raise DomainError("give either dim_q_fund or q, not both")
    if q is not None:
        qq = exact_fraction(q)
        if not (0 < qq <= 1):
            raise DomainError(f"deformation parameter must lie in (0, 1], got {qq}")
        return qq + 1 / qq
    if dim_q_fund is not None:
        return exact_fraction(dim_q_fund)
    return Fraction(dim_fund)  # Kac by default


def su2_ladder(dim_fund: int, dim_q_fund=None, q=None) -> FusionFamily:
    """Ladder family with two-term fusion; `q` sets dim_q = q + 1/q."""
    return FusionFamily(FamilyKind.SU2_LADDER, dim_fund, _dim_q_from_args(dim_fund, dim_q_fund, q))


def so3_ladder(dim_fund: int, dim_q_fund=None) -> FusionFamily:
    """Ladder family with three-term fusion (quantum automorphism type).

    Needs ``dim_fund >= 3``: below that the classical dimensions of the
    recursion go 1, 2, 1, -1, ... and define no family.
    """
    if dim_fund < 3:
        raise DomainError(f"so3 ladders need fundamental dimension >= 3, got {dim_fund}")
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
    label: the pair of :func:`scaled_dim` as one number."""
    numerator, denominator = scaled_dim(label, family, which)
    return numerator if which == "classical" else Fraction(numerator, denominator)


def scaled_dim(label: Label, family: FusionFamily, which: str) -> tuple[int, int]:
    """Exact classical or quantum dimension of one label: the one-label
    table of :func:`scaled_dims`."""
    return scaled_dims((label,), family, which)[0]


def scaled_dims(labels: Iterable[Label], family: FusionFamily,
                which: str) -> list[tuple[int, int]]:
    """Exact classical or quantum dimensions of `labels`, in their order, each
    as the unreduced pair ``(D, b^length)`` of ints for the fundamental
    dimension ``a/b``; no gcd is taken.

    Ladder dimensions follow the linear recursion of the family; a free word
    contributes the product over its alternating blocks, where a block of
    length n carries the order-(n+1) deformed integer of the fundamental
    dimension.  Both run on the scaled ints of :func:`_ladder_values`, so
    ``D`` is congruent to ``a^length`` mod b and the pair is in lowest
    terms already; a classical dimension is ``(D, 1)``.  `which` is checked
    once and each label once, the recursion is stepped once up to the
    longest label or block, and each word is split once; a ladder label is
    read through :func:`_ladder_value`.
    """
    if which not in ("classical", "quantum"):
        raise DomainError(f"which must be 'classical' or 'quantum', got {which!r}")
    labels = [check_label(label, family) for label in labels]
    a, b = (family.dim_c_fund, 1) if which == "classical" else family.dim_q_fund.as_integer_ratio()
    if family.is_ladder:
        kind = family.kind
        _ladder_values(kind, a, b, max(labels, default=0))
        return [(_ladder_value(kind, a, b, n), b ** n) for n in labels]
    lengths = [_block_lengths(word) for word in labels]
    ladder = _ladder_values(FamilyKind.SU2_LADDER, a, b,
                            max((n for blocks in lengths for n in blocks), default=0))
    return [(math.prod(map(ladder.__getitem__, blocks)), b ** len(word))
            for word, blocks in zip(labels, lengths)]


@lru_cache(maxsize=LADDER_CACHE_SIZE)
def _block_lengths(word: str) -> tuple[int, ...]:
    """Lengths of the blocks of :func:`factorize`, none for the empty word;
    kept for the tables of every family that reads the same words."""
    return tuple(map(len, factorize(word))) if word else ()


def rho_spectrum(n: int, q: int | str | Fraction) -> list[Fraction]:
    """Spectrum ``{q^(2k-n) : k = 0..n}`` of the positive intertwiner, as
    exact ``Fraction`` values.

    Geometrically spaced so the trace is the order-(n+1) deformed integer and
    matches the trace of the inverse.  `q` is read with :func:`exact_fraction`
    and must lie in ``(0, 1]``, checked exactly.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"ladder index must be a nonnegative int, got {n!r}")
    q = exact_fraction(q)
    if not 0 < q <= 1:
        raise DomainError(f"spectral parameter must lie in (0, 1], got {q}")
    return [q ** (2 * k - n) for k in range(n + 1)]
