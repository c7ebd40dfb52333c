"""Independent combinatorial enumerators for character-moment checks.

Everything here counts by direct enumeration over small ground sets.  These
routines deliberately share no code with :mod:`qclassfun.fusion`: they are
the second route of the moment cross-checks, so the two sides must stay
independent.
"""

from __future__ import annotations

import math
from typing import Iterator

from .errors import BudgetError

#: Budget of :func:`count_nosingleton_noncrossing`, which walks all Bell(n)
#: set partitions: n = 10 takes under a second, each further point ~5x more.
MAX_PARTITION_POINTS = 10


def catalan(k: int) -> int:
    """The k-th Catalan number."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return math.comb(2 * k, k) // (k + 1)


def iter_noncrossing_matchings(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield all noncrossing perfect matchings of points ``0..n-1``.

    Pairs the first free point with a partner at odd distance so both sides
    of the cut can be matched, then recurses on the two independent arcs.
    """
    if n % 2 == 1:
        return
    if n == 0:
        yield ()
        return

    def rec(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not points:
            yield ()
            return
        first = points[0]
        for j in range(1, len(points), 2):
            partner = points[j]
            inner = points[1:j]
            outer = points[j + 1:]
            for m1 in rec(inner):
                for m2 in rec(outer):
                    yield ((first, partner),) + m1 + m2

    yield from rec(tuple(range(n)))


def count_noncrossing_matchings(n: int) -> int:
    """Number of noncrossing perfect matchings of n points (0 when n is odd)."""
    return sum(1 for _ in iter_noncrossing_matchings(n))


def count_ab_matchings(word: str) -> int:
    """Noncrossing perfect matchings of `word` joining opposite letters only.

    Each pair must link an ``A`` position with a ``B`` position.  For the
    alternating word of length 2k this equals the k-th Catalan number.
    """
    if any(letter not in "AB" for letter in word):
        raise ValueError(f"word must be over {{A, B}}, got {word!r}")
    return sum(
        1
        for matching in iter_noncrossing_matchings(len(word))
        if all(word[i] != word[j] for i, j in matching)
    )


def iter_set_partitions(n: int) -> Iterator[list[list[int]]]:
    """Yield all set partitions of ``0..n-1`` (restricted-growth order)."""
    if n == 0:
        yield []
        return

    def rec(i: int, blocks: list[list[int]]) -> Iterator[list[list[int]]]:
        if i == n:
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def is_noncrossing(blocks: list[list[int]]) -> bool:
    """No two blocks interleave as a < b < c < d with {a,c}, {b,d} split."""
    for idx, b1 in enumerate(blocks):
        for b2 in blocks[idx + 1:]:
            for a in b1:
                for c in b1:
                    if a >= c:
                        continue
                    inside = [x for x in b2 if a < x < c]
                    outside = [x for x in b2 if x < a or x > c]
                    if inside and outside:
                        return False
    return True


def count_nosingleton_noncrossing(n: int) -> int:
    """Noncrossing partitions of n points with every block of size >= 2.

    The sequence begins 1, 0, 1, 1, 3, 6, 15, 36, 91 for n = 0..8.  Raises
    BudgetError above MAX_PARTITION_POINTS points.
    """
    if n > MAX_PARTITION_POINTS:
        raise BudgetError(f"set-partition enumeration capped at {MAX_PARTITION_POINTS} points, "
                          f"got {n}")
    return sum(
        1
        for partition in iter_set_partitions(n)
        if all(len(b) >= 2 for b in partition) and is_noncrossing(partition)
    )
