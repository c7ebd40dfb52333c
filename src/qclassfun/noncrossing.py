"""Independent combinatorial enumerators for character-moment checks.

Every count here enumerates directly, by first-point recursions that build
noncrossing matchings or no-singleton noncrossing partitions only, so its
cost grows with the number of those objects, not with all set partitions.
These routines deliberately share no code with :mod:`qclassfun.fusion`: they
are the second route of the moment cross-checks, so the two sides must stay
independent.
"""

from __future__ import annotations

import math
from typing import Iterator

from .errors import BudgetError

#: Budget of :func:`count_nosingleton_noncrossing`, which builds only the
#: partitions it counts: 603 at n = 10 and under 3x more per further point.
#: The cap also fixes where ``moments --family so3`` exits 3.
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


def check_partition_budget(n: int) -> None:
    """Raise BudgetError if `n` points exceed MAX_PARTITION_POINTS."""
    if n > MAX_PARTITION_POINTS:
        raise BudgetError(f"set-partition enumeration capped at {MAX_PARTITION_POINTS} points, "
                          f"got {n}")


def iter_nosingleton_noncrossing(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield the noncrossing partitions of ``0..n-1`` with every block of size >= 2.

    Picks the block of the first point, then recurses independently into the
    gaps between its consecutive members and after its last one: a block that
    crosses none of them lies inside one gap.  A gap of one point has no such
    partition and ends its branch at once, so the work grows with the count.
    """

    def rec(lo: int, hi: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        """Partitions of the points lo..hi-1."""
        if lo == hi:
            yield ()
            return
        yield from grow((lo,), (), hi)

    def grow(block: tuple[int, ...], inner: tuple, hi: int) -> Iterator[tuple]:
        """Close `block` or add a later member; `inner` partitions its gaps so far."""
        last = block[-1]
        if len(block) >= 2:
            for rest in rec(last + 1, hi):
                yield (block,) + inner + rest
        for member in range(last + 1, hi):
            for gap in rec(last + 1, member):
                yield from grow(block + (member,), inner + gap, hi)

    yield from rec(0, n)


def count_nosingleton_noncrossing(n: int) -> int:
    """Noncrossing partitions of n points with every block of size >= 2.

    The sequence begins 1, 0, 1, 1, 3, 6, 15, 36, 91 for n = 0..8.  Raises
    BudgetError above MAX_PARTITION_POINTS points.
    """
    check_partition_budget(n)
    return sum(1 for _ in iter_nosingleton_noncrossing(n))
