"""Independent combinatorial counts for character-moment checks.

Each count is a first-point recursion that counts noncrossing matchings or
no-singleton noncrossing partitions without building them, so its cost is
polynomial in the number of points.  These routines deliberately share no
code with :mod:`qclassfun.fusion`: they are the second route of the moment
cross-checks, so the two sides must stay independent.
"""

from __future__ import annotations

import math

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable


def catalan(k: int) -> int:
    """The k-th Catalan number."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return math.comb(2 * k, k) // (k + 1)


def _count_matchings(n: int, joins: Callable[[int, int], bool]) -> int:
    """Noncrossing perfect matchings of points ``0..n-1`` whose every pair
    ``(i, p)``, i < p, satisfies ``joins(i, p)``.

    ``c[i][j]`` counts those of the points ``i..j-1``: point i pairs with
    some p, which leaves ``i+1..p-1`` and ``p+1..j-1`` to be matched on their
    own.  Only spans of even length are filled; the empty span counts 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 2 == 1:
        return 0
    c = [[1] * (n + 1) for _ in range(n + 1)]
    for length in range(2, n + 1, 2):
        for i in range(n - length + 1):
            j = i + length
            c[i][j] = sum(c[i + 1][p] * c[p + 1][j] for p in range(i + 1, j, 2) if joins(i, p))
    return c[0][n]


def count_noncrossing_matchings(n: int) -> int:
    """Number of noncrossing perfect matchings of n points (0 when n is odd)."""
    return _count_matchings(n, lambda i, p: True)


def count_ab_matchings(word: str) -> int:
    """Noncrossing perfect matchings of `word` joining opposite letters only.

    Each pair must link an ``A`` position with a ``B`` position.  For the
    alternating word of length 2k this equals the k-th Catalan number.
    """
    if any(letter not in "AB" for letter in word):
        raise ValueError(f"word must be over {{A, B}}, got {word!r}")
    return _count_matchings(len(word), lambda i, p: word[i] != word[p])


def count_nosingleton_noncrossing(n: int) -> int:
    """Noncrossing partitions of n points with every block of size >= 2.

    Chooses the block of the first point; the gaps between its consecutive
    members and after its last one are then filled independently, since a
    block crossing none of them lies inside one gap.  ``r[m]`` counts the
    partitions of m points, and ``tail[m]`` the ways to finish a block that
    already has two or more members and is followed by m points: close it and
    partition them, or skip a gap of g points to a further member.

    The sequence begins 1, 0, 1, 1, 3, 6, 15, 36, 91 for n = 0..8.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    r, tail = [1], [1]
    for m in range(1, n + 1):
        r.append(sum(r[g] * tail[m - 2 - g] for g in range(m - 1)))
        tail.append(r[m] + sum(r[g] * tail[m - 1 - g] for g in range(m)))
    return r[n]
