"""Combinatorial counts used as moment oracles, against brute-force enumerators."""

import ast
import itertools
import random
from pathlib import Path
from typing import Iterator

import pytest

import qclassfun.noncrossing
from qclassfun.noncrossing import (
    catalan,
    count_ab_matchings,
    count_noncrossing_matchings,
    count_nosingleton_noncrossing,
)

#: Riordan numbers (OEIS A005043): no-singleton noncrossing partitions of n points.
RIORDAN = [
    1, 0, 1, 1, 3, 6, 15, 36, 91, 232, 603, 1585, 4213, 11298, 30537, 83097, 227475,
    625992, 1730787, 4805595, 13393689, 37458330, 105089229, 295673994, 834086421,
]


# Enumerating oracles for the counts: each builds every object it counts.


def iter_noncrossing_matchings(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Yield all noncrossing perfect matchings of points ``0..n-1``.

    Pairs the first free point with a partner at odd distance so both sides
    of the cut can be matched, then recurses on the two independent arcs.
    """
    if n % 2 == 1:
        return

    def rec(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not points:
            yield ()
            return
        first = points[0]
        for j in range(1, len(points), 2):
            for m1 in rec(points[1:j]):
                for m2 in rec(points[j + 1:]):
                    yield ((first, points[j]),) + m1 + m2

    yield from rec(tuple(range(n)))


def iter_nosingleton_noncrossing(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield the noncrossing partitions of ``0..n-1`` with every block of size >= 2.

    Picks the block of the first point, then recurses independently into the
    gaps between its consecutive members and after its last one.
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


# Brute-force oracle for the no-singleton enumerator: every set partition,
# filtered by the definition of noncrossing.


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


def is_noncrossing(blocks) -> bool:
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


def _canonical(partition) -> frozenset:
    return frozenset(tuple(sorted(block)) for block in partition)


def test_catalan_sequence():
    assert [catalan(k) for k in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_matchings_count_catalan():
    for k in range(8):
        assert count_noncrossing_matchings(2 * k) == catalan(k)
        assert count_noncrossing_matchings(2 * k + 1) == 0


def test_matchings_are_noncrossing_and_perfect():
    for matching in iter_noncrossing_matchings(8):
        covered = sorted(p for pair in matching for p in pair)
        assert covered == list(range(8))
        for (a, b) in matching:
            for (c, d) in matching:
                if (a, b) != (c, d):
                    assert not (a < c < b < d or c < a < d < b)


def test_ab_matchings_on_alternating_words():
    for k in range(7):
        word = "AB" * k
        assert count_ab_matchings(word) == catalan(k)


def test_ab_matchings_examples():
    assert count_ab_matchings("") == 1
    assert count_ab_matchings("AB") == 1
    assert count_ab_matchings("AA") == 0
    assert count_ab_matchings("AABB") == 1  # only nested pairing works
    with pytest.raises(ValueError):
        count_ab_matchings("AX")


@pytest.mark.parametrize("count", [catalan, count_noncrossing_matchings,
                                   count_nosingleton_noncrossing])
@pytest.mark.parametrize("n", [-1, -2])
def test_a_negative_number_of_points_is_a_value_error(count, n):
    # count_noncrossing_matchings(-2) raised IndexError, and (-1) returned 0
    with pytest.raises(ValueError, match="must be >= 0"):
        count(n)


def test_set_partitions_counts_are_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52, 203]
    for n, expected in enumerate(bell):
        assert sum(1 for _ in iter_set_partitions(n)) == expected


def test_is_noncrossing():
    assert is_noncrossing([[0, 1], [2, 3]])
    assert is_noncrossing([[0, 3], [1, 2]])
    assert not is_noncrossing([[0, 2], [1, 3]])


@pytest.mark.parametrize("n", range(10))
def test_nosingleton_enumerator_matches_the_brute_force_oracle(n):
    oracle = {
        _canonical(p) for p in iter_set_partitions(n)
        if all(len(b) >= 2 for b in p) and is_noncrossing(p)
    }
    partitions = list(iter_nosingleton_noncrossing(n))
    assert len(partitions) == len({_canonical(p) for p in partitions})  # distinct
    assert {_canonical(p) for p in partitions} == oracle
    for partition in partitions:
        assert sorted(x for block in partition for x in block) == list(range(n))
        assert all(len(block) >= 2 for block in partition)
        assert is_noncrossing(partition)


def test_nosingleton_noncrossing_counts():
    assert [count_nosingleton_noncrossing(n) for n in range(9)] == [
        1, 0, 1, 1, 3, 6, 15, 36, 91,
    ]


def test_counts_equal_the_enumerators_up_to_12():
    for n in range(13):
        assert count_noncrossing_matchings(n) == sum(1 for _ in iter_noncrossing_matchings(n))
        assert count_nosingleton_noncrossing(n) == sum(
            1 for _ in iter_nosingleton_noncrossing(n))
    rng = random.Random(12)
    words = ["".join(letters) for n in range(11) for letters in itertools.product("AB", repeat=n)]
    words += ["".join(rng.choice("AB") for _ in range(12)) for _ in range(200)]
    for word in words:
        assert count_ab_matchings(word) == sum(
            1 for matching in iter_noncrossing_matchings(len(word))
            if all(word[i] != word[j] for i, j in matching)), word


def test_counts_equal_known_values_up_to_24():
    assert [count_nosingleton_noncrossing(n) for n in range(25)] == RIORDAN
    for n in range(25):
        expected = catalan(n // 2) if n % 2 == 0 else 0
        assert count_noncrossing_matchings(n) == expected
        assert count_ab_matchings("AB" * (n // 2)) == catalan(n // 2)
        assert count_ab_matchings(("AB" * 13)[:n]) == expected


def test_counts_import_nothing_from_the_package():
    """The oracles stay a second route: nothing of qclassfun, fusion included."""
    tree = ast.parse(Path(qclassfun.noncrossing.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("qclassfun"), \
                ast.dump(node)
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("qclassfun") for alias in node.names), \
                ast.dump(node)
