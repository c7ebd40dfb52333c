"""Combinatorial enumerators used as moment oracles."""

from typing import Iterator

import pytest

from qclassfun.errors import BudgetError
from qclassfun.noncrossing import (
    MAX_PARTITION_POINTS,
    catalan,
    count_ab_matchings,
    count_noncrossing_matchings,
    count_nosingleton_noncrossing,
    iter_noncrossing_matchings,
    iter_nosingleton_noncrossing,
)


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


def test_nosingleton_noncrossing_budget():
    assert count_nosingleton_noncrossing(MAX_PARTITION_POINTS) == 603
    with pytest.raises(BudgetError):
        count_nosingleton_noncrossing(MAX_PARTITION_POINTS + 1)
