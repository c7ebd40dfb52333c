"""Combinatorial enumerators used as moment oracles."""

import pytest

from qclassfun.errors import BudgetError
from qclassfun.noncrossing import (
    MAX_PARTITION_POINTS,
    catalan,
    count_ab_matchings,
    count_noncrossing_matchings,
    count_nosingleton_noncrossing,
    is_noncrossing,
    iter_noncrossing_matchings,
    iter_set_partitions,
)


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


def test_nosingleton_noncrossing_counts():
    assert [count_nosingleton_noncrossing(n) for n in range(9)] == [
        1, 0, 1, 1, 3, 6, 15, 36, 91,
    ]


def test_nosingleton_noncrossing_budget():
    assert count_nosingleton_noncrossing(MAX_PARTITION_POINTS) == 603
    with pytest.raises(BudgetError):
        count_nosingleton_noncrossing(MAX_PARTITION_POINTS + 1)
