"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The criteria live in :mod:`qclassfun.acceptance` (they also back the CLI
``report`` subcommand); here every one is executed at its stated tolerance
and asserted.
"""

import json
from collections import Counter
from fractions import Fraction

import pytest

from qclassfun import acceptance, fusion


def _run(check):
    outcome = check()
    status = "PASS" if outcome["passed"] else "FAIL"
    print(f"{status} criterion {outcome['id']}: {outcome['name']}")
    if not outcome["passed"]:
        print(json.dumps(outcome["details"], indent=2, default=str))
    assert outcome["passed"], outcome["name"]
    return outcome


def test_criterion_01_threshold_dim2():
    _run(acceptance.criterion_1_threshold_dim2)


def test_criterion_02_threshold_ratio_dimge3():
    _run(acceptance.criterion_2_threshold_ratio)


def test_criterion_03_threshold_remark_and_block_sums():
    _run(acceptance.criterion_3_threshold_remark)


def test_criterion_04_modular_norm_identities():
    _run(acceptance.criterion_4_modular_norms)


def test_criterion_05_dimension_additivity():
    _run(acceptance.criterion_5_dimension_additivity)


def test_criterion_05_reads_each_dimension_once_and_flags_a_wrong_one(monkeypatch):
    tables, reads = Counter(), Counter()
    exact = fusion.scaled_dims

    def off_by_a_little(labels, family):
        labels = list(labels)
        tables[family] += 1
        reads.update((label, family) for label in labels)
        dims = exact(labels, family)
        return [(classical, numerator + 1, denominator)  # one part in b^length too large
                if label in (7, "ABBA") else (classical, numerator, denominator)
                for label, (classical, numerator, denominator) in zip(labels, dims)]

    monkeypatch.setattr(fusion, "scaled_dims", off_by_a_little)
    outcome = acceptance.criterion_5_dimension_additivity()
    # one table per family, each label read once
    assert len(tables) == 5 and max(tables.values()) == 1
    assert max(reads.values()) == 1
    assert not outcome["passed"]
    failures = outcome["details"]["ladder_failures"] + outcome["details"]["free_failures"]
    assert outcome["details"]["ladder_failures"] and outcome["details"]["free_failures"]
    assert {failure["which"] for failure in failures} == {"quantum"}


@pytest.mark.parametrize("family, which, label, table", [
    # the second su2 ladder shares the first one's decompositions
    (fusion.su2_ladder(3, q=Fraction(1, 5)), "quantum", 7, "ladder_failures"),
    # the second free family shares the first one's decompositions
    (fusion.free_unitary(3, dim_q_fund=4), "classical", "ABBA", "free_failures"),
])
def test_criterion_05_flags_one_wrong_dimension_in_a_shared_table(
        monkeypatch, family, which, label, table):
    exact = fusion.scaled_dims

    def one_off(labels_, family_):
        labels_ = list(labels_)
        dims = exact(labels_, family_)
        if family_ == family:  # the dimension plus 1
            classical, numerator, denominator = dims[labels_.index(label)]
            dims[labels_.index(label)] = ((classical + 1, numerator, denominator)
                                          if which == "classical"
                                          else (classical, numerator + denominator, denominator))
        return dims

    monkeypatch.setattr(fusion, "scaled_dims", one_off)
    outcome = acceptance.criterion_5_dimension_additivity()
    assert not outcome["passed"]
    details = outcome["details"]
    assert details[table]
    assert {failure["which"] for failure in details[table]} == {which}
    other = "free_failures" if table == "ladder_failures" else "ladder_failures"
    assert details[other] == []


def test_criterion_06_word_calculus_oracle():
    _run(acceptance.criterion_6_word_calculus)


def test_criterion_07_decay_and_quasi_split_grid():
    outcome = _run(acceptance.criterion_7_decay_and_quasi_split)
    # the two grid points whose quantum dimension would undercut the
    # classical one define no family and must be reported as skipped
    assert outcome["details"]["skipped_invalid_families"] == [
        "o-plus N=4 qq=0.3",
        "o-plus N=5 qq=0.3",
    ]


def test_criterion_08_moment_oracles():
    _run(acceptance.criterion_8_moment_oracles)


def test_criterion_09_operator_model_shadows():
    _run(acceptance.criterion_9_operator_model)


def test_criterion_10_bicrossed_decision_table():
    _run(acceptance.criterion_10_bicrossed_table)


def test_criterion_11_kac_degeneration():
    _run(acceptance.criterion_11_kac_degeneration)


def test_aggregate_report_all_passed():
    grid = acceptance.run_all()
    assert grid["all_passed"]
    assert [entry["id"] for entry in grid["criteria"]] == list(range(1, 12))
