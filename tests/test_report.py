"""Canonical report serialization."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclassfun import dyadic
from qclassfun.errors import DomainError
from qclassfun.report import (
    Report,
    canonical_json,
    enclosure_payload,
    flatten_row,
    fraction_payload,
    table_to_csv,
)


def test_enclosure_payload_is_outward():
    payload = enclosure_payload(dyadic.rational_enclosure(Fraction(1, 3), Fraction(1, 3), 64))
    assert Fraction(payload["lo"]) <= Fraction(1, 3) <= Fraction(payload["hi"])
    assert Fraction(payload["lo"]) <= Fraction(payload["mid"]) <= Fraction(payload["hi"])


def test_enclosure_payload_exact_point():
    payload = enclosure_payload(dyadic.rational_enclosure(Fraction(2), Fraction(2), 64))
    assert payload == {"lo": "2", "hi": "2", "mid": "2"}


def test_canonical_json_sorts_keys_and_terminates():
    text = canonical_json({"b": 1, "a": {"d": 2, "c": 3}})
    assert text.index('"a"') < text.index('"b"')
    assert text.index('"c"') < text.index('"d"')
    assert text.endswith("\n")


def test_report_roundtrip():
    report = Report("demo", {"x": 1}, {"y": 2}, {"bits": 64})
    payload = json.loads(report.to_json())
    assert payload == {"command": "demo", "inputs": {"x": 1}, "results": {"y": 2},
                       "meta": {"bits": 64}}
    assert canonical_json(payload) == report.to_json()


def test_fraction_payload():
    assert fraction_payload(Fraction(3, 2)) == "3/2"
    assert fraction_payload(Fraction(4, 2)) == "2"
    assert fraction_payload(5) == "5"


def test_flatten_row_expands_enclosures_and_booleans():
    row = {"k": 1, "value": {"lo": "0", "hi": "1", "mid": "0.5"}, "ok": True}
    assert flatten_row(row) == {
        "k": 1, "value_lo": "0", "value_hi": "1", "value_mid": "0.5", "ok": "true",
    }


def test_table_to_csv_quoting_and_line_endings():
    rows = [{"label": "a,b", "n": 1}, {"label": 'say "hi"', "n": 2}]
    text = table_to_csv(rows)
    lines = text.split("\n")
    assert lines[0] == "label,n"
    assert lines[1] == '"a,b",1'
    assert lines[2] == '"say ""hi""",2'
    assert "\r" not in text
    assert text.endswith("\n")


def test_table_to_csv_rejects_empty():
    with pytest.raises(DomainError):
        table_to_csv([])


#: Ints at the default int -> str limit of 4300 digits, and one digit under.
LIMIT_INTS = st.sampled_from([10**4299, -(10**4299), 10**4300 - 1, -(10**4300 - 1), 10**4298])

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | LIMIT_INTS
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(),
    lambda children: st.lists(children, max_size=4) | st.tuples(children, children)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, derandomize=True)
@given(JSON_VALUES)
def test_canonical_json_is_json_dumps_with_indent(payload):
    expected = json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
    assert canonical_json(payload) == expected


@pytest.mark.parametrize("payload", [
    {}, [], (), {"a": {}, "b": [], "c": [{}], "d": [[]]}, "héllo ☃ \U0001f600\n\"\\",
    {"é": None, "\x00": True, "A": False}, [1.0, -0.0, 1e300, float("inf"), float("nan")],
])
def test_canonical_json_edge_cases(payload):
    expected = json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
    assert canonical_json(payload) == expected


def test_canonical_json_refuses_what_it_cannot_print():
    with pytest.raises(TypeError):
        canonical_json({"a": Fraction(1, 3)})
    with pytest.raises(TypeError):
        canonical_json({1: "int key"})
    with pytest.raises(ValueError):  # past the int -> str limit, as json.dumps
        canonical_json([10**4300])
