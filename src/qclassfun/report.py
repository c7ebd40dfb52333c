"""Machine-readable reports with canonical serialization.

Reports serialize to JSON with sorted keys and fixed separators, so an
identical invocation always produces byte-identical output.  Every enclosure
appears as outward-rounded decimal strings ``{"lo", "hi", "mid"}`` at the
precision stated in the report's ``meta`` block; ``mid`` is a convenience
midpoint, only ``[lo, hi]`` is certified.  A cell is printed from a
:class:`~qclassfun.dyadic.Enclosure` or from an exact rational, with ints
alone.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping, Sequence

from . import dyadic
from .dyadic import Enclosure
from .errors import DomainError


@dataclass
class Report:
    command: str
    inputs: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return canonical_json({
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "meta": self.meta,
        })


def canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def enclosure_payload(x: Enclosure) -> dict:
    """The cell of an enclosure at the digits of its bits."""
    return _cell(x.lo, x.hi, dyadic.decimal_digits(x.bits))


def rational_payload(numerator: int, denominator: int, bits: int) -> dict:
    """The cell :func:`enclosure_payload` prints for the tightest `bits`-bit
    enclosure of ``numerator/denominator`` (``denominator > 0``, any terms),
    built with ints alone."""
    lo, hi = dyadic.round_quotient(numerator, denominator, bits)
    return _cell(lo, hi, dyadic.decimal_digits(bits))


def _cell(lo: dyadic.Dyadic | None, hi: dyadic.Dyadic | None, digits: int) -> dict:
    """Outward decimal text of the endpoints ``(m, e)`` at `digits` digits,
    and their round-to-nearest midpoint; None is an unbounded end."""
    cell = {"lo": "-inf" if lo is None else dyadic.to_text(*lo, digits, "floor"),
            "hi": "inf" if hi is None else dyadic.to_text(*hi, digits, "ceiling"), "mid": "nan"}
    if lo is not None and hi is not None:
        cell["mid"] = dyadic.to_text(*dyadic.midpoint(lo, hi), digits, "half-even")
    return cell


def fraction_payload(value: int | Fraction) -> str:
    """Exact rational as a canonical string (``p`` or ``p/q``)."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def flatten_row(row: Mapping[str, Any]) -> dict[str, Any]:
    """Expand enclosure cells into _lo/_hi/_mid columns for CSV output."""
    flat: dict[str, Any] = {}
    for key, value in row.items():
        if isinstance(value, dict) and set(value) == {"lo", "hi", "mid"}:
            flat[f"{key}_lo"] = value["lo"]
            flat[f"{key}_hi"] = value["hi"]
            flat[f"{key}_mid"] = value["mid"]
        elif isinstance(value, bool):
            flat[key] = "true" if value else "false"
        else:
            flat[key] = value
    return flat


def table_to_csv(rows: Sequence[Mapping[str, Any]]) -> str:
    """RFC-style CSV with '.' decimal points and plain newline endings."""
    if not rows:
        raise DomainError("empty table")
    flat_rows = [flatten_row(row) for row in rows]
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(flat_rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(flat_rows)
    return buffer.getvalue()
