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

import io
import math
from _json import encode_basestring_ascii as _quote
from fractions import Fraction

from . import dyadic
from .dyadic import Enclosure
from .errors import DomainError, Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Mapping, Sequence
    from typing import Any


class Report(Record):
    """One command's output; unlike the other records it is mutable and
    unhashable.  A missing `inputs`, `results` or `meta` is a new empty dict."""

    __slots__ = ("command", "inputs", "results", "meta")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, command: str, inputs: dict | None = None, results: dict | None = None,
                 meta: dict | None = None) -> None:
        self.command = command
        self.inputs = {} if inputs is None else inputs
        self.results = {} if results is None else results
        self.meta = {} if meta is None else meta

    def to_json(self) -> str:
        return canonical_json({
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "meta": self.meta,
        })


def canonical_json(payload: Any) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": "))``
    and a newline.  ``indent`` selects json's pure-Python encoder, so the
    payload is walked here and every string quoted by the C quoting that
    :func:`json.encoder.encode_basestring_ascii` re-exports, imported from
    ``_json`` so that printing loads no ``json`` package."""
    out: list[str] = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


_FLOAT_NAMES = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _write(value: Any, newline: str, out: list[str]) -> None:
    """Append the JSON text of `value`, whose line starts with `newline`."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_FLOAT_NAMES.get(value, "NaN" if value != value else float.__repr__(value)))
    elif isinstance(value, (dict, list, tuple)) and not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner = newline + "  "
        opener = "{"
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(f"{opener}{inner}{_quote(key)}: ")
            _write(value[key], inner, out)
            opener = ","
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        inner = newline + "  "
        opener = "["
        for item in value:
            out.append(opener + inner)
            _write(item, inner, out)
            opener = ","
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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
    import csv

    flat_rows = [flatten_row(row) for row in rows]
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(flat_rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(flat_rows)
    return buffer.getvalue()
