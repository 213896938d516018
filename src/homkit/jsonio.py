"""JSON schemas for matrices, groups, complexes, maps and ring modules.

Integers serialize as decimal strings to protect arbitrary precision from
JSON number limits; parsing is strict (ASCII `-?[0-9]+` only) and every
violation raises InputError with a human-readable message.  Decimal strings
of any length convert both ways, beyond the interpreter's int/str digit
limit, without changing that process-wide limit.

`canonical_text` is the one writer of the canonical form every output
document takes: the text of `json.dumps(doc, indent=2, sort_keys=True)`
plus a newline, built without the pure-Python encoder that `json.dumps`
falls back to when it indents.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from json.encoder import encode_basestring_ascii
from typing import Any, Callable

from .errors import InputError
from .abgroups import FgAbGroup, GradedAbGroup
from .intlinalg import IntMatrix
from .percomplex import ChainMap, PeriodicComplex
from .repmod import LaurentRing, QuotientRing, RModule


def _build(what: str, make: Callable[..., Any], *args: Any) -> Any:
    """make(*args), with a constructor's InputError prefixed by `what`."""
    try:
        return make(*args)
    except InputError as exc:
        raise InputError(f"{what}: {exc}") from None


def _expect_mapping(doc: Any, what: str) -> Mapping:
    if not isinstance(doc, Mapping):
        raise InputError(f"{what}: expected a JSON object")
    return doc


def _expect_int(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what}: expected an integer")
    return value


def _expect_size(value: Any, what: str) -> int:
    if _expect_int(value, what) < 0:
        raise InputError(f"{what}: must be >= 0")
    return value


_DECIMAL = re.compile(r"-?[0-9]+")
# Below 640, the smallest digit limit the interpreter accepts for int/str
# conversion, so pieces this long always convert directly.
_PIECE_DIGITS = 600


def decimal_to_int(digits: str) -> int:
    """int(digits) for a string of `-?[0-9]+`, of any length."""
    if len(digits) <= _PIECE_DIGITS:
        return int(digits)
    if digits[0] == "-":
        return -decimal_to_int(digits[1:])
    half = len(digits) // 2
    return decimal_to_int(digits[:-half]) * 10 ** half + decimal_to_int(digits[-half:])


def int_to_decimal(x: int) -> str:
    """str(x), for integers of any length."""
    try:
        return str(x)
    except ValueError:  # more digits than the interpreter converts at once
        pass
    if x < 0:
        return "-" + int_to_decimal(-x)
    half = x.bit_length() * 3 // 20  # about half the decimal digits
    high, low = divmod(x, 10 ** half)
    return int_to_decimal(high) + int_to_decimal(low).zfill(half)


def _preview(value: str) -> str:
    """A short prefix of an echoed input value."""
    return repr(value) if len(value) <= 24 else f"{value[:20]!r}... ({len(value)} characters)"


def _parse_bigint(value: Any, what: str, row: int | None = None) -> int:
    """Accept decimal strings (canonical) and plain ints (convenience), as a
    plain int.  An entry in row `row` of a matrix is labelled `what[row]`;
    the label is only formatted for a message."""
    if isinstance(value, str):
        if _DECIMAL.fullmatch(value):
            return decimal_to_int(value)
        message = f"not a decimal integer string: {_preview(value)}"
    elif isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    else:
        message = "expected a decimal string"
    raise InputError(f"{what if row is None else f'{what}[{row}]'}: {message}")


def _is_array(value: Any) -> bool:
    """A parsed JSON array, or any other sequence that is not text."""
    return type(value) is list or (isinstance(value, Sequence)
                                   and not isinstance(value, (str, bytes)))


def matrix_from_json(doc: Any, what: str = "matrix") -> IntMatrix:
    doc = _expect_mapping(doc, what)
    rows, cols = doc.get("rows"), doc.get("cols")
    # Labels are formatted only for a message: plain sizes pass at once.
    if type(rows) is not int or rows < 0:
        rows = _expect_size(rows, f"{what}.rows")
    if type(cols) is not int or cols < 0:
        cols = _expect_size(cols, f"{what}.cols")
    data = doc.get("data")
    if not _is_array(data):
        raise InputError(f"{what}.data: expected an array of arrays")
    if len(data) != rows:
        raise InputError(f"{what}: declared {rows} rows, found {len(data)}")
    parsed = []
    for i, row in enumerate(data):
        if not _is_array(row) or len(row) != cols:
            raise InputError(f"{what}: row {i} does not have {cols} entries")
        parsed.append(tuple(_parse_bigint(x, what, i) for x in row))
    return IntMatrix(rows, cols, tuple(parsed))


def matrix_to_json(m: IntMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "data": [[int_to_decimal(x) for x in row] for row in m.data]}


def group_from_json(doc: Any, what: str = "group") -> FgAbGroup:
    doc = _expect_mapping(doc, what)
    if "presentation" in doc:
        return FgAbGroup(matrix_from_json(doc["presentation"], f"{what}.presentation"))
    if "rank" in doc or "torsion" in doc:
        rank = _expect_int(doc.get("rank", 0), f"{what}.rank")
        torsion_doc = doc.get("torsion", [])
        if not _is_array(torsion_doc):
            raise InputError(f"{what}.torsion: expected an array")
        torsion = [_parse_bigint(d, f"{what}.torsion") for d in torsion_doc]
        return _build(what, FgAbGroup.from_invariants, rank, torsion)
    raise InputError(f"{what}: need either 'presentation' or 'rank'/'torsion'")


def group_to_json(g: FgAbGroup) -> dict:
    rank, torsion = g.canonical
    return {"rank": rank, "torsion": [int_to_decimal(d) for d in torsion]}


def graded_group_from_json(doc: Any, what: str = "graded group") -> GradedAbGroup:
    doc = _expect_mapping(doc, what)
    return GradedAbGroup(group_from_json(doc.get("even"), f"{what}.even"),
                         group_from_json(doc.get("odd"), f"{what}.odd"))


def graded_group_to_json(g: GradedAbGroup) -> dict:
    return {"even": group_to_json(g.even), "odd": group_to_json(g.odd)}


def complex_from_json(doc: Any, what: str = "complex") -> PeriodicComplex:
    doc = _expect_mapping(doc, what)
    even = _expect_size(doc.get("even_rank"), f"{what}.even_rank")
    odd = _expect_size(doc.get("odd_rank"), f"{what}.odd_rank")
    return _build(what, PeriodicComplex, even, odd,
                  matrix_from_json(doc.get("d"), f"{what}.d"),
                  matrix_from_json(doc.get("e"), f"{what}.e"))


def complex_to_json(x: PeriodicComplex) -> dict:
    return {"even_rank": x.even_rank, "odd_rank": x.odd_rank,
            "d": matrix_to_json(x.d), "e": matrix_to_json(x.e)}


def chain_map_from_json(doc: Any, source: PeriodicComplex, target: PeriodicComplex,
                        what: str = "chain map") -> ChainMap:
    doc = _expect_mapping(doc, what)
    return _build(what, ChainMap, source, target,
                  matrix_from_json(doc.get("f_even"), f"{what}.f_even"),
                  matrix_from_json(doc.get("f_odd"), f"{what}.f_odd"))


def chain_map_to_json(f: ChainMap) -> dict:
    return {"f_even": matrix_to_json(f.f0), "f_odd": matrix_to_json(f.f1)}


def rmodule_from_json(doc: Any, what: str = "module") -> RModule:
    doc = _expect_mapping(doc, what)
    ring_doc = _expect_mapping(doc.get("ring"), f"{what}.ring")
    kind = ring_doc.get("kind")
    if kind == "quotient":
        poly_doc = ring_doc.get("poly")
        if not _is_array(poly_doc):
            raise InputError(f"{what}.ring.poly: expected an array of coefficients")
        ring: LaurentRing | QuotientRing = _build(
            f"{what}.ring.poly", QuotientRing,
            tuple(_parse_bigint(c, f"{what}.ring.poly") for c in poly_doc))
    elif kind == "laurent":
        ring = LaurentRing()
    else:
        raise InputError(f"{what}.ring.kind: expected 'quotient' or 'laurent'")
    generators = _expect_size(doc.get("generators"), f"{what}.generators")
    relations = matrix_from_json(doc.get("relations"), f"{what}.relations")
    if relations.rows != generators:
        raise InputError(f"{what}: relations matrix must have one row per generator")
    t_action = matrix_from_json(doc.get("t_action"), f"{what}.t_action")
    return _build(what, RModule, ring, relations, t_action)


def canonical_text(doc: Any) -> str:
    """json.dumps(doc, indent=2, sort_keys=True) + "\n" for a document of
    dicts with str keys, lists, tuples, str, int, bool and None; any other
    value raises TypeError."""
    parts: list[str] = []
    _write(doc, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write(value: Any, newline: str, parts: list[str]) -> None:
    """Append the canonical text of `value`, whose lines after the first
    start with `newline`."""
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        parts.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner, sep = newline + "  ", "{"
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts += (sep, inner, encode_basestring_ascii(key), ": ")
            _write(value[key], inner, parts)
            sep = ","
        parts += (newline, "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner, sep = newline + "  ", "["
        for item in value:
            parts += (sep, inner)
            _write(item, inner, parts)
            sep = ","
        parts += (newline, "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
