"""The SQL value model.

Values are Python ``None`` (NULL), ``int``, ``float``, ``str`` and
``bytes`` — the SQLite storage classes.  This module centralizes the
semantics every operator shares:

* three-valued comparison logic (any comparison with NULL is NULL);
* cross-class ordering for ORDER BY / MIN / MAX
  (NULL < numbers < text < blob, matching the key codec in
  :mod:`repro.storage.record`);
* numeric coercion for arithmetic;
* truthiness for WHERE/HAVING (NULL and 0 are not true).

Dates are ISO-8601 strings ('YYYY-MM-DD'), whose lexicographic order is
chronological — the same convention TPC-H text data uses here.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Optional, Tuple

from repro.errors import TypeMismatchError

SqlValue = Any  # None | int | float | str | bytes

#: Declared column type names accepted by the parser.
COLUMN_TYPES = ("INTEGER", "INT", "REAL", "TEXT", "BLOB", "DATE", "NUMERIC")


def type_class(value: SqlValue) -> int:
    """Cross-class collation rank (NULL=0, numeric=1, text=2, blob=3)."""
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 1
    if isinstance(value, str):
        return 2
    if isinstance(value, (bytes, bytearray)):
        return 3
    raise TypeMismatchError(f"not a SQL value: {type(value).__name__}")


def compare(left: SqlValue, right: SqlValue) -> Optional[int]:
    """Three-valued comparison: -1/0/1, or None when either side is NULL."""
    if left is None or right is None:
        return None
    lc, rc = type_class(left), type_class(right)
    if lc != rc:
        return -1 if lc < rc else 1
    if left < right:
        return -1
    if left > right:
        return 1
    return 0


def sort_key(value: SqlValue) -> Tuple[int, SqlValue]:
    """Total-order key for sorting mixed-class values (NULLs first)."""
    rank = type_class(value)
    if value is None:
        return (0, 0)
    return (rank, value)


def row_sort_key(values: Iterable[SqlValue]) -> Tuple[Tuple[int, SqlValue], ...]:
    return tuple(sort_key(v) for v in values)


def is_true(value: SqlValue) -> bool:
    """SQL truthiness: NULL and zero are not true."""
    if value is None:
        return False
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, str):
        # SQLite coerces; we accept numeric strings, else false.
        try:
            return float(value) != 0
        except ValueError:
            return False
    return bool(value)


def to_number(value: SqlValue) -> Optional[float]:
    """Coerce to a number for arithmetic; NULL stays NULL."""
    if value is None:
        return None
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            if "." in value or "e" in value or "E" in value:
                return float(value)
            return int(value)
        except ValueError as exc:
            raise TypeMismatchError(
                f"cannot use {value!r} as a number"
            ) from exc
    raise TypeMismatchError(
        f"cannot use {type(value).__name__} as a number"
    )


def coerce_for_column(value: SqlValue, declared: str) -> SqlValue:
    """Apply column-affinity coercion on INSERT/UPDATE (SQLite style):
    INTEGER and NUMERIC columns store a value as :func:`numeric_value`
    reads it, REAL columns store any number so read as a float."""
    if value is None:
        return None
    declared = declared.upper()
    if declared in ("INTEGER", "INT", "NUMERIC"):
        return numeric_value(value)
    if declared == "REAL":
        value = numeric_value(value)
        return float(value) if isinstance(value, int) else value
    if declared in ("TEXT", "DATE"):
        if isinstance(value, (int, float)):
            return str(value)
        return value
    return value


#: Well-formed numeric text, as SQLite reads it (``sqlite3AtoF``):
#: blanks, a sign, ASCII digits with an optional fraction (or a
#: fraction alone), an optional exponent, blanks.
_NUMERIC_TEXT = re.compile(
    r"[ \t\n\v\f\r]*([+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"
    r"(?:[eE][+-]?[0-9]+)?)[ \t\n\v\f\r]*\Z")
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


def numeric_value(value: SqlValue) -> SqlValue:
    """``value`` under SQLite's numeric affinity, the one reader of
    numeric text.  Well-formed numeric text is a number, anything else
    (``'1_000'``, ``'inf'``, ``'0x10'``) stays text; an integer literal
    inside the 64-bit range is that INTEGER; any other number is the
    INTEGER it equals when it has no fraction and lies strictly inside
    that range (``'7.0'``, ``'1e2'``, ``3.0``), else REAL."""
    if isinstance(value, str):
        match = _NUMERIC_TEXT.match(value)
        if match is None:
            return value
        literal = match.group(1)
        if not any(mark in literal for mark in ".eE"):
            number = int(literal)
            if _INT64_MIN <= number <= _INT64_MAX:
                return number
        value = float(literal)
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer() \
            and _INT64_MIN < value < _INT64_MAX:
        return int(value)
    return value


def exact_integer(value: SqlValue) -> Optional[int]:
    """``value`` as the integer it stands for, or None when it is not
    one: what :func:`numeric_value` reads as an INTEGER, as SQLite
    reads a LIMIT or an INTEGER PRIMARY KEY.  NULL is None."""
    value = numeric_value(value)
    return value if isinstance(value, int) else None


def value_repr(value: SqlValue) -> str:
    """Render a value the way result tables print it."""
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, bytes):
        return "x'" + value.hex() + "'"
    return str(value)
