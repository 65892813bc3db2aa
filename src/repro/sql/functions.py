"""Built-in scalar functions and the UDF registry.

Scalar functions are plain callables over SQL values (the aggregates
are accumulator classes in :mod:`repro.sql.aggregates`).  User defined
functions (the RQL mechanisms) register through
:class:`FunctionRegistry` — mirroring SQLite's ``create_function`` API
the paper's implementation builds on.
"""

from __future__ import annotations

import math
import struct
from decimal import ROUND_DOWN, Context, Decimal
from typing import Callable, Dict, Optional

from repro.errors import UdfError
from repro.sql.types import SqlValue, compare, to_number


# ---------------------------------------------------------------------------
# Scalar built-ins
# ---------------------------------------------------------------------------

#: 2**52: a double this large has no fractional part to round
_NO_FRACTION = 4503599627370496.0
#: enough digits to hold any double, and any sum ``_round`` makes, exactly
_EXACT = Context(prec=800)


def _abs(value: SqlValue) -> SqlValue:
    number = to_number(value)
    return None if number is None else abs(number)


def _length(value: SqlValue) -> SqlValue:
    if value is None:
        return None
    if isinstance(value, (str, bytes)):
        return len(value)
    return len(str(value))


def _lower(value: SqlValue) -> SqlValue:
    return None if value is None else str(value).lower()


def _upper(value: SqlValue) -> SqlValue:
    return None if value is None else str(value).upper()


def _substr(value: SqlValue, start: SqlValue,
            length: SqlValue = None) -> SqlValue:
    if value is None or start is None:
        return None
    text = str(value)
    begin = int(start) - 1 if int(start) > 0 else max(len(text) + int(start), 0)
    if length is None:
        return text[begin:]
    return text[begin:begin + int(length)]


def _coalesce(*args: SqlValue) -> SqlValue:
    for arg in args:
        if arg is not None:
            return arg
    return None


def _nullif(a: SqlValue, b: SqlValue) -> SqlValue:
    return None if compare(a, b) == 0 else a


def _round(value: SqlValue, digits: SqlValue = 0) -> SqlValue:
    """SQLite's ``round(X, Y)``: half away from zero; negative digits
    act as 0, more than 30 as 30; a NULL X or Y gives NULL; the result
    is always a float."""
    number, places = to_number(value), to_number(digits)
    if number is None or places is None:
        return None
    places = min(max(int(places), 0), 30)
    number = float(number)
    if not -_NO_FRACTION <= number <= _NO_FRACTION:
        return number  # NaN, an infinity, or nothing after the point
    if not places:
        return float(int(number + (-0.5 if number < 0 else 0.5)))
    # SQLite prints the digits ("%.*f") and reads them back.  Its printf
    # adds half a unit of the last place and, when those places are
    # within a double's precision, 3e-16 of the value (so 2.675, stored
    # as 2.67499999..., rounds to 2.68), then cuts the digits.
    magnitude = Decimal(abs(number))
    rounder = Decimal(5).scaleb(-places - 1)
    exponent = ((struct.unpack("<Q", struct.pack("<d", number))[0] >> 52)
                & 0x7FF) - 1023
    if places + int(exponent / 3) < 15:
        rounder = _EXACT.add(rounder,
                             _EXACT.multiply(magnitude, Decimal("3e-16")))
    digits_kept = _EXACT.add(magnitude, rounder).quantize(
        Decimal(1).scaleb(-places), rounding=ROUND_DOWN, context=_EXACT)
    return math.copysign(float(digits_kept), number)


def _ifnull(a: SqlValue, b: SqlValue) -> SqlValue:
    return a if a is not None else b


def _sqrt(value: SqlValue) -> SqlValue:
    number = to_number(value)
    if number is None or number < 0:
        return None
    return math.sqrt(number)


BUILTIN_SCALARS: Dict[str, Callable[..., SqlValue]] = {
    "abs": _abs,
    "length": _length,
    "lower": _lower,
    "upper": _upper,
    "substr": _substr,
    "substring": _substr,
    "coalesce": _coalesce,
    "nullif": _nullif,
    "ifnull": _ifnull,
    "round": _round,
    "sqrt": _sqrt,
}


# ---------------------------------------------------------------------------
# UDF registry
# ---------------------------------------------------------------------------

class FunctionRegistry:
    """Scalar function registry: built-ins + user defined functions.

    This is the SQLite-UDF analogue RQL plugs into: a registered function
    is invoked once per row produced by the enclosing SELECT, which is
    exactly how the RQL "loop body" iterates over the snapshot set
    (paper Section 3).
    """

    def __init__(self) -> None:
        self._functions: Dict[str, Callable[..., SqlValue]] = dict(
            BUILTIN_SCALARS
        )

    def register(self, name: str, fn: Callable[..., SqlValue]) -> None:
        if not callable(fn):
            raise UdfError(f"UDF {name} is not callable")
        self._functions[name.lower()] = fn

    def unregister(self, name: str) -> None:
        self._functions.pop(name.lower(), None)

    def get(self, name: str) -> Optional[Callable[..., SqlValue]]:
        return self._functions.get(name.lower())

    def snapshot(self) -> Dict[str, Callable[..., SqlValue]]:
        """A copy handed to the expression compiler per statement."""
        return dict(self._functions)
