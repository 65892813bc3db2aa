"""Value and record serialization.

The SQL layer stores rows as tuples of Python values drawn from the SQL
value model: ``None`` (NULL), ``int``, ``float``, ``str`` and ``bytes``.
This module provides a compact, order-preserving-enough binary codec used
both for B+tree payloads (row storage) and B+tree keys (index storage).

Two codecs live here:

``encode_record`` / ``decode_record``
    Length-prefixed tagged encoding for payloads.  Not comparable as bytes.

``encode_key`` / ``decode_key``
    Memcomparable encoding: for any two tuples of SQL values, comparing the
    encodings as byte strings agrees with SQL ordering (NULL < numbers <
    text < blob, numbers compared numerically across int/float).  The
    B+tree compares raw key bytes, which keeps its node layout simple.
"""

from __future__ import annotations

import math
import struct
from typing import List, Optional, Sequence, Tuple

from repro.errors import RecordCodecError

SqlValue = object  # None | int | float | str | bytes

_TAG_NULL = 0
_TAG_INT = 1
_TAG_FLOAT = 2
_TAG_TEXT = 3
_TAG_BLOB = 4

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")
_F64_BE = struct.Struct(">d")
_U64_BE = struct.Struct(">Q")


# ---------------------------------------------------------------------------
# Payload codec
# ---------------------------------------------------------------------------

def encode_record(values: Sequence[SqlValue]) -> bytes:
    """Encode a row into bytes.  Raises RecordCodecError on bad types."""
    out = bytearray()
    out += _U32.pack(len(values))
    for value in values:
        if value is None:
            out.append(_TAG_NULL)
        elif isinstance(value, bool):
            # bool is an int subclass; normalize so decode returns int.
            out.append(_TAG_INT)
            out += _I64.pack(int(value))
        elif isinstance(value, int):
            out.append(_TAG_INT)
            try:
                out += _I64.pack(value)
            except struct.error as exc:
                raise RecordCodecError(
                    f"integer out of 64-bit range: {value}"
                ) from exc
        elif isinstance(value, float):
            out.append(_TAG_FLOAT)
            out += _F64.pack(value)
        elif isinstance(value, str):
            raw = value.encode("utf-8")
            out.append(_TAG_TEXT)
            out += _U32.pack(len(raw))
            out += raw
        elif isinstance(value, (bytes, bytearray)):
            raw = bytes(value)
            out.append(_TAG_BLOB)
            out += _U32.pack(len(raw))
            out += raw
        else:
            raise RecordCodecError(
                f"unsupported SQL value type: {type(value).__name__}"
            )
    return bytes(out)


def decode_record(raw: bytes,
                  width: Optional[int] = None) -> Tuple[SqlValue, ...]:
    """Decode bytes produced by :func:`encode_record`: every value, or
    with a ``width`` only the first ``width`` of them.

    A cut decode stops parsing at its last value, so it neither reads
    nor checks the bytes behind it (page checksums are what catch a
    damaged page); ``decode_record(raw, w) == decode_record(raw)[:w]``
    for every sound record and ``w >= 0``.
    """
    try:
        (count,) = _U32.unpack_from(raw, 0)
        if width is not None and width < count:
            count = width
        pos = _U32.size
        values: List[SqlValue] = []
        for _ in range(count):
            tag = raw[pos]
            pos += 1
            if tag == _TAG_NULL:
                values.append(None)
            elif tag == _TAG_INT:
                (v,) = _I64.unpack_from(raw, pos)
                pos += _I64.size
                values.append(v)
            elif tag == _TAG_FLOAT:
                (f,) = _F64.unpack_from(raw, pos)
                pos += _F64.size
                values.append(f)
            elif tag == _TAG_TEXT:
                (n,) = _U32.unpack_from(raw, pos)
                pos += _U32.size
                values.append(raw[pos:pos + n].decode("utf-8"))
                pos += n
            elif tag == _TAG_BLOB:
                (n,) = _U32.unpack_from(raw, pos)
                pos += _U32.size
                values.append(bytes(raw[pos:pos + n]))
                pos += n
            else:
                raise RecordCodecError(f"unknown value tag {tag}")
        return tuple(values)
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise RecordCodecError(f"corrupt record: {exc}") from exc


# ---------------------------------------------------------------------------
# Memcomparable key codec
# ---------------------------------------------------------------------------
#
# Type-class bytes establish NULL < numeric < text < blob.  Within numerics,
# int and float collate together: both are encoded as big-endian IEEE-754
# doubles with the sign bit flipped (and the whole word inverted for
# negatives), which yields total order by value.  Ints beyond
# +-KEY_EXACT_INT share a double with their neighbours and ints beyond the
# double range saturate to +-inf: the encoding stays order-preserving
# (a <= b implies key(a) <= key(b)) but is no longer injective, so an index
# probe with such a bound yields a superset that its caller re-checks
# against the stored row (the payload codec is always exact).

_KCLASS_NULL = 0x10
_KCLASS_NUM = 0x20
_KCLASS_TEXT = 0x30
_KCLASS_BLOB = 0x40

#: Largest magnitude up to which every int has a double of its own.
KEY_EXACT_INT = 2 ** 53 - 1

#: Lower bound that sorts after every key whose first value is NULL and
#: before every non-NULL key.  Range predicates never match NULL (SQL
#: three-valued logic), so unbounded-below index ranges start here.
KEY_AFTER_NULLS = bytes([_KCLASS_NULL + 1])

_SEP = b"\x00\x00"
_ESCAPED = b"\x00\xff"


def _encode_num(value) -> bytes:
    try:
        value = float(value) + 0.0  # normalize -0.0 so it collates as 0.0
    except OverflowError:  # an int beyond the double range
        value = math.inf if value > 0 else -math.inf
    (word,) = _U64_BE.unpack(_F64_BE.pack(value))
    # Negative: invert every bit; non-negative: flip the sign bit.
    word ^= 0xFFFFFFFFFFFFFFFF if word & 0x8000000000000000 \
        else 0x8000000000000000
    return _U64_BE.pack(word)


def _decode_num(raw: bytes, pos: int = 0) -> float:
    (word,) = _U64_BE.unpack_from(raw, pos)
    # Undo _encode_num: the sign bit if it was positive, else every bit.
    word ^= 0x8000000000000000 if word & 0x8000000000000000 \
        else 0xFFFFFFFFFFFFFFFF
    return _F64_BE.unpack(_U64_BE.pack(word))[0]


def _escape(raw: bytes) -> bytes:
    """NUL-escape so the 0x00 0x00 separator never appears inside data."""
    return raw.replace(b"\x00", _ESCAPED)


def _unescape(raw: bytes) -> bytes:
    return raw.replace(_ESCAPED, b"\x00")


def encode_key(values: Sequence[SqlValue]) -> bytes:
    """Encode a tuple so byte-wise comparison matches SQL ordering."""
    out = bytearray()
    for value in values:
        if value is None:
            out.append(_KCLASS_NULL)
        elif isinstance(value, bool):
            out.append(_KCLASS_NUM)
            out += _encode_num(int(value))
        elif isinstance(value, (int, float)):
            out.append(_KCLASS_NUM)
            out += _encode_num(value)
        elif isinstance(value, str):
            out.append(_KCLASS_TEXT)
            out += _escape(value.encode("utf-8"))
            out += _SEP
        elif isinstance(value, (bytes, bytearray)):
            out.append(_KCLASS_BLOB)
            out += _escape(bytes(value))
            out += _SEP
        else:
            raise RecordCodecError(
                f"unsupported key value type: {type(value).__name__}"
            )
    return bytes(out)


def decode_key(raw: bytes) -> Tuple[SqlValue, ...]:
    """Decode bytes produced by :func:`encode_key`.

    Numeric values come back as ``float`` (ints are recovered when the
    float is integral); callers that need exact values should store them
    in the payload and treat the key as opaque.
    """
    values: List[SqlValue] = []
    pos = 0
    n = len(raw)
    while pos < n:
        kclass = raw[pos]
        pos += 1
        if kclass == _KCLASS_NULL:
            values.append(None)
        elif kclass == _KCLASS_NUM:
            num = _decode_num(raw, pos)
            pos += 8
            values.append(int(num) if num.is_integer() else num)
        elif kclass in (_KCLASS_TEXT, _KCLASS_BLOB):
            end = raw.find(_SEP, pos)
            # Skip separators that are actually escape sequences: an escape
            # is 0x00 0xff, so a genuine separator is 0x00 0x00 that is not
            # the tail of an escape.  Because escapes never produce 0x00
            # 0x00, the first find() hit is always the real separator.
            if end < 0:
                raise RecordCodecError("unterminated string key component")
            data = _unescape(raw[pos:end])
            pos = end + len(_SEP)
            if kclass == _KCLASS_TEXT:
                values.append(data.decode("utf-8"))
            else:
                values.append(data)
        else:
            raise RecordCodecError(f"unknown key class byte {kclass:#x}")
    return tuple(values)


def decode_rowid_key(raw: bytes) -> int:
    """The rowid of a table key, ``encode_key((rowid,))``: one numeric
    component, decoded without the generic tuple machinery (a cold scan
    calls this once per row)."""
    if len(raw) != 9 or raw[0] != _KCLASS_NUM:
        raise RecordCodecError(f"not a rowid key: {raw!r}")
    return int(_decode_num(raw, 1))
