"""Record and key codec tests, including order-preservation properties."""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RecordCodecError
from repro.sql.types import compare
from repro.storage.record import (
    _decode_num,
    _encode_num,
    decode_key,
    decode_record,
    encode_key,
    encode_record,
)

SIMPLE_ROWS = [
    (),
    (None,),
    (0,),
    (-1, 1, 2**40),
    (1.5, -2.25, 0.0),
    ("", "hello", "naïve ünïcode"),
    (b"", b"\x00\x01\xff"),
    (None, 1, 2.5, "x", b"y"),
]


@pytest.mark.parametrize("row", SIMPLE_ROWS)
def test_record_round_trip(row):
    assert decode_record(encode_record(row)) == row


def test_record_bool_normalizes_to_int():
    assert decode_record(encode_record((True, False))) == (1, 0)


def test_record_rejects_unsupported_type():
    with pytest.raises(RecordCodecError):
        encode_record(([1, 2],))


def test_record_rejects_out_of_range_int():
    with pytest.raises(RecordCodecError):
        encode_record((2**70,))


def test_record_corrupt_raises():
    raw = encode_record((1, "x"))
    with pytest.raises(RecordCodecError):
        decode_record(raw[:-2])


def test_key_round_trip_strings_with_nuls():
    values = ("a\x00b", "a\x00", "\x00", "")
    assert decode_key(encode_key(values)) == values


def test_key_round_trip_mixed():
    values = (None, 3, "abc", b"\x00\xff")
    decoded = decode_key(encode_key(values))
    assert decoded == values


def test_key_class_ordering():
    # NULL < numeric < text < blob
    assert encode_key((None,)) < encode_key((0,))
    assert encode_key((10**9,)) < encode_key(("",))
    assert encode_key(("zzz",)) < encode_key((b"",))


sql_scalars = st.one_of(
    st.none(),
    st.integers(min_value=-(2**52), max_value=2**52),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e15, max_value=1e15),
    st.text(max_size=30),
    st.binary(max_size=30),
)


@settings(max_examples=300, deadline=None)
@given(st.tuples(sql_scalars, sql_scalars), st.tuples(sql_scalars, sql_scalars))
def test_key_encoding_preserves_sql_order(left, right):
    """Bytewise key comparison must agree with SQL value ordering."""
    lk, rk = encode_key(left), encode_key(right)
    # Compare tuples element-wise with SQL semantics (None first).
    expected = 0
    for lv, rv in zip(left, right):
        c = _sql_total_compare(lv, rv)
        if c != 0:
            expected = c
            break
    if expected < 0:
        assert lk < rk
    elif expected > 0:
        assert lk > rk
    else:
        assert lk == rk


def _sql_total_compare(a, b):
    if a is None and b is None:
        return 0
    if a is None:
        return -1
    if b is None:
        return 1
    result = compare(a, b)
    assert result is not None
    return result


@settings(max_examples=200, deadline=None)
@given(st.lists(sql_scalars, max_size=5))
def test_record_round_trip_property(values):
    row = tuple(values)
    assert decode_record(encode_record(row)) == row


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.none(),
                          st.integers(min_value=-(2**31), max_value=2**31),
                          st.text(max_size=20),
                          st.binary(max_size=20)),
                max_size=4))
def test_key_round_trip_property(values):
    """Keys over ints/text/blobs/None decode exactly."""
    row = tuple(values)
    assert decode_key(encode_key(row)) == row


# -- the numeric key word: one XOR, same bytes as the byte-at-a-time form ----

def _encode_num_bytewise(value) -> bytes:
    """``_encode_num`` as it was written before it became one 64-bit XOR
    (the reference: bytes on disk must not move)."""
    try:
        value = float(value) + 0.0
    except OverflowError:
        value = math.inf if value > 0 else -math.inf
    raw = bytearray(struct.pack(">d", value))
    if raw[0] & 0x80:
        for i in range(8):
            raw[i] ^= 0xFF
    else:
        raw[0] ^= 0x80
    return bytes(raw)


_NUM_EDGES = [
    0, 0.0, -0.0, 1, -1, 5e-324, -5e-324, 2.2250738585072014e-308,
    math.inf, -math.inf, 1.7976931348623157e308, -1.7976931348623157e308,
    2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1, 2**63, -(2**63), 2**64,
    10**308, -(10**308), 10**309, -(10**309), 2**2000, -(2**2000),
    True, False,
]

key_numbers = st.one_of(
    st.sampled_from(_NUM_EDGES),
    st.floats(allow_nan=False),  # infinities and subnormals included
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=-(10**320), max_value=10**320),
)


@settings(max_examples=500, deadline=None)
@given(key_numbers)
def test_encode_num_bytes_are_those_of_the_bytewise_form(value):
    assert _encode_num(value) == _encode_num_bytewise(value)


@pytest.mark.parametrize("value", _NUM_EDGES)
def test_encode_num_edges(value):
    raw = _encode_num(value)
    assert raw == _encode_num_bytewise(value)
    assert len(raw) == 8
    assert _decode_num(raw) == _as_double(value)


def test_encode_num_negative_zero_and_saturation():
    assert _encode_num(-0.0) == _encode_num(0.0) == _encode_num(0)
    assert _encode_num(10**400) == _encode_num(math.inf)
    assert _encode_num(-(10**400)) == _encode_num(-math.inf)


@settings(max_examples=500, deadline=None)
@given(key_numbers, key_numbers)
def test_encode_num_preserves_order(left, right):
    lf, rf = _as_double(left), _as_double(right)
    lk, rk = _encode_num(left), _encode_num(right)
    assert (lk < rk) == (lf < rf)
    assert (lk == rk) == (lf == rf)


def _as_double(value) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf
