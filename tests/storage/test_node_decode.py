"""The B+tree node decoder against a reader written from the page layout.

``_LeafNode.of`` and ``_InternalNode.of`` read a node whose cells all
have the first cell's shape in one ``struct`` call and any other node
one cell at a time.  Both must give the node the bytes hold, and a node
whose cells run past its page must raise :class:`BTreeError` (current
state pages carry no checksum, so the parse is what sees the damage).
The reference here reads the layout in the module docstring of
``repro.storage.btree`` field by field and shares no code with it:

(a) every node kind — one shape; one cell (or a pair of cells) whose key
    or value length differs at the first, a middle or the last position,
    including a pair that keeps the total span; zero and one cell;
    zero-length keys; a node that fills the page to its last byte —
    parses to the reference and to the node ``encode_into`` wrote;
(b) any header field overwritten with any value parses to the reference
    of the damaged bytes or raises ``BTreeError``, never anything else;
(c) the damage cases a 256-byte page shows by hand.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BTreeError
from repro.storage.btree import _InternalNode, _LeafNode
from repro.storage.page import HEADER_SIZE, Page

PAGE_SIZES = (128, 256, 512, 1024)
COUNT_AT = HEADER_SIZE  # u16 cell / key count


# ---------------------------------------------------------------------------
# The reference reader
# ---------------------------------------------------------------------------

def _field(raw: bytes, pos: int, size: int) -> Optional[int]:
    """The little-endian unsigned field at ``pos``, or None past the
    page."""
    if pos + size > len(raw):
        return None
    return int.from_bytes(raw[pos:pos + size], "little")


def reference_leaf(raw: bytes) -> Optional[Tuple[list, list, int]]:
    """``(keys, values, used)`` of a leaf page, or None when a cell runs
    past the page."""
    count = _field(raw, COUNT_AT, 2)
    pos = COUNT_AT + 2
    keys, values = [], []
    for _ in range(count):
        klen = _field(raw, pos, 2)
        vlen = _field(raw, pos + 2, 4)
        if klen is None or vlen is None:
            return None
        pos += 6
        if pos + klen + vlen > len(raw):
            return None
        keys.append(bytes(raw[pos:pos + klen]))
        values.append(bytes(raw[pos + klen:pos + klen + vlen]))
        pos += klen + vlen
    return keys, values, pos


def reference_internal(raw: bytes) -> Optional[Tuple[list, list]]:
    """``(keys, children)`` of an internal page, or None when a child or
    a key runs past the page."""
    count = _field(raw, COUNT_AT, 2)
    pos = COUNT_AT + 2
    children = []
    for _ in range(count + 1):
        child = _field(raw, pos, 8)
        if child is None:
            return None
        children.append(child)
        pos += 8
    keys = []
    for _ in range(count):
        klen = _field(raw, pos, 2)
        if klen is None or pos + 2 + klen > len(raw):
            return None
        keys.append(bytes(raw[pos + 2:pos + 2 + klen]))
        pos += 2 + klen
    return keys, children


def fresh(raw: bytes, page_id: int = 7) -> Page:
    """A page holding ``raw`` with no cached node: ``of`` must parse."""
    return Page(page_id, bytearray(raw), len(raw))


def written(node, size: int) -> bytes:
    page = Page(7, page_size=size)
    node.encode_into(page)
    return bytes(page.data)


# ---------------------------------------------------------------------------
# Node strategies
# ---------------------------------------------------------------------------

@st.composite
def lengths(draw, with_values: bool) -> List[Tuple[int, int]]:
    """Per-cell ``(klen, vlen)``: one shape, then at most two cells made
    to differ — one cell in its key or value, or a pair whose lengths
    move in opposite directions, so the span (and the header where the
    last cell would start) can stay that of the one shape."""
    count = draw(st.integers(0, 24))
    shape = (draw(st.integers(0, 12)),
             draw(st.integers(0, 20)) if with_values else 0)
    cells = [shape] * count
    if count == 0:
        return cells
    kind = draw(st.sampled_from(
        ["same", "key", "value", "trade", "key-pair", "value-pair"]
        if with_values else ["same", "key", "key-pair"]))
    where = draw(st.sampled_from(["first", "middle", "last"]))
    at = {"first": 0, "middle": count // 2, "last": count - 1}[where]
    delta = draw(st.integers(1, 4))
    k, v = shape
    if kind == "key":
        cells[at] = (k + delta, v)
    elif kind == "value":
        cells[at] = (k, v + delta)
    elif kind == "trade" and v >= delta:
        cells[at] = (k + delta, v - delta)
    elif kind.endswith("pair") and count >= 2:
        other = at - 1 if at else 1
        if kind == "key-pair" and k >= delta:
            cells[at], cells[other] = (k + delta, v), (k - delta, v)
        elif kind == "value-pair" and v >= delta:
            cells[at], cells[other] = (k, v + delta), (k, v - delta)
    return cells


def _bytes_of(draw, n: int) -> bytes:
    return draw(st.binary(min_size=n, max_size=n))


def _fill(cells, room: int, overhead: int) -> int:
    """How many leading cells fit in ``room`` bytes."""
    used = 0
    for i, (k, v) in enumerate(cells):
        used += overhead + k + v
        if used > room:
            return i
    return len(cells)


@st.composite
def leaves(draw) -> Tuple[_LeafNode, int]:
    size = draw(st.sampled_from(PAGE_SIZES))
    cells = draw(lengths(with_values=True))
    room = size - COUNT_AT - 2
    cells = cells[:_fill(cells, room, 6)]
    if cells and draw(st.booleans()):
        # pad the last value so the node ends on the page's last byte
        k, v = cells[-1]
        spare = room - sum(6 + a + b for a, b in cells)
        cells[-1] = (k, v + spare)
    keys = [_bytes_of(draw, k) for k, _ in cells]
    values = [_bytes_of(draw, v) for _, v in cells]
    return _LeafNode(keys, values), size


@st.composite
def internals(draw) -> Tuple[_InternalNode, int]:
    size = draw(st.sampled_from(PAGE_SIZES))
    cells = draw(lengths(with_values=False))
    room = size - COUNT_AT - 2 - 8
    cells = cells[:_fill(cells, room, 2 + 8)]
    if cells and draw(st.booleans()):
        k, _ = cells[-1]
        spare = room - sum(2 + 8 + a for a, _ in cells)
        cells[-1] = (k + spare, 0)
    keys = [_bytes_of(draw, k) for k, _ in cells]
    children = draw(st.lists(st.integers(0, 2 ** 64 - 1),
                             min_size=len(keys) + 1,
                             max_size=len(keys) + 1))
    return _InternalNode(keys, children), size


# ---------------------------------------------------------------------------
# (a) every node kind parses to the reference and to what was written
# ---------------------------------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(leaves())
def test_leaf_parses_to_the_reference_and_the_written_node(drawn):
    node, size = drawn
    raw = written(node, size)
    parsed = _LeafNode.of(fresh(raw))
    got = (parsed.keys, parsed.values, parsed.used)
    assert got == reference_leaf(raw)
    assert got == (node.keys, node.values, node.used)
    assert type(parsed.keys) is list and type(parsed.values) is list


@settings(max_examples=400, deadline=None)
@given(internals())
def test_internal_parses_to_the_reference_and_the_written_node(drawn):
    node, size = drawn
    raw = written(node, size)
    parsed = _InternalNode.of(fresh(raw))
    assert (parsed.keys, parsed.children) == reference_internal(raw)
    assert (parsed.keys, parsed.children) == (node.keys, node.children)
    assert type(parsed.keys) is list and type(parsed.children) is list


def test_a_node_that_fills_the_page_to_its_last_byte():
    # 18 + 3 * (6 + 9 + 65) = 258: three equal cells end at byte 258
    keys = [b"%09d" % i for i in range(3)]
    values = [bytes([i]) * 65 for i in range(3)]
    raw = written(_LeafNode(keys, values), 258)
    parsed = _LeafNode.of(fresh(raw))
    assert (parsed.keys, parsed.values, parsed.used) == (keys, values, 258)
    # 18 + 3 * 8 + 2 * (2 + 5) = 56
    node = _InternalNode([b"aaaaa", b"bbbbb"], [1, 2, 3])
    parsed = _InternalNode.of(fresh(written(node, 56)))
    assert (parsed.keys, parsed.children) == (node.keys, node.children)


# ---------------------------------------------------------------------------
# (b) random header damage
# ---------------------------------------------------------------------------

def _header_fields(raw: bytes, leaf: bool) -> List[Tuple[int, int]]:
    """``(offset, size)`` of the count and of every length field the
    undamaged page holds."""
    fields = [(COUNT_AT, 2)]
    count = _field(raw, COUNT_AT, 2)
    pos = COUNT_AT + 2
    if leaf:
        for _ in range(count):
            fields += [(pos, 2), (pos + 2, 4)]
            pos += 6 + _field(raw, pos, 2) + _field(raw, pos + 2, 4)
    else:
        pos += 8 * (count + 1)
        for _ in range(count):
            fields.append((pos, 2))
            pos += 2 + _field(raw, pos, 2)
    return fields


def _damaged(draw, raw: bytes, leaf: bool) -> bytes:
    at, size = draw(st.sampled_from(_header_fields(raw, leaf)))
    value = draw(st.one_of(st.integers(0, 64),
                           st.integers(0, 2 ** (8 * size) - 1)))
    return raw[:at] + value.to_bytes(size, "little") + raw[at + size:]


@settings(max_examples=400, deadline=None)
@given(leaves(), st.data())
def test_damaged_leaf_parses_to_the_reference_or_raises(drawn, data):
    node, size = drawn
    raw = _damaged(data.draw, written(node, size), leaf=True)
    want = reference_leaf(raw)
    if want is None:
        with pytest.raises(BTreeError, match="page 7"):
            _LeafNode.of(fresh(raw))
    else:
        parsed = _LeafNode.of(fresh(raw))
        assert (parsed.keys, parsed.values, parsed.used) == want


@settings(max_examples=400, deadline=None)
@given(internals(), st.data())
def test_damaged_internal_parses_to_the_reference_or_raises(drawn, data):
    node, size = drawn
    raw = _damaged(data.draw, written(node, size), leaf=False)
    want = reference_internal(raw)
    if want is None:
        with pytest.raises(BTreeError, match="page 7"):
            _InternalNode.of(fresh(raw))
    else:
        parsed = _InternalNode.of(fresh(raw))
        assert (parsed.keys, parsed.children) == want


# ---------------------------------------------------------------------------
# (c) damage by hand
# ---------------------------------------------------------------------------

def _three_cells() -> bytearray:
    """A 256-byte leaf holding three (9, 20) cells."""
    keys = [b"%09d" % i for i in range(3)]
    return bytearray(written(_LeafNode(keys, [b"v" * 20] * 3), 256))


def test_a_cell_count_past_the_page_raises():
    raw = _three_cells()
    struct.pack_into("<H", raw, COUNT_AT, 50)
    with pytest.raises(BTreeError, match="page 7: 50 cells"):
        _LeafNode.of(fresh(raw))


def test_a_value_length_past_the_page_raises():
    raw = _three_cells()
    last = COUNT_AT + 2 + 2 * 35
    struct.pack_into("<I", raw, last + 2, 5000)
    with pytest.raises(BTreeError, match="page 7"):
        _LeafNode.of(fresh(raw))


def test_a_key_count_past_the_page_raises():
    raw = bytearray(written(_InternalNode([b"k" * 9], [1, 2]), 256))
    for count in (25, 1000):  # keys past the page; children past it
        struct.pack_into("<H", raw, COUNT_AT, count)
        with pytest.raises(BTreeError, match="page 7"):
            _InternalNode.of(fresh(raw))
