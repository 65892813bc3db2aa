"""A fetched page never changes.

A commit installs its pages through ``BufferPool.install`` while other
threads — server sessions — hold pages they fetched and parse them
through ``_LeafNode.of`` / ``_InternalNode.of`` with no lock.  The
invariant this pins: **an installed page is a new page object**, so a
page object fetched before the install keeps the bytes it had and the
node parsed from them, and the pool serves the installed page, with
its own node, from then on.  Before, the install loaded the new bytes
into the very object readers held: a parse in flight could read one
image's cell header and the other's cells, and a node had to be paired
with its bytes to avoid serving a stale one.
"""

from __future__ import annotations

import pytest

from repro.storage.btree import _InternalNode, _LeafNode
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page

PAGE = 4096
PAGE_ID = 3


def _leaf(count: int, width: int) -> _LeafNode:
    keys = [b"k%07d" % (i * width) for i in range(count)]
    return _LeafNode(keys, [bytes([width]) * width for _ in keys])


def _internal(count: int, step: int) -> _InternalNode:
    keys = [b"s%05d" % (i * step) for i in range(count)]
    return _InternalNode(keys, [100 + i * step for i in range(count + 1)])


def _image(node) -> bytes:
    page = Page(PAGE_ID, page_size=PAGE)
    node.encode_into(page)
    return page.snapshot_bytes()


def _shape(node):
    tail = node.values if isinstance(node, _LeafNode) else node.children
    return tuple(node.keys), tuple(tail)


#: two images per node kind, with different cell counts and widths,
#: so a node of one never reads as the other
KINDS = {
    "leaf": (_LeafNode, _leaf(250, 2), _leaf(150, 10)),
    "internal": (_InternalNode, _internal(240, 3), _internal(160, 7)),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_node_is_served_only_with_the_bytes_it_was_parsed_from(kind):
    cls, first, second = KINDS[kind]
    images = [_image(first), _image(second)]
    disk = SimulatedDisk(PAGE)
    db_file = disk.open_file("db")
    db_file.write(PAGE_ID, images[0])
    pool = BufferPool(db_file, capacity=8)
    held = pool.fetch(PAGE_ID)
    data = held.data
    node = cls.of(held)

    installed = Page(PAGE_ID, bytearray(images[1]), PAGE)
    second.encode_into(installed)
    pool.install(installed)

    # The fetched object is untouched: its bytes and its node.
    assert held.data is data and bytes(data) == images[0]
    assert cls.of(held) is node and _shape(node) == _shape(first)
    # The pool serves the installed page, with the node it came with.
    fresh = pool.fetch(PAGE_ID)
    assert fresh is installed and bytes(fresh.data) == images[1]
    assert cls.of(fresh) is second
    assert cls.of(held) is node
