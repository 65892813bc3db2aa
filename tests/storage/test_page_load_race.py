"""A commit's ``Page.load`` racing a reader's node parse.

A commit installs its after-images into buffer-pool pages
(``BufferPool.put_raw`` → ``Page.load``) while other threads — server
sessions, partition workers — parse the same pages through
``_LeafNode.of`` / ``_InternalNode.of`` with no lock.  The invariant
this pins: **a decoded node is only ever served with the bytes it was
parsed from.**  Two ways to break it, both seen on the server:

* a *torn parse* — the load lands while a parse is half way through the
  page, which then reads one image's cell header and the other's cells
  (``struct.error``, a wrong key);
* a *stale publish* — a parse of the old image finishes after the load
  and caches its node on the page, where every later reader (a writer
  included) is handed it with the new bytes beneath.

Each round loads image A, yields so that readers start parsing it, then
loads image B at once — while those parses are still running — and
checks for a while that the page serves B's node.  With the interpreter
switching threads every 10 µs a parse of a few hundred cells spans many
switches, so a node cache that does not pair a node with its bytes
fails within a few dozen rounds.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.storage.btree import _InternalNode, _LeafNode
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page

PAGE = 4096
PAGE_ID = 3
ROUNDS = 300
CHECKS_PER_ROUND = 20
READERS = 2
SECONDS = 10.0


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


#: two images per node kind, many cells each (a long parse) and with
#: different counts and widths, so a torn parse cannot read as either
KINDS = {
    "leaf": (_LeafNode, _leaf(250, 2), _leaf(150, 10)),
    "internal": (_InternalNode, _internal(240, 3), _internal(160, 7)),
}


@pytest.fixture
def fast_switching():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_node_is_served_only_with_the_bytes_it_was_parsed_from(
        fast_switching, kind):
    cls, first, second = KINDS[kind]
    images = [_image(first), _image(second)]
    shapes = [_shape(first), _shape(second)]
    disk = SimulatedDisk(PAGE)
    db_file = disk.open_file("db")
    db_file.write(PAGE_ID, images[1])
    pool = BufferPool(db_file, capacity=8)
    pool.fetch(PAGE_ID)
    stop = threading.Event()
    failures: list = []

    def reader() -> None:
        while not stop.is_set():
            try:
                shape = _shape(cls.of(pool.fetch(PAGE_ID)))
            except Exception as exc:  # a torn parse
                failures.append(("torn parse", repr(exc)))
                return
            if shape not in shapes:
                failures.append(("torn parse", "a node of neither image"))
                return

    threads = [threading.Thread(target=reader, name=f"reader-{i}")
               for i in range(READERS)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + SECONDS
    try:
        for n in range(ROUNDS):
            if failures or time.monotonic() > deadline:
                break
            pool.put_raw(PAGE_ID, images[0])
            time.sleep(0)  # readers start parsing image 0 ...
            pool.put_raw(PAGE_ID, images[1])  # ... and it goes
            # A parse of image 0 that publishes from here on must not
            # change what the page serves.
            for _ in range(CHECKS_PER_ROUND):
                if _shape(cls.of(pool.fetch(PAGE_ID))) != shapes[1]:
                    failures.append(("stale node", n))
                    break
                time.sleep(0)
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    assert failures == []
    # Quiescent: the page serves the node of the bytes it holds.
    page = pool.fetch(PAGE_ID)
    expected = Page(PAGE_ID, bytearray(page.data), PAGE)
    assert _shape(cls.of(page)) == _shape(cls.of(expected))
