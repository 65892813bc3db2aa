"""Buffer pool, pager meta-page, and page-header unit tests."""

import pytest

from repro.errors import BufferPoolError, PageError, StorageError
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import (
    HEADER_SIZE,
    PAGE_TYPE_BTREE_LEAF,
    PAGE_TYPE_META,
    Page,
)
from repro.storage.pager import META_PAGE_ID, Pager

PAGE = 512


def open_pager(disk):
    return Pager(disk.open_file("db"), meta_file=disk.open_file("meta"))


class TestPage:
    def test_header_round_trip(self):
        page = Page(3, page_size=PAGE)
        page.page_type = PAGE_TYPE_BTREE_LEAF
        page.lsn = 12345
        assert page.page_type == PAGE_TYPE_BTREE_LEAF
        assert page.lsn == 12345
        # Setting one header field preserves the other.
        page.lsn = 99
        assert page.page_type == PAGE_TYPE_BTREE_LEAF

    def test_bad_type_rejected(self):
        page = Page(0, page_size=PAGE)
        with pytest.raises(PageError):
            page.page_type = 200

    def test_negative_id_rejected(self):
        with pytest.raises(PageError):
            Page(-1, page_size=PAGE)

    def test_wrong_buffer_size(self):
        with pytest.raises(PageError):
            Page(0, bytearray(10), page_size=PAGE)

    def test_install_keeps_the_held_page(self):
        # An installed page replaces the pool's object with its own node:
        # the page a reader already holds keeps its bytes and its node.
        pool, _ = make_pool()
        held = pool.fetch(1)
        node = held.node = object()
        installed = Page(1, page_size=PAGE)
        published = installed.node = object()
        pool.install(installed)
        assert pool.fetch(1) is installed and installed.node is published
        assert held.node is node and bytes(held.data) == bytes([1]) * PAGE

    def test_snapshot_bytes_is_copy(self):
        page = Page(0, page_size=PAGE)
        image = page.snapshot_bytes()
        page.data[100] = 7
        assert image[100] == 0


def make_pool(capacity=4):
    disk = SimulatedDisk(PAGE)
    db_file = disk.open_file("db")
    for i in range(10):
        db_file.write(i, bytes([i]) * PAGE)
    return BufferPool(db_file, capacity), db_file


class TestBufferPool:
    def test_hit_and_miss(self):
        pool, _ = make_pool()
        pool.fetch(1)
        pool.fetch(1)
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1
        assert pool.stats.hit_rate() == 0.5

    def test_lru_eviction_writes_back_dirty(self):
        pool, db_file = make_pool(capacity=2)
        page = pool.fetch(1)
        page.data[HEADER_SIZE] = 0xAB
        page.dirty = True
        pool.fetch(2)
        pool.fetch(3)  # evicts page 1 (LRU)
        assert not pool.resident(1)
        assert db_file.read(1)[HEADER_SIZE] == 0xAB

    def test_flush_hook_runs_before_writeback(self):
        order = []
        pool, db_file = make_pool()
        pool.set_flush_hook(lambda: order.append("hook"))
        page = pool.fetch(1)
        page.dirty = True
        original_write = db_file.write

        def tracked_write(slot, raw):
            order.append("write")
            original_write(slot, raw)

        db_file.write = tracked_write
        pool.flush_all()
        assert order == ["hook", "write"]

    def test_install_publishes_the_page(self):
        pool, _ = make_pool()
        page = Page(5, bytearray(b"\x07" * PAGE), PAGE)
        pool.install(page)
        assert pool.fetch(5) is page and page.dirty
        assert pool.stats.misses == 0

    def test_drop_all_discards_dirty(self):
        pool, db_file = make_pool()
        page = pool.fetch(1)
        page.data[HEADER_SIZE] = 0xCD
        page.dirty = True
        pool.drop_all()
        assert db_file.read(1)[HEADER_SIZE] != 0xCD

    def test_capacity_validation(self):
        disk = SimulatedDisk(PAGE)
        with pytest.raises(BufferPoolError):
            BufferPool(disk.open_file("db"), capacity=0)


class TestPager:
    def test_fresh_database_has_meta(self):
        disk = SimulatedDisk(PAGE)
        pager = open_pager(disk)
        assert pager.next_page_id == 1
        meta = disk.open_file("meta").read(1)  # first write: seq 1, slot 1
        assert Page(0, bytearray(meta), PAGE).page_type == PAGE_TYPE_META

    def test_allocate_free_reuse(self):
        disk = SimulatedDisk(PAGE)
        pager = open_pager(disk)
        first = pager.allocate()
        second = pager.allocate()
        assert (first, second) == (1, 2)
        pager.free(first)
        assert pager.allocate() == first

    def test_meta_page_cannot_be_freed(self):
        disk = SimulatedDisk(PAGE)
        pager = open_pager(disk)
        with pytest.raises(StorageError):
            pager.free(META_PAGE_ID)

    def test_roots_persist_across_reopen(self):
        disk = SimulatedDisk(PAGE)
        pager = open_pager(disk)
        pager.allocate()
        pager.set_root("catalog", 1)
        pager.set_root("other", 7)
        pager.write_meta()
        reopened = open_pager(disk)
        assert reopened.get_root("catalog") == 1
        assert reopened.get_root("other") == 7
        assert reopened.next_page_id == pager.next_page_id

    def test_root_deletion(self):
        disk = SimulatedDisk(PAGE)
        pager = open_pager(disk)
        pager.set_root("x", 3)
        pager.set_root("x", None)
        assert pager.get_root("x") is None

    def test_bad_magic_detected(self):
        disk = SimulatedDisk(PAGE)
        meta_file = disk.open_file("meta")
        meta_file.write(0, b"\xff" * PAGE)
        meta_file.write(1, b"\xff" * PAGE)
        with pytest.raises(StorageError):
            open_pager(disk)

    def test_allocation_state_round_trip(self):
        disk = SimulatedDisk(PAGE)
        pager = open_pager(disk)
        pager.allocate()
        pager.allocate()
        pager.free(1)
        state = pager.allocation_state()
        fresh = open_pager(SimulatedDisk(PAGE))
        fresh.restore_allocation_state(state)
        assert fresh.next_page_id == 3
        assert fresh.allocate() == 1  # from restored free list

    def test_page_count(self):
        disk = SimulatedDisk(PAGE)
        pager = open_pager(disk)
        pager.allocate()
        pager.allocate()
        pager.free(2)
        assert pager.page_count == 2  # meta + one live
