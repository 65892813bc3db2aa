"""Transaction / workspace unit tests (overlay isolation semantics)."""

import pytest

from repro.errors import TransactionError
from repro.storage.disk import SimulatedDisk
from repro.storage.engine import StorageEngine
from repro.storage.page import Page
from repro.storage.transaction import Transaction, TxnState


@pytest.fixture
def workspace():
    engine = StorageEngine(SimulatedDisk(512), page_size=512)
    txn = engine.begin()
    return engine, txn, engine.page_source(txn)


class TestWorkspace:
    def test_allocate_goes_to_overlay(self, workspace):
        engine, txn, source = workspace
        page = source.allocate_page()
        assert page.page_id in txn.overlay
        assert page.page_id in txn.dirty
        assert page.page_id in txn.allocated

    def test_fetch_prefers_overlay(self, workspace):
        engine, txn, source = workspace
        page = source.allocate_page()
        assert source.fetch(page.page_id) is page

    def test_make_writable_copies_shared_page(self, workspace):
        engine, txn, source = workspace
        shared = engine.pager.pool.fetch(0)  # meta page
        private = source.make_writable(shared)
        assert private is not shared
        assert private.data == shared.data
        private.data[100] = 0xEE
        assert shared.data[100] != 0xEE

    def test_make_writable_idempotent(self, workspace):
        engine, txn, source = workspace
        shared = engine.pager.pool.fetch(0)
        first = source.make_writable(shared)
        second = source.make_writable(shared)
        assert first is second

    def test_mark_dirty_requires_overlay(self, workspace):
        engine, txn, source = workspace
        shared = engine.pager.pool.fetch(0)
        with pytest.raises(TransactionError):
            source.mark_dirty(shared)

    def test_free_page_undoes_allocation(self, workspace):
        engine, txn, source = workspace
        page = source.allocate_page()
        source.free_page(page.page_id)
        assert page.page_id not in txn.overlay
        assert page.page_id not in txn.allocated
        assert page.page_id in txn.freed

    def test_modified_pages_snapshot(self, workspace):
        # The commit payload is the dirty overlay pages themselves, in
        # id order: the commit publishes those objects, so nothing is
        # copied, and a page made writable but never dirtied stays out.
        engine, txn, source = workspace
        second = source.allocate_page()
        first = source.allocate_page()
        if first.page_id > second.page_id:
            first, second = second, first
        first.data[20] = 0x42
        source.make_writable(engine.pager.pool.fetch(0))  # never dirtied
        pages = txn.modified_pages()
        assert list(pages) == [first.page_id, second.page_id]
        assert pages[first.page_id] is first
        assert pages[first.page_id].data[20] == 0x42

    def test_operations_after_commit_rejected(self, workspace):
        engine, txn, source = workspace
        source.allocate_page()
        engine.commit(txn)
        with pytest.raises(TransactionError):
            source.allocate_page()
        with pytest.raises(TransactionError):
            source.make_writable(Page(1, page_size=512))


class TestTransactionLifecycle:
    def test_state_transitions(self):
        txn = Transaction(txn_id=1, begin_ts=0, first_new_page_id=5)
        assert txn.is_active()
        txn.ensure_active()
        txn.state = TxnState.COMMITTED
        assert not txn.is_active()
        with pytest.raises(TransactionError):
            txn.ensure_active()

    def test_first_new_page_id_partitions_prestates(self, workspace):
        """Pages at or above first_new_page_id never existed before the
        txn, so commit must not try to read their pre-state."""
        engine, txn, source = workspace
        boundary = txn.first_new_page_id
        fresh = source.allocate_page()
        assert fresh.page_id >= boundary
        engine.commit(txn, declare_snapshot=True)
        # Capture map stays empty for the fresh page (no pre-state).
        assert engine.retro.captured_epoch(fresh.page_id) == 0
