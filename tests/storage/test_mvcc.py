"""VersionStore unit tests (page-level MVCC retention).

Chains hold the replaced ``Page`` objects themselves, so a read hands
back the very object that was retained.
"""

import pytest

from repro.errors import TransactionError
from repro.storage.mvcc import VersionStore
from repro.storage.page import Page

PAGE = 512


def page(page_id):
    return Page(page_id, page_size=PAGE)


class TestReaderRegistration:
    def test_register_deregister(self):
        store = VersionStore()
        handle = store.register_reader(5)
        assert store.active_reader_count == 1
        assert store.oldest_active_ts() == 5
        store.deregister_reader(handle)
        assert store.active_reader_count == 0
        assert store.oldest_active_ts() is None

    def test_double_deregister_raises(self):
        store = VersionStore()
        handle = store.register_reader(1)
        store.deregister_reader(handle)
        with pytest.raises(TransactionError):
            store.deregister_reader(handle)

    def test_oldest_of_many(self):
        store = VersionStore()
        store.register_reader(10)
        store.register_reader(3)
        store.register_reader(7)
        assert store.oldest_active_ts() == 3


class TestRetention:
    def test_no_readers_no_retention(self):
        store = VersionStore()
        store.retain(page(1), replaced_at=5)
        assert store.retained_versions == 0

    def test_retained_for_older_reader(self):
        store = VersionStore()
        store.register_reader(4)
        v4 = page(1)
        store.retain(v4, replaced_at=5)
        assert store.read(1, 4) is v4
        assert store.read(1, 5) is None  # reader at 5 sees the live page

    def test_reader_at_or_after_replacement_not_retained(self):
        store = VersionStore()
        store.register_reader(5)
        store.retain(page(1), replaced_at=5)
        assert store.retained_versions == 0

    def test_version_chain_resolution(self):
        store = VersionStore()
        store.register_reader(0)
        v0, v1, v2 = page(1), page(1), page(1)
        store.retain(v0, replaced_at=1)  # content before ts 1
        store.retain(v1, replaced_at=2)  # content before ts 2
        store.retain(v2, replaced_at=3)
        assert store.read(1, 0) is v0
        assert store.read(1, 1) is v1
        assert store.read(1, 2) is v2
        assert store.read(1, 3) is None

    def test_unknown_page_reads_none(self):
        store = VersionStore()
        store.register_reader(0)
        assert store.read(99, 0) is None


class TestPruning:
    def test_prune_on_deregister(self):
        store = VersionStore()
        old = store.register_reader(0)
        store.retain(page(1), replaced_at=1)
        store.retain(page(2), replaced_at=1)
        assert store.retained_versions == 2
        store.deregister_reader(old)
        assert store.retained_versions == 0

    def test_prune_keeps_needed_versions(self):
        store = VersionStore()
        old = store.register_reader(0)
        newer = store.register_reader(2)
        v1 = page(1)
        store.retain(page(1), replaced_at=1)
        store.retain(v1, replaced_at=3)
        store.deregister_reader(old)
        # Reader at 2 still needs v1 (replaced at 3 > 2).
        assert store.read(1, 2) is v1
        assert store.retained_versions == 1
        store.deregister_reader(newer)
        assert store.retained_versions == 0
