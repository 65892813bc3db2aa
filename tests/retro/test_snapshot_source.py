"""SnapshotPageSource behaviour details: fetch resolution order,
current-state fallback through MVCC, and cross-source consistency."""

import pytest

from repro.retro.metrics import MetricsSink
from repro.storage.btree import BTree
from repro.storage.disk import SimulatedDisk
from repro.storage.engine import StorageEngine
from repro.storage.record import decode_record, encode_key, encode_record


@pytest.fixture
def history():
    engine = StorageEngine(SimulatedDisk(4096))
    txn = engine.begin()
    tree = BTree.create(engine.page_source(txn))
    root = tree.root_id
    for i in range(200):
        tree.insert(encode_key((i,)), encode_record((i,)))
    engine.commit(txn)
    sid = None
    txn = engine.begin()
    sid = engine.commit(txn, declare_snapshot=True)
    return engine, root, sid


class TestFetchResolution:
    def test_shared_pages_come_from_current_db(self, history):
        engine, root, sid = history
        sink = MetricsSink()
        ctx = engine.begin_read()
        sink.begin_iteration(sid)
        source = engine.snapshot_source(sid, ctx, metrics=sink)
        # Nothing modified since the declaration: the SPT is empty and
        # every fetch falls through to the database.
        assert source.entries == {}
        BTree(source, root).count()
        metrics = sink.iterations[0]
        assert metrics.pagelog_reads == 0
        assert metrics.db_reads > 0
        ctx.close()

    def test_mvcc_protects_concurrent_shared_reads(self, history):
        """A snapshot query's shared-page reads resolve through MVCC:
        an update committing mid-query must not leak into it."""
        engine, root, sid = history
        ctx = engine.begin_read()
        source = engine.snapshot_source(sid, ctx)
        # Concurrent transaction deletes rows AFTER the source exists.
        txn = engine.begin()
        tree = BTree(engine.page_source(txn), root)
        for i in range(100):
            tree.delete(encode_key((i,)))
        engine.commit(txn)
        # The in-flight snapshot query still sees all 200 rows.
        assert BTree(source, root).count() == 200
        ctx.close()
        # A fresh snapshot source after the commit ALSO sees 200 (the
        # pre-states were captured at the later commit).
        ctx2 = engine.begin_read()
        fresh = engine.snapshot_source(sid, ctx2)
        assert BTree(fresh, root).count() == 200
        ctx2.close()

    def test_values_identical_via_cache_and_pagelog(self, history):
        engine, root, sid = history
        # Overwrite everything so the snapshot is fully archived.
        txn = engine.begin()
        tree = BTree(engine.page_source(txn), root)
        for i in range(200):
            tree.insert(encode_key((i,)), encode_record((i + 1000,)))
        engine.commit(txn)
        engine.checkpoint()

        def read_all():
            ctx = engine.begin_read()
            try:
                source = engine.snapshot_source(sid, ctx)
                return [
                    decode_record(v)[0]
                    for _, v in BTree(source, root).scan_all()
                ]
            finally:
                ctx.close()

        engine.retro.cache.clear()
        cold = read_all()   # from the Pagelog
        warm = read_all()   # from the snapshot cache
        assert cold == warm == list(range(200))
