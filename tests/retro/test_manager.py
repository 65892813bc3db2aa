"""RetroManager tests: COW capture semantics, sharing, metering, the
model-based reconstruction property, and the cache-keying ablation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SnapshotError, UnknownSnapshotError
from repro.retro.manager import RetroManager
from repro.retro.metrics import MetricsSink
from repro.storage.btree import BTree
from repro.storage.disk import SimulatedDisk
from repro.storage.engine import StorageEngine
from repro.storage.record import encode_key, encode_record


def fresh_manager():
    disk = SimulatedDisk(256)
    return RetroManager(disk), disk


class TestCowCapture:
    def test_no_capture_before_first_snapshot(self):
        manager, _ = fresh_manager()
        assert manager.capture_if_needed(1, lambda: b"x" * 256) is False
        assert manager.pagelog.total_slots == 0

    def test_first_modification_captures_once(self):
        manager, _ = fresh_manager()
        manager.declare_snapshot()
        assert manager.capture_if_needed(1, lambda: b"a" * 256) is True
        assert manager.capture_if_needed(1, lambda: b"b" * 256) is False
        assert manager.pagelog.total_slots == 1

    def test_capture_resumes_after_new_declaration(self):
        manager, _ = fresh_manager()
        manager.declare_snapshot()
        manager.capture_if_needed(1, lambda: b"a" * 256)
        manager.declare_snapshot()
        assert manager.capture_if_needed(1, lambda: b"b" * 256) is True
        assert manager.pagelog.total_slots == 2

    def test_pre_state_reader_called_lazily(self):
        manager, _ = fresh_manager()
        calls = []

        def reader():
            calls.append(1)
            return b"z" * 256

        manager.capture_if_needed(1, reader)  # epoch 0: no capture
        assert calls == []
        manager.declare_snapshot()
        manager.capture_if_needed(1, reader)
        assert calls == [1]

    def test_captured_epoch_tracking(self):
        manager, _ = fresh_manager()
        manager.declare_snapshot()
        assert manager.captured_epoch(1) == 0
        manager.capture_if_needed(1, lambda: b"a" * 256)
        assert manager.captured_epoch(1) == 1


class TestSnapshotReads:
    def _engine_with_history(self):
        disk = SimulatedDisk(4096)
        engine = StorageEngine(disk)
        txn = engine.begin()
        tree = BTree.create(engine.page_source(txn))
        root = tree.root_id
        for i in range(300):
            tree.insert(encode_key((i,)), encode_record((i, "x" * 50)))
        engine.commit(txn)
        sids = []
        for round_no in range(5):
            txn = engine.begin()
            t = BTree(engine.page_source(txn), root)
            for i in range(round_no * 30, round_no * 30 + 30):
                t.delete(encode_key((i,)))
            sids.append(engine.commit(txn, declare_snapshot=True))
        return engine, root, sids

    def test_metering_splits_sources(self):
        engine, root, sids = self._engine_with_history()
        engine.checkpoint()
        sink = MetricsSink()
        engine.retro.cache.clear()
        sink.begin_iteration(sids[0])
        ctx = engine.begin_read()
        BTree(engine.snapshot_source(sids[0], ctx, metrics=sink),
              root).count()
        ctx.close()
        it = sink.iterations[0]
        assert it.pagelog_reads > 0
        assert it.db_reads > 0  # recent snapshot shares with current
        assert it.spt_entries_scanned > 0

    def test_second_pass_hits_cache(self):
        engine, root, sids = self._engine_with_history()
        engine.checkpoint()
        sink = MetricsSink()
        engine.retro.cache.clear()
        ctx = engine.begin_read()
        sink.begin_iteration(sids[0])
        BTree(engine.snapshot_source(sids[0], ctx, metrics=sink),
              root).count()
        first = sink.iterations[0]
        sink.begin_iteration(sids[0])
        BTree(engine.snapshot_source(sids[0], ctx, metrics=sink),
              root).count()
        second = sink.iterations[1]
        ctx.close()
        assert second.pagelog_reads == 0
        assert second.cache_hits >= first.pagelog_reads

    def test_consecutive_snapshots_share_cached_slots(self):
        """The paper's core effect: shared(S1, S2) pages hit the cache
        when iterating S1 then S2."""
        engine, root, sids = self._engine_with_history()
        engine.checkpoint()
        sink = MetricsSink()
        engine.retro.cache.clear()
        ctx = engine.begin_read()
        sink.begin_iteration(sids[0])
        BTree(engine.snapshot_source(sids[0], ctx, metrics=sink),
              root).count()
        cold = sink.iterations[0]
        sink.begin_iteration(sids[1])
        BTree(engine.snapshot_source(sids[1], ctx, metrics=sink),
              root).count()
        hot = sink.iterations[1]
        ctx.close()
        assert hot.pagelog_reads < cold.pagelog_reads
        assert hot.cache_hits > 0

    def test_ablation_per_snapshot_keying_kills_sharing(self):
        """Keying the cache by (snapshot, page) instead of Pagelog slot
        destroys cross-snapshot sharing (DESIGN.md ablation)."""
        engine, root, sids = self._engine_with_history()
        engine.checkpoint()
        engine.retro.share_cache_by_slot = False
        sink = MetricsSink()
        engine.retro.cache.clear()
        ctx = engine.begin_read()
        sink.begin_iteration(sids[0])
        BTree(engine.snapshot_source(sids[0], ctx, metrics=sink),
              root).count()
        cold = sink.iterations[0]
        sink.begin_iteration(sids[1])
        BTree(engine.snapshot_source(sids[1], ctx, metrics=sink),
              root).count()
        hot = sink.iterations[1]
        ctx.close()
        assert hot.cache_hits == 0
        assert hot.pagelog_reads >= cold.pagelog_reads - 5

    def test_unknown_snapshot_rejected(self):
        manager, _ = fresh_manager()
        with pytest.raises(UnknownSnapshotError):
            manager.snapshot_source(1, lambda pid: None, 256)

    def test_snapshot_source_is_immutable(self):
        engine, root, sids = self._engine_with_history()
        ctx = engine.begin_read()
        source = engine.snapshot_source(sids[0], ctx)
        with pytest.raises(SnapshotError):
            source.allocate_page()
        with pytest.raises(SnapshotError):
            source.free_page(1)
        ctx.close()


class TestReconstructionProperty:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_any_history_reconstructs_exactly(self, seed):
        """Model-based: after arbitrary update/declare interleavings,
        every snapshot reads back exactly the logical state at its
        declaration."""
        rng = random.Random(seed)
        engine = StorageEngine(SimulatedDisk(4096))
        txn = engine.begin()
        tree = BTree.create(engine.page_source(txn))
        root = tree.root_id
        engine.commit(txn)
        model = {}
        snapshots = {}
        for _ in range(rng.randint(1, 8)):
            txn = engine.begin()
            t = BTree(engine.page_source(txn), root)
            for _ in range(rng.randint(0, 40)):
                i = rng.randrange(120)
                if rng.random() < 0.6:
                    model[i] = rng.randrange(10**6)
                    t.insert(encode_key((i,)),
                             encode_record((model[i],)))
                else:
                    model.pop(i, None)
                    t.delete(encode_key((i,)))
            if rng.random() < 0.7:
                sid = engine.commit(txn, declare_snapshot=True)
                snapshots[sid] = dict(model)
            else:
                engine.commit(txn)
            if rng.random() < 0.3:
                engine.checkpoint()
        ctx = engine.begin_read()
        for sid, expected in snapshots.items():
            t = BTree(engine.snapshot_source(sid, ctx), root)
            got = {}
            for key, value in t.scan_all():
                from repro.storage.record import decode_key, decode_record

                got[int(decode_key(key)[0])] = decode_record(value)[0]
            assert got == expected, f"snapshot {sid} mismatch"
        ctx.close()
