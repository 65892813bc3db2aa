"""Maplog / Skippy tests: SPT correctness, skip-level equivalence."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptPageError, SnapshotError, UnknownSnapshotError
from repro.retro.maplog import _ENTRY, _KIND_DECLARE, _KIND_MAPPING, \
    MapEntry, Maplog
from repro.storage.disk import SimulatedDisk
from repro.storage.logfile import BlockLogWriter


def fresh_maplog():
    disk = SimulatedDisk(512)
    return Maplog(disk.open_file("maplog", append_only=True)), disk


class TestBasics:
    def test_declare_increments_epoch(self):
        maplog, _ = fresh_maplog()
        assert maplog.declare_snapshot() == 1
        assert maplog.declare_snapshot() == 2
        assert maplog.current_epoch == 2

    def test_record_requires_declaration(self):
        maplog, _ = fresh_maplog()
        with pytest.raises(SnapshotError):
            maplog.record(MapEntry(1, 1, 0, 0))

    def test_record_epoch_mismatch(self):
        maplog, _ = fresh_maplog()
        maplog.declare_snapshot()
        with pytest.raises(SnapshotError):
            maplog.record(MapEntry(1, 1, 5, 0))

    @pytest.mark.parametrize("from_snap", [0, 2])
    def test_record_from_snap_outside_epoch_range(self, from_snap):
        maplog, _ = fresh_maplog()
        maplog.declare_snapshot()
        with pytest.raises(SnapshotError):
            maplog.record(MapEntry(1, from_snap, 1, 0))

    def test_double_capture_same_epoch_rejected(self):
        maplog, _ = fresh_maplog()
        maplog.declare_snapshot()
        maplog.record(MapEntry(1, 1, 1, 0))
        with pytest.raises(SnapshotError):
            maplog.record(MapEntry(1, 1, 1, 1))

    def test_unknown_snapshot(self):
        maplog, _ = fresh_maplog()
        maplog.declare_snapshot()
        with pytest.raises(UnknownSnapshotError):
            maplog.build_spt(2)
        with pytest.raises(UnknownSnapshotError):
            maplog.build_spt(0)


class TestSptSemantics:
    def test_first_capture_serves_snapshot(self):
        maplog, _ = fresh_maplog()
        maplog.declare_snapshot()  # S1
        maplog.record(MapEntry(7, 1, 1, 100))
        result = maplog.build_spt(1)
        assert result.spt == {7: 100}

    def test_page_not_captured_is_shared_with_db(self):
        maplog, _ = fresh_maplog()
        maplog.declare_snapshot()
        maplog.record(MapEntry(7, 1, 1, 100))
        assert 8 not in maplog.build_spt(1).spt

    def test_capture_range_spans_multiple_snapshots(self):
        """A page unmodified over S1..S3 then modified once: the single
        pre-state serves all three snapshots (from_snap extends back)."""
        maplog, _ = fresh_maplog()
        for _ in range(3):
            maplog.declare_snapshot()
        maplog.record(MapEntry(9, 1, 3, 55))  # first mod after S3
        for sid in (1, 2, 3):
            assert maplog.build_spt(sid).spt == {9: 55}

    def test_later_capture_does_not_shadow_earlier(self):
        maplog, _ = fresh_maplog()
        maplog.declare_snapshot()  # S1
        maplog.record(MapEntry(9, 1, 1, 10))
        maplog.declare_snapshot()  # S2
        maplog.record(MapEntry(9, 2, 2, 20))
        assert maplog.build_spt(1).spt == {9: 10}
        assert maplog.build_spt(2).spt == {9: 20}

    def test_shared_slot_between_consecutive_snapshots(self):
        """Pages unmodified between S1 and S2 map to the SAME Pagelog
        slot in both SPTs — the sharing invariant behind the paper's
        cache behaviour."""
        maplog, _ = fresh_maplog()
        maplog.declare_snapshot()  # S1
        maplog.declare_snapshot()  # S2
        # First modification of page 5 after S2: serves S1 and S2.
        maplog.record(MapEntry(5, 1, 2, 77))
        assert maplog.build_spt(1).spt[5] == 77
        assert maplog.build_spt(2).spt[5] == 77

    def test_diff_size(self):
        maplog, _ = fresh_maplog()
        maplog.declare_snapshot()  # S1
        maplog.record(MapEntry(1, 1, 1, 0))
        maplog.record(MapEntry(2, 1, 1, 1))
        maplog.declare_snapshot()  # S2
        maplog.record(MapEntry(3, 2, 2, 2))
        maplog.declare_snapshot()  # S3
        assert maplog.diff_size(1, 2) == 2
        assert maplog.diff_size(2, 3) == 1
        assert maplog.diff_size(1, 3) == 3


def random_history(seed, epochs, pages, mods_per_epoch):
    """Simulate a COW capture stream; returns (maplog, model).

    model[sid][page] = slot expected in SPT(sid) (pages absent are
    shared with the current database).
    """
    rng = random.Random(seed)
    maplog, disk = fresh_maplog()
    cap = {}
    next_slot = 0
    expected = {}
    for epoch in range(1, epochs + 1):
        maplog.declare_snapshot()
        for page in rng.sample(range(pages), min(mods_per_epoch, pages)):
            last = cap.get(page, 0)
            if last >= epoch:
                continue
            entry = MapEntry(page, last + 1, epoch, next_slot)
            maplog.record(entry)
            cap[page] = epoch
            next_slot += 1
    # Build the reference model by linear reasoning.
    for sid in range(1, epochs + 1):
        expected[sid] = maplog.build_spt(sid, use_skippy=False).spt
    return maplog, expected


def per_entry_skippy(maplog, sid):
    """The per-entry Skippy loop the node merge replaced, kept as the
    reference for its result and its counters."""
    sealed = len(maplog._levels[0])
    nodes, epoch = [], sid
    while epoch <= sealed:
        level = maplog._largest_aligned_level(epoch, sealed)
        nodes.append(maplog._levels[level][(epoch - 1) >> level])
        epoch += 1 << level
    if maplog._open_batch:
        nodes.append(maplog._open_batch)
    entries, scanned = {}, 0
    for node in nodes:
        for page_id, entry in node.items():
            scanned += 1
            if page_id not in entries and entry.from_snap <= sid:
                entries[page_id] = entry
    return entries, scanned, len(nodes)


def assert_builds_agree(maplog):
    """For every snapshot: the merge build equals the linear build and
    the per-entry loop, counters included; ``spt`` is the slot view of
    ``entries``; advancing from the previous snapshot lands on the
    same entries."""
    previous = None
    for sid in range(1, maplog.current_epoch + 1):
        merged = maplog.build_spt(sid, use_skippy=True)
        linear = maplog.build_spt(sid, use_skippy=False)
        entries, scanned, visited = per_entry_skippy(maplog, sid)
        assert merged.entries == linear.entries == entries
        assert (merged.entries_scanned, merged.nodes_visited) \
            == (scanned, visited)
        assert merged.spt == linear.spt == {
            page: entry.slot for page, entry in entries.items()}
        if previous is not None:
            advanced = maplog.advance_spt(previous, sid - 1, sid)
            assert advanced.entries == entries
        previous = merged


class TestSkippyEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_skippy_equals_linear(self, seed):
        maplog, expected = random_history(seed, epochs=23, pages=40,
                                          mods_per_epoch=9)
        for sid, model in expected.items():
            assert maplog.build_spt(sid, use_skippy=True).spt == model

    def test_skippy_scans_fewer_entries_for_old_snapshots(self):
        maplog, _ = random_history(99, epochs=64, pages=400,
                                   mods_per_epoch=120)
        skippy = maplog.build_spt(1, use_skippy=True)
        linear = maplog.build_spt(1, use_skippy=False)
        assert skippy.spt == linear.spt
        assert skippy.entries_scanned < linear.entries_scanned
        assert skippy.nodes_visited < linear.nodes_visited

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=1, max_value=17),
           st.integers(min_value=1, max_value=25))
    def test_skippy_equivalence_property(self, seed, epochs, pages):
        maplog, expected = random_history(seed, epochs=epochs, pages=pages,
                                          mods_per_epoch=max(1, pages // 3))
        for sid, model in expected.items():
            assert maplog.build_spt(sid, use_skippy=True).spt == model
        assert_builds_agree(maplog)
        # The same after a recovery round trip (the open batch is
        # replayed from the log) and after empty epochs are forced.
        maplog.flush()
        recovered, _ = Maplog.recover(maplog._file)
        for sid, model in expected.items():
            assert recovered.build_spt(sid).entries \
                == maplog.build_spt(sid).entries
        assert_builds_agree(recovered)
        recovered.force_epoch(recovered.current_epoch + 3)
        assert_builds_agree(recovered)


class TestRecovery:
    def test_recover_rebuilds_state(self):
        disk = SimulatedDisk(512)
        maplog = Maplog(disk.open_file("maplog", append_only=True))
        maplog.declare_snapshot()
        maplog.record(MapEntry(3, 1, 1, 0))
        maplog.declare_snapshot()
        maplog.record(MapEntry(4, 1, 2, 1))
        maplog.flush()
        recovered, cap = Maplog.recover(
            disk.open_file("maplog", append_only=True)
        )
        assert recovered.current_epoch == 2
        assert cap == {3: 1, 4: 2}
        assert recovered.build_spt(1).spt == maplog.build_spt(1).spt
        assert recovered.build_spt(2).spt == maplog.build_spt(2).spt

    def test_recover_ignores_unflushed_tail(self):
        disk = SimulatedDisk(512)
        maplog = Maplog(disk.open_file("maplog", append_only=True))
        maplog.declare_snapshot()
        maplog.flush()
        maplog.declare_snapshot()  # never flushed
        recovered, _ = Maplog.recover(
            disk.open_file("maplog", append_only=True)
        )
        assert recovered.current_epoch == 1


def hand_built_log(*records):
    """A Maplog file holding exactly ``records`` (kind, a, b, c, d, e)."""
    disk = SimulatedDisk(512)
    log = disk.open_file("maplog", append_only=True)
    writer = BlockLogWriter(log)
    for record in records:
        writer.append(_ENTRY.pack(*record))
    writer.flush()
    return log


def declare(sid):
    return (_KIND_DECLARE, sid, 0, 0, 0, 0)


def mapping(page, from_snap, to_snap, slot):
    return (_KIND_MAPPING, page, from_snap, to_snap, slot, 0)


class TestRecoveryRefusesWhatRecordRefuses:
    @pytest.mark.parametrize("records", [
        pytest.param([declare(1), mapping(3, 1, 2, 0)],
                     id="to_snap-after-epoch"),
        pytest.param([declare(1), declare(2), mapping(3, 1, 1, 0)],
                     id="to_snap-before-epoch"),
        pytest.param([mapping(3, 1, 1, 0)], id="before-first-declare"),
        pytest.param([declare(1), mapping(3, 0, 1, 0)], id="from_snap-0"),
        pytest.param([declare(1), declare(2), mapping(3, 3, 2, 0)],
                     id="from_snap-after-to_snap"),
        pytest.param([declare(1), mapping(3, 1, 1, 0), mapping(3, 1, 1, 1)],
                     id="page-twice-in-epoch"),
    ])
    def test_malformed_mapping_raises(self, records):
        with pytest.raises(CorruptPageError):
            Maplog.recover(hand_built_log(*records))

    def test_well_formed_log_recovers_as_recorded(self):
        records = [declare(1), mapping(3, 1, 1, 0), mapping(4, 1, 1, 1),
                   declare(2), mapping(3, 2, 2, 2), declare(3),
                   mapping(4, 2, 3, 3), mapping(5, 1, 3, 4)]
        recovered, cap = Maplog.recover(hand_built_log(*records))
        maplog, _ = fresh_maplog()
        for kind, a, b, c, d, _crc in records:
            if kind == _KIND_DECLARE:
                maplog.declare_snapshot()
            else:
                maplog.record(MapEntry(a, b, c, d))
        assert recovered.current_epoch == 3
        assert cap == {3: 2, 4: 3, 5: 3}
        assert list(recovered.iter_entries()) == list(maplog.iter_entries())
        for sid in (1, 2, 3):
            assert recovered.build_spt(sid) == maplog.build_spt(sid)
