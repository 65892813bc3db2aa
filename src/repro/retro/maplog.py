"""Maplog: the snapshot page-table index, with Skippy skip levels.

Every archived pre-state produces a mapping ``(page_id, from_snap,
to_snap, pagelog_slot)``: the pre-state serves snapshot ids in
``[from_snap, to_snap]`` (to_snap is the snapshot after whose declaration
the page was first modified; from_snap extends back to just after the
previous capture, because the page was unmodified throughout).

Building the snapshot page table SPT(S) requires, for every page, the
*first* mapping at capture-epoch >= S.  A linear Maplog scan is O(history
length); Skippy [Shaull et al., SIGMOD'08] turns this into ~n log n by
maintaining skip levels.  We implement a binary-buddy variant:

* level 0 node *j* holds the mappings captured during epoch ``j+1``
  (each page appears at most once per epoch — COW captures once);
* node at level ``l+1`` merges two buddy nodes of level ``l``, keeping
  the *earliest* mapping per page;
* ``build_spt`` decomposes the epoch range ``[S, E]`` into O(log) aligned
  complete nodes (ascending) and merges them, the earliest node winning
  per page: every page's first mapping captured at an epoch >= S.

The merge needs no per-entry test because of the capture invariant:
a page's first mapping captured at an epoch >= S has ``from_snap`` =
(its previous capture's epoch) + 1, and that previous capture is at an
epoch < S, so ``from_snap <= S`` — the mapping serves S.  ``record``
and ``recover`` refuse every mapping that could break it.

The mapping stream is also appended durably to a block log so recovery
can rebuild the in-memory structure (see :meth:`recover`).

Latching: a leaf-level reentrant latch guards the Skippy levels, the
open batch, and the durable writer, so concurrent snapshot readers can
build SPTs while a committing writer records new mappings.  The latch
never wraps a call into another latched component (RPL011).
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.errors import CorruptPageError, SnapshotError, UnknownSnapshotError
from repro.storage.disk import DiskFile
from repro.storage.logfile import (
    BlockLogReader,
    BlockLogWriter,
    LogScanStatus,
)

_ENTRY = struct.Struct("<BQQQQI")
_KIND_MAPPING = 1
_KIND_DECLARE = 2


@dataclass(frozen=True)
class MapEntry:
    """One Maplog mapping.

    ``crc`` is the CRC32 of the referenced Pagelog pre-state image,
    recorded at capture time so snapshot reads can detect bit rot in the
    archive (0 means "not recorded" for entries from older logs).
    """

    page_id: int
    from_snap: int
    to_snap: int
    slot: int
    crc: int = 0


@dataclass
class SptBuildResult:
    """SPT(S) as its mappings, plus the scan-cost accounting the
    benchmarks need.

    ``entries`` maps page id -> :class:`MapEntry` (what readers consume:
    the Pagelog slot and the image CRC); a consecutive snapshot's SPT
    can be derived from it incrementally (see :meth:`Maplog.advance_spt`).
    """

    entries: Dict[int, MapEntry]
    entries_scanned: int
    nodes_visited: int

    @property
    def spt(self) -> Mapping[int, int]:
        """Read-only page id -> Pagelog slot view of :attr:`entries`."""
        return MappingProxyType(
            {page: entry.slot for page, entry in self.entries.items()})


class Maplog:
    """In-memory Skippy structure + durable mapping log."""

    def __init__(self, log_file: DiskFile) -> None:
        self._writer = BlockLogWriter(log_file)
        self._file = log_file
        self._latch = threading.RLock()
        #: current epoch == id of the most recently declared snapshot
        self.current_epoch = 0
        # Completed per-epoch nodes at each level.  _levels[0][j] covers
        # epoch j+1; _levels[l][j] covers epochs [j*2^l+1, (j+1)*2^l].
        self._levels: List[List[Dict[int, MapEntry]]] = [[]]
        # Mappings captured during the current (incomplete) epoch.
        self._open_batch: Dict[int, MapEntry] = {}
        #: lifetime mapping count (for stats/tests)
        self.entries_recorded = 0
        #: scan status of the last :meth:`recover` (None for fresh logs)
        self.recovery_status: Optional[LogScanStatus] = None

    # -- writes --------------------------------------------------------------

    def declare_snapshot(self) -> int:
        """Close the current epoch and open the next; returns the new id."""
        with self._latch:
            self._seal_open_batch()
            self.current_epoch += 1
            self._writer.append(_ENTRY.pack(_KIND_DECLARE,
                                            self.current_epoch, 0, 0, 0, 0))
            return self.current_epoch

    def force_epoch(self, epoch: int) -> None:
        """Advance through empty epochs up to ``epoch``.

        Used after a degraded recovery (lost Maplog tail): WAL replay is
        about to re-declare snapshots whose original mappings are gone,
        and the declared ids must stay aligned with the epoch counter.
        The skipped epochs get empty level-0 nodes and synthetic DECLARE
        records, keeping both the Skippy structure and the durable log
        self-consistent.
        """
        while self.current_epoch < epoch:
            self.declare_snapshot()

    def record(self, entry: MapEntry) -> None:
        """Record a mapping captured during the current epoch."""
        with self._latch:
            if self.current_epoch == 0:
                raise SnapshotError("no snapshot declared; nothing to map")
            problem = self._mapping_problem(entry)
            if problem is not None:
                raise SnapshotError(problem)
            self._open_batch[entry.page_id] = entry
            self.entries_recorded += 1
            self._writer.append(_ENTRY.pack(
                _KIND_MAPPING, entry.page_id, entry.from_snap,
                entry.to_snap, entry.slot, entry.crc,
            ))

    def _mapping_problem(self, entry: MapEntry) -> Optional[str]:
        """Why ``entry`` cannot be the next mapping of the current epoch
        (None if it can).  ``record`` and ``recover`` both ask, so a log
        replays only what recording it would have accepted."""
        if entry.to_snap != self.current_epoch:
            return (f"mapping to_snap {entry.to_snap} != epoch "
                    f"{self.current_epoch}")
        if not 1 <= entry.from_snap <= entry.to_snap:
            return (f"mapping from_snap {entry.from_snap} outside "
                    f"[1, {entry.to_snap}]")
        if entry.page_id in self._open_batch:
            return (f"page {entry.page_id} captured twice in epoch "
                    f"{self.current_epoch}")
        return None

    def flush(self) -> None:
        """Make the durable log catch up (checkpoint)."""
        with self._latch:
            self._writer.flush()

    @property
    def records_written(self) -> int:
        """Lifetime record count (mappings + declares), durable + pending.

        Checkpoints store this in the pager roots so recovery can tell a
        replayable tail loss (records past the checkpoint, recaptured by
        WAL replay) from non-replayable corruption below it.
        """
        return self._writer.records_written

    def iter_entries(self):
        """All recorded mappings (sealed level-0 nodes + the open batch).

        The list is materialized under the latch so a concurrent
        ``record``/``declare_snapshot`` cannot mutate the structures
        mid-iteration.
        """
        with self._latch:
            entries: List[MapEntry] = []
            for node in self._levels[0]:
                entries.extend(node.values())
            entries.extend(self._open_batch.values())
        return iter(entries)

    # -- Skippy maintenance ------------------------------------------------------

    def _seal_open_batch(self) -> None:
        if self.current_epoch == 0:
            # Mappings cannot exist before the first declaration.
            return
        node = dict(self._open_batch)
        self._open_batch = {}
        self._levels[0].append(node)
        # Binary-buddy merge upwards, like carrying in a binary counter:
        # whenever a level's node count turns even, its last two nodes are
        # aligned buddies — merge them (keeping the EARLIEST mapping per
        # page) into the next level.  Invariant: len(levels[l+1]) ==
        # len(levels[l]) // 2.
        level = 0
        while self._levels[level] and len(self._levels[level]) % 2 == 0:
            left, right = self._levels[level][-2], self._levels[level][-1]
            merged = dict(left)
            for page_id, entry in right.items():
                if page_id not in merged:
                    merged[page_id] = entry
            if level + 1 >= len(self._levels):
                self._levels.append([])
            self._levels[level + 1].append(merged)
            level += 1

    def _node_exists(self, level: int, index: int) -> bool:
        return level < len(self._levels) and index < len(self._levels[level])

    # -- SPT construction ----------------------------------------------------------

    def build_spt(self, snapshot_id: int,
                  use_skippy: bool = True) -> SptBuildResult:
        """Map every captured page of ``snapshot_id`` to its Pagelog slot.

        Pages absent from the result are shared with the current database.
        """
        with self._latch:
            if snapshot_id < 1 or snapshot_id > self.current_epoch:
                raise UnknownSnapshotError(
                    f"snapshot {snapshot_id} not declared (epoch "
                    f"{self.current_epoch})"
                )
            if use_skippy:
                return self._build_spt_skippy(snapshot_id)
            return self._build_spt_linear(snapshot_id)

    def _build_spt_skippy(self, snapshot_id: int) -> SptBuildResult:
        nodes: List[Dict[int, MapEntry]] = []
        scanned = 0
        sealed_epochs = len(self._levels[0])
        epoch = snapshot_id  # first epoch whose captures can serve S
        while epoch <= sealed_epochs:
            level = self._largest_aligned_level(epoch, sealed_epochs)
            node = self._levels[level][(epoch - 1) >> level]
            nodes.append(node)
            scanned += len(node)
            epoch += 1 << level
        # The still-open batch also serves S (captures at current epoch).
        if self._open_batch:
            nodes.append(self._open_batch)
            scanned += len(self._open_batch)
        # Merge latest node first so the earliest capture of each page
        # wins; the capture invariant (module docstring) makes every
        # winner serve S, so no entry needs testing.
        entries: Dict[int, MapEntry] = {}
        for node in reversed(nodes):
            entries.update(node)
        return SptBuildResult(entries, scanned, len(nodes))

    def _largest_aligned_level(self, epoch: int, last: int) -> int:
        """Largest complete, aligned node starting at ``epoch``."""
        level = 0
        while True:
            nxt = level + 1
            span = 1 << nxt
            aligned = (epoch - 1) % span == 0
            fits = epoch - 1 + span <= last
            if aligned and fits and self._node_exists(nxt, (epoch - 1) >> nxt):
                level = nxt
            else:
                return level

    def _build_spt_linear(self, snapshot_id: int) -> SptBuildResult:
        """Reference implementation: plain forward scan (no skip levels)."""
        entries: Dict[int, MapEntry] = {}
        scanned = 0
        visited = 0
        for index in range(snapshot_id - 1, len(self._levels[0])):
            node = self._levels[0][index]
            visited += 1
            for page_id, entry in node.items():
                scanned += 1
                if page_id not in entries \
                        and entry.from_snap <= snapshot_id:
                    entries[page_id] = entry
        if self._open_batch:
            visited += 1
            for page_id, entry in self._open_batch.items():
                scanned += 1
                if page_id not in entries \
                        and entry.from_snap <= snapshot_id:
                    entries[page_id] = entry
        return SptBuildResult(entries, scanned, visited)

    # -- incremental SPT (future-work extension; DESIGN.md §7) -------------------

    def first_capture_at_or_after(self, page_id: int,
                                  snapshot_id: int):
        """First mapping of ``page_id`` captured at epoch >= snapshot_id.

        Returns (entry_or_None, entries_scanned).  Uses the skip levels
        to touch O(log n) nodes.
        """
        with self._latch:
            return self._first_capture_locked(page_id, snapshot_id)

    def _first_capture_locked(self, page_id: int, snapshot_id: int):
        scanned = 0
        sealed_epochs = len(self._levels[0])
        epoch = snapshot_id
        while epoch <= sealed_epochs:
            level = self._largest_aligned_level(epoch, sealed_epochs)
            node = self._levels[level][(epoch - 1) >> level]
            scanned += 1
            entry = node.get(page_id)
            if entry is not None and entry.to_snap >= snapshot_id:
                return entry, scanned
            epoch += 1 << level
        if self._open_batch:
            scanned += 1
            entry = self._open_batch.get(page_id)
            if entry is not None and entry.to_snap >= snapshot_id:
                return entry, scanned
        return None, scanned

    def advance_spt(self, previous: SptBuildResult,
                    from_snapshot: int,
                    to_snapshot: int) -> SptBuildResult:
        """Derive SPT(to) from SPT(from) for to > from.

        Only the entries whose validity range ends before ``to`` need a
        fresh lookup — the incremental form of SPT construction for RQL
        queries iterating consecutive snapshots (the paper's future-work
        "sharing computations across snapshots").  Cost is proportional
        to diff(from, to), not to the snapshot size.
        """
        with self._latch:
            if to_snapshot <= from_snapshot:
                raise SnapshotError("advance_spt requires to > from")
            if to_snapshot > self.current_epoch:
                raise UnknownSnapshotError(
                    f"snapshot {to_snapshot} not declared"
                )
            entries: Dict[int, MapEntry] = {}
            scanned = 0
            visited = 0
            for page_id, entry in previous.entries.items():
                scanned += 1
                if entry.to_snap >= to_snapshot:
                    # Still valid: the page is unmodified through `to`.
                    entries[page_id] = entry
                    continue
                replacement, nodes = self._first_capture_locked(
                    page_id, to_snapshot,
                )
                visited += nodes
                if replacement is not None and                     replacement.from_snap <= to_snapshot:
                    entries[page_id] = replacement
                # else: shared with the current database now.
            return SptBuildResult(entries, scanned, visited)

    # -- inter-snapshot sharing stats (diff sizes, used by tests/benches) ------------

    def diff_size(self, older: int, newer: int) -> int:
        """Number of pages NOT shared between two snapshots.

        Pages captured in epochs (older, newer] differ between the two
        snapshots; everything else is shared.
        """
        return len(self.diff_pages(older, newer))

    def diff_pages(self, older: int, newer: int) -> Set[int]:
        """The page ids NOT shared between two snapshots.

        The set whose size ``diff_size`` reports: any page modified
        between the two declarations was captured in one of the epochs
        (older, newer] and appears here; incremental view refresh
        intersects it with a table's page set to find affected pages.
        """
        if older > newer:
            older, newer = newer, older
        with self._latch:
            pages: Set[int] = set()
            for epoch in range(older, newer):
                if epoch - 1 < len(self._levels[0]):
                    pages.update(self._levels[0][epoch - 1].keys())
            return pages

    def captures_in_epoch(self, epoch: int) -> int:
        with self._latch:
            if epoch - 1 < len(self._levels[0]):
                return len(self._levels[0][epoch - 1])
            if epoch == self.current_epoch:
                return len(self._open_batch)
            return 0

    # -- recovery ------------------------------------------------------------

    @classmethod
    def recover(cls, log_file: DiskFile) -> Tuple["Maplog", Dict[int, int]]:
        """Rebuild from the durable log, tolerating a torn tail.

        Returns the Maplog plus the COW capture map (page_id -> last epoch
        whose pre-state was captured) needed by the COW tracker.  A
        checksum-invalid tail is *repaired*: the surviving records are
        rewritten so future appends extend a clean log instead of burying
        bad blocks mid-stream (which the next recovery would have to
        classify as mid-log corruption).  The loss itself is reported via
        :attr:`recovery_status`; deciding whether it was replayable is the
        RetroManager's job.  A mapping :meth:`record` would have refused
        (wrong epoch, ``from_snap`` outside ``[1, to_snap]``, a page
        mapped twice in one epoch) raises :class:`CorruptPageError`: the
        SPT merge relies on every replayed mapping obeying the capture
        invariant.
        """
        reader = BlockLogReader(log_file)
        raws, status = reader.scan(0)
        parsed: List[Tuple[int, int, int, int, int, int]] = []
        for raw in raws:
            try:
                parsed.append(_ENTRY.unpack(raw))
            except struct.error as exc:
                raise CorruptPageError(
                    f"Maplog record of {len(raw)} bytes is not a valid "
                    f"entry"
                ) from exc
        if status.torn:
            log_file.truncate(0)
            repair_writer = BlockLogWriter(log_file)
            for raw in raws:
                repair_writer.append(raw)
            repair_writer.flush()
        maplog = cls.__new__(cls)
        maplog._latch = threading.RLock()
        maplog._writer = BlockLogWriter(log_file)
        # Lifetime counter continues across restarts so checkpointed
        # record counts stay comparable.
        maplog._writer.records_written = len(raws)
        maplog._file = log_file
        maplog.current_epoch = 0
        maplog._levels = [[]]
        maplog._open_batch = {}
        maplog.entries_recorded = 0
        maplog.recovery_status = status
        cap: Dict[int, int] = {}
        for kind, a, b, c, d, e in parsed:
            if kind == _KIND_DECLARE:
                maplog._seal_open_batch()
                maplog.current_epoch += 1
                if maplog.current_epoch != a:
                    raise SnapshotError("Maplog declaration ids out of order")
            elif kind == _KIND_MAPPING:
                entry = MapEntry(page_id=a, from_snap=b, to_snap=c, slot=d,
                                 crc=e)
                problem = maplog._mapping_problem(entry)
                if problem is not None:
                    raise CorruptPageError(f"Maplog record: {problem}")
                maplog._open_batch[entry.page_id] = entry
                maplog.entries_recorded += 1
                cap[entry.page_id] = entry.to_snap
            else:
                raise CorruptPageError(f"unknown Maplog record kind {kind}")
        return maplog, cap
