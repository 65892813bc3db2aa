"""The Retro snapshot manager.

Ties together COW pre-state capture, the Pagelog, the Maplog/Skippy index,
and snapshot readers.  The storage engine interposes this manager on its
commit, flush, fetch and recovery paths, mirroring how Retro extends the
Berkeley DB storage manager (paper Section 4):

* **commit** — :meth:`capture_if_needed` archives the pre-state of every
  page modified for the first time since the last snapshot declaration;
* **flush** — :meth:`on_flush` drains pending pre-states to the Pagelog
  before the database overwrites current pages;
* **fetch** — :meth:`snapshot_source` returns a page source that resolves
  reads through SPT -> snapshot cache -> Pagelog, falling back to the
  current database for shared pages;
* **recovery** — :meth:`recover` rebuilds epoch + capture state from the
  durable Maplog so WAL replay can re-capture lost pre-states.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import (
    CorruptPageError,
    SnapshotError,
    SnapshotUnavailableError,
    UnknownSnapshotError,
)
from repro.retro.maplog import MapEntry, Maplog, SptBuildResult
from repro.retro.metrics import MetricsSink
from repro.retro.pagelog import Pagelog
from repro.retro.snapshot_cache import SnapshotPageCache
from repro.storage import checksums
from repro.storage.btree import MutablePageSource
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page

PAGELOG_FILE = "pagelog"
MAPLOG_FILE = "maplog"

#: Default snapshot cache size: large enough to hold the pages one RQL
#: query requests, per the paper's experimental assumption (Section 5).
DEFAULT_CACHE_PAGES = 65536

#: Distinct snapshot SPTs retained per manager when ``incremental_spt``
#: is on.  Concurrent runs (server sessions) iterate their own snapshot
#: ranges, so each needs its own chain of predecessors to advance from;
#: one stripe per recent snapshot keeps every run on the cheap
#: diff-proportional path.
SPT_CACHE_SLOTS = 16


class RetroManager:
    """COW capture + snapshot query machinery for one database."""

    def __init__(self, disk: SimulatedDisk,
                 cache_pages: int = DEFAULT_CACHE_PAGES,
                 share_cache_by_slot: bool = True) -> None:
        self.pagelog = Pagelog(disk.open_file(PAGELOG_FILE, append_only=True))
        self.maplog = Maplog(disk.open_file(MAPLOG_FILE, append_only=True))
        self.cache = SnapshotPageCache(cache_pages)
        #: page_id -> last epoch whose pre-state has been captured
        self._cap: Dict[int, int] = {}
        #: ablation switch: False keys the cache by (snapshot, page),
        #: destroying cross-snapshot sharing (see DESIGN.md §7).
        self.share_cache_by_slot = share_cache_by_slot
        #: opt-in future-work optimization (paper Section 7): derive the
        #: SPT of snapshot S+1 incrementally from S's instead of a fresh
        #: Skippy scan.  Cost becomes proportional to diff(S, S+1).
        self.incremental_spt = False
        # Striped SPT cache: snapshot id -> (result, maplog version),
        # LRU-bounded to SPT_CACHE_SLOTS.  None means empty (benchmarks
        # assign None directly to invalidate).  Guarded by a leaf-level
        # latch; cached SptBuildResults are immutable once published.
        self._spt_latch = threading.RLock()
        self._spt_cache: Optional[
            "OrderedDict[int, Tuple[SptBuildResult, int]]"] = None
        # Snapshots whose pre-states were lost to corruption.  Queries
        # against them raise SnapshotUnavailableError instead of serving
        # wrong bytes (the truncate-don't-guess rule at the query layer).
        self._unavailable: Set[int] = set()
        #: all snapshot ids <= this are unavailable (degraded recovery)
        self.unavailable_through = 0

    # -- snapshot declaration ------------------------------------------------

    @property
    def latest_snapshot_id(self) -> int:
        return self.maplog.current_epoch

    def declare_snapshot(self) -> int:
        """Declare a snapshot of the committed state; returns its id."""
        return self.maplog.declare_snapshot()

    # -- COW capture (commit interposition) ---------------------------------------

    def capture_if_needed(self, page_id: int,
                          read_pre_state: Callable[[], bytes],
                          epoch: Optional[int] = None) -> bool:
        """Archive ``page_id``'s pre-state if this is its first
        modification since the latest snapshot declaration.

        Returns True when a pre-state was captured.  ``read_pre_state`` is
        only invoked when needed (it reads the committed image).

        ``epoch`` overrides the capture epoch during WAL replay, where
        the durable Maplog can run *ahead* of the replay position (a
        crash mid-checkpoint flushes mappings before the meta advances):
        the replayed transaction must capture at the epoch in effect at
        its original commit, not at the recovered log's epoch.
        """
        if epoch is None:
            epoch = self.maplog.current_epoch
        if epoch == 0:
            return False
        last = self._cap.get(page_id, 0)
        if last >= epoch:
            return False
        if epoch < self.maplog.current_epoch:
            # A mapping needed for an epoch below the durable tip is
            # missing.  The log's write-ordering makes that impossible
            # under pure power loss (any mapping precedes the later
            # declare in the log, so it is durable whenever the declare
            # is); only media corruption gets here.  Archiving the
            # current image would serve wrong bytes to snapshots
            # [last+1, epoch] — mark them unavailable instead.
            self.mark_unavailable(last + 1, epoch)
            return False
        image = read_pre_state()
        slot = self.pagelog.append(image)
        self.maplog.record(MapEntry(
            page_id=page_id, from_snap=last + 1, to_snap=epoch, slot=slot,
            crc=checksums.page_crc(image),
        ))
        self._cap[page_id] = epoch
        return True

    def captured_epoch(self, page_id: int) -> int:
        """Last epoch for which ``page_id``'s pre-state exists (0 = none)."""
        return self._cap.get(page_id, 0)

    # -- flush interposition --------------------------------------------------------

    def on_flush(self) -> None:
        """Drain pending pre-states + mappings to disk (checkpoint path)."""
        self.pagelog.flush()
        self.maplog.flush()

    # -- snapshot reads ---------------------------------------------------------

    def build_spt(self, snapshot_id: int,
                  metrics: Optional[MetricsSink] = None) -> SptBuildResult:
        """The snapshot's page table; the build is charged to ``metrics``,
        the sink of the statement it is built for."""
        clock = metrics.clock if metrics is not None else time.perf_counter
        start = clock()
        result = self._build_spt_cached(snapshot_id)
        if metrics is not None:
            current = metrics.current
            current.spt_entries_scanned += result.entries_scanned
            current.spt_build_seconds += clock() - start
        return result

    def _build_spt_cached(self, snapshot_id: int) -> SptBuildResult:
        if not self.incremental_spt:
            return self.maplog.build_spt(snapshot_id)
        version = self.maplog.entries_recorded
        with self._spt_latch:
            cache = self._spt_cache
            if cache is None:
                cache = self._spt_cache = OrderedDict()
            hit = cache.get(snapshot_id)
            if hit is not None and hit[1] == version:
                cache.move_to_end(snapshot_id)
                return hit[0]
            # Advance from the nearest cached predecessor: cost becomes
            # proportional to diff(predecessor, snapshot), so each run
            # pays one full build at most.
            best_sid: Optional[int] = None
            best_result: Optional[SptBuildResult] = None
            for sid, (res, ver) in cache.items():
                if ver == version and sid < snapshot_id and (
                        best_sid is None or sid > best_sid):
                    best_sid, best_result = sid, res
            if best_sid is not None and best_result is not None:
                result = self.maplog.advance_spt(
                    best_result, best_sid, snapshot_id,
                )
            else:
                result = self.maplog.build_spt(snapshot_id)
            cache[snapshot_id] = (result, version)
            cache.move_to_end(snapshot_id)
            while len(cache) > SPT_CACHE_SLOTS:
                cache.popitem(last=False)
            return result

    def snapshot_source(self, snapshot_id: int,
                        read_current: Callable[[int], Page],
                        page_size: int,
                        metrics: Optional[MetricsSink] = None,
                        ) -> "SnapshotPageSource":
        """Page source serving reads as of ``snapshot_id``.

        ``read_current`` returns the committed current-state page; it is
        used for pages the snapshot shares with the database.  The SPT
        build and every fetch through the source are charged to
        ``metrics``, which lives exactly as long as the source does: the
        manager is shared by every session and keeps no sink of its own.
        """
        if snapshot_id < 1 or snapshot_id > self.latest_snapshot_id:
            raise UnknownSnapshotError(
                f"snapshot {snapshot_id} has not been declared"
            )
        if not self.snapshot_available(snapshot_id):
            raise SnapshotUnavailableError(
                f"snapshot {snapshot_id}'s pre-states were lost to "
                f"storage corruption"
            )
        result = self.build_spt(snapshot_id, metrics=metrics)
        return SnapshotPageSource(self, snapshot_id, result.entries,
                                  read_current, page_size, metrics=metrics)

    def diff_size(self, older: int, newer: int) -> int:
        """Pages not shared between two snapshots (paper's diff(S1,S2))."""
        return self.maplog.diff_size(older, newer)

    def diff_pages(self, older: int, newer: int) -> Set[int]:
        """Page ids modified between two snapshots' declarations."""
        return self.maplog.diff_pages(older, newer)

    # -- snapshot availability ------------------------------------------------------

    def mark_unavailable(self, from_snap: int, to_snap: int) -> None:
        """Declare snapshots in ``[from_snap, to_snap]`` unservable."""
        for sid in range(max(1, from_snap), to_snap + 1):
            self._unavailable.add(sid)

    def snapshot_available(self, snapshot_id: int) -> bool:
        return (snapshot_id > self.unavailable_through
                and snapshot_id not in self._unavailable)

    def unavailable_snapshots(self) -> List[int]:
        """Declared snapshot ids that cannot be served (for reports)."""
        sids = set(self._unavailable)
        sids.update(range(1, self.unavailable_through + 1))
        return sorted(s for s in sids if 1 <= s <= self.latest_snapshot_id)

    def scrub(self) -> List[MapEntry]:
        """Verify every archived pre-state against its recorded CRC.

        Mappings whose image fails (or whose Pagelog slot is missing) are
        returned and their snapshot ranges marked unavailable.  Intended
        for post-recovery integrity sweeps (CLI ``.chaos scrub``).
        """
        bad: List[MapEntry] = []
        total = self.pagelog.total_slots
        for entry in self.maplog.iter_entries():
            if entry.slot >= total:
                ok = False
            elif entry.crc and checksums.verification_enabled():
                ok = checksums.page_crc(
                    self.pagelog.read(entry.slot)) == entry.crc
            else:
                ok = True
            if not ok:
                bad.append(entry)
                self.mark_unavailable(entry.from_snap, entry.to_snap)
        return bad

    # -- recovery interposition ----------------------------------------------------

    def recover(self, disk: SimulatedDisk, expected_records: int = 0,
                checkpoint_epoch: int = 0) -> None:
        """Rebuild epoch + capture state from the durable Maplog.

        ``expected_records``/``checkpoint_epoch`` come from the pager
        roots written by the last checkpoint.  If the recovered Maplog
        holds fewer records than the checkpoint had made durable, the
        loss is *not* replayable from the WAL (replay starts at the
        checkpoint): every snapshot up to the checkpoint epoch is marked
        unavailable and the epoch counter realigned so WAL replay
        re-declares later snapshots under their original ids.  Tail loss
        at or past the checkpoint needs no degradation — replay
        re-captures it.
        """
        maplog, cap = Maplog.recover(disk.open_file(MAPLOG_FILE,
                                                    append_only=True))
        self.maplog = maplog
        self._cap = cap
        self._unavailable = set()
        self.unavailable_through = 0
        with self._spt_latch:
            self._spt_cache = None
        if maplog.records_written < expected_records:
            target = max(checkpoint_epoch, maplog.current_epoch)
            self.unavailable_through = target
            maplog.force_epoch(target)
        durable = self.pagelog.durable_slots
        for entry in maplog.iter_entries():
            if entry.slot >= durable:
                # The Pagelog lost the referenced pre-state (truncated
                # below a durable mapping): unservable, not replayable.
                self.mark_unavailable(entry.from_snap, entry.to_snap)


class SnapshotPageSource(MutablePageSource):
    """Resolves page fetches as of one snapshot.

    Fetch order mirrors the paper: SPT lookup -> snapshot page cache ->
    Pagelog read (archived pre-state), or the current database for pages
    the snapshot still shares with it.  Every outcome is metered.  The
    SPT is the build's own ``entries`` dict: each mapping carries the
    Pagelog slot to read and the CRC to verify it against.
    """

    def __init__(self, manager: RetroManager, snapshot_id: int,
                 entries: Dict[int, MapEntry],
                 read_current: Callable[[int], bytes],
                 page_size: int,
                 metrics: Optional[MetricsSink] = None) -> None:
        self._manager = manager
        self.snapshot_id = snapshot_id
        self.entries = entries
        self._read_current = read_current
        self._page_size = page_size
        self._sink = metrics

    def fetch(self, page_id: int) -> Page:
        entry = self.entries.get(page_id)
        # Read per fetch: a cursor is consumed lazily, inside whatever
        # iteration its consumer has begun on the sink by then.
        sink = self._sink
        metrics = sink.current if sink is not None else None
        if entry is None:
            # Shared with the current database: a memory-resident read.
            if metrics is not None:
                metrics.db_reads += 1
            return self._read_current(page_id)
        manager = self._manager
        if manager.share_cache_by_slot:
            key = entry.slot
        else:
            key = (self.snapshot_id, page_id)
        # A miss marks the key in flight: a session missing the same
        # slot meanwhile waits for this read and counts a cache hit.
        page, hit = manager.cache.get_or_load(key, self._load, entry)
        if metrics is not None:
            if hit:
                metrics.cache_hits += 1
            else:
                metrics.pagelog_reads += 1
        return page

    def _load(self, entry: MapEntry) -> Page:
        """Read and verify one archived pre-state."""
        image = self._manager.pagelog.read(entry.slot)
        if (entry.crc and checksums.verification_enabled()
                and checksums.page_crc(image) != entry.crc):
            # Bit rot in the archive.  Mark the whole validity range
            # unavailable so later queries fail fast, and raise rather
            # than serve bytes known to be wrong.
            self._manager.mark_unavailable(entry.from_snap, entry.to_snap)
            raise CorruptPageError(
                f"snapshot {self.snapshot_id}: archived pre-state of "
                f"page {entry.page_id} (Pagelog slot {entry.slot}) failed "
                f"its checksum"
            )
        # Cache the Page object itself: snapshot pages are immutable, and
        # the object carries its decoded node — parsed keys and values
        # and, once a scan has filled them, the leaf's decoded rows.
        # Every snapshot whose SPT maps a page to this Pagelog slot gets
        # this object, so the page sharing the paper measures as saved
        # I/O also saves the CPU of decoding a shared page again; the
        # decoded rows are evicted, and cleared, with the page.
        return Page(entry.page_id, bytearray(image), self._page_size)

    # Mutations are structurally impossible on a snapshot.

    def allocate_page(self) -> Page:
        raise SnapshotError("snapshots are immutable")

    def free_page(self, page_id: int) -> None:
        raise SnapshotError("snapshots are immutable")

    def mark_dirty(self, page: Page) -> None:
        raise SnapshotError("snapshots are immutable")

    def make_writable(self, page: Page) -> Page:
        raise SnapshotError("snapshots are immutable")
