"""The transactional storage engine (the paper's Berkeley DB substrate).

:class:`StorageEngine` coordinates the pager/buffer pool, the write-ahead
log, page-level MVCC, and the Retro snapshot manager.  It exposes exactly
the interposition points Retro needs (paper Section 4): transaction
commit, page flush, page fetch, and recovery.

Concurrency model: a single writer at a time (as in BDB SQLite) with any
number of concurrent read-only transactions served by MVCC version
chains.  Snapshot queries run as read-only MVCC transactions so they
never block, and are never blocked by, updates.

Durability model: WAL at commit; checkpoints drain Retro pre-states to
the Pagelog, flush dirty pages, persist the meta page, and advance the
WAL replay start.  A crash is simulated by discarding the engine while
keeping its :class:`~repro.storage.disk.SimulatedDisk`; reopening the
disk runs recovery.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import CorruptPageError, StorageError, TransactionError
from repro.storage.disk import SimulatedDisk
from repro.storage.logfile import LogScanStatus
from repro.storage.mvcc import VersionStore
from repro.storage.page import DEFAULT_PAGE_SIZE, Page
from repro.storage.pager import Pager
from repro.storage.transaction import (
    ReadOnlyPageSource,
    Transaction,
    TransactionPageSource,
    TxnState,
)
from repro.storage.wal import WriteAheadLog

DB_FILE = "database"
WAL_FILE = "wal"
META_FILE = "meta"
_WAL_START_ROOT = "__wal_start"
_LAST_TS_ROOT = "__last_ts"
_MAPLOG_RECORDS_ROOT = "__maplog_records"
_SNAP_EPOCH_ROOT = "__snap_epoch"


@dataclass
class RecoveryReport:
    """What recovery found and what (if anything) it had to give up."""

    replayed_txns: int = 0
    wal_status: Optional[LogScanStatus] = None
    maplog_status: Optional[LogScanStatus] = None
    unavailable_snapshots: List[int] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when any torn tail was truncated or snapshots were lost."""
        return bool(self.unavailable_snapshots) or any(
            s is not None and s.torn
            for s in (self.wal_status, self.maplog_status)
        )


class ReadContext:
    """A registered MVCC reader: stable view at ``begin_ts`` until closed.

    ``owner`` is an opaque token (a session or database facade) used by
    the multi-session server to find and reap contexts a disconnected
    client left open.  ``close`` is idempotent.
    """

    def __init__(self, engine: "StorageEngine", begin_ts: int,
                 reader_id: int, owner: Optional[object] = None) -> None:
        self._engine = engine
        self.begin_ts = begin_ts
        self._reader_id = reader_id
        self.owner = owner
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # The registry pop is the atomic claim: concurrent closes (a
        # session closing while the registry reaps it) deregister once.
        if self._engine._forget_context(self._reader_id):
            self._engine._versions.deregister_reader(self._reader_id)

    def __enter__(self) -> "ReadContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class StorageEngine:
    """Transactional page store with integrated Retro snapshots."""

    def __init__(self, disk: Optional[SimulatedDisk] = None,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 pool_capacity: int = 1 << 20,
                 snapshot_cache_pages: Optional[int] = None) -> None:
        self.disk = disk or SimulatedDisk(page_size)
        if self.disk.page_size != page_size and disk is not None:
            page_size = self.disk.page_size
        self.page_size = page_size
        existing = self.disk.exists(DB_FILE)
        db_file = self.disk.open_file(DB_FILE)
        meta_file = self.disk.open_file(META_FILE)
        wal_file = self.disk.open_file(WAL_FILE, append_only=True)
        if len(meta_file) == 0 and len(wal_file) > 0:
            # A non-empty WAL implies at least one checkpointed meta
            # write preceded it, so an empty meta file can only be
            # media-level truncation — refuse rather than silently
            # reinitializing over a store with acknowledged commits.
            raise CorruptPageError(
                "meta file is empty but the WAL is not: meta was lost "
                "to media truncation"
            )
        try:
            self.pager = Pager(db_file, pool_capacity, meta_file=meta_file)
        except CorruptPageError:
            if len(wal_file) == 0:
                # No valid meta copy, but also no WAL: no commit was
                # ever acknowledged (commits hit the WAL before
                # returning), so this is a torn bootstrap write — wipe
                # and reinitialize rather than refuse to open.
                meta_file.truncate(0)
                db_file.truncate(0)
                self.pager = Pager(db_file, pool_capacity,
                                   meta_file=meta_file)
                existing = False
            else:
                raise
        self.wal = WriteAheadLog(wal_file)
        # Imported here (not at module level) to break the package
        # cycle storage/__init__ -> engine -> retro.manager -> maplog
        # -> storage.disk -> storage/__init__.
        from repro.retro.manager import RetroManager

        cache_pages = snapshot_cache_pages
        if cache_pages is None:
            self.retro = RetroManager(self.disk)
        else:
            self.retro = RetroManager(self.disk, cache_pages=cache_pages)
        # Eviction-time flush hook: pre-states drain to the Pagelog
        # before an evicted dirty page overwrites the db file (the same
        # ordering flush_all enforces at checkpoints).
        self.pager.pool.set_flush_hook(self.retro.on_flush)
        self._versions = VersionStore()
        # Serializes reader registration against the commit's
        # retain/install/timestamp-bump window: without it a reader
        # registering mid-commit could read a page installed at a
        # timestamp later than its own begin_ts (the version chain never
        # retained the image it needed).  Latch order:
        # StorageEngine._commit_latch -> {VersionStore._latch,
        # Pager._latch -> BufferPool._latch}.
        self._commit_latch = threading.RLock()
        # reader_id -> open ReadContext; the multi-session server reaps
        # contexts a crashed or disconnected client never closed.
        self._contexts: Dict[int, ReadContext] = {}
        self._next_txn_id = 1
        self._last_commit_ts = 0
        self._active_writer: Optional[Transaction] = None
        #: report of the last crash recovery (None on a clean open)
        self.last_recovery: Optional[RecoveryReport] = None
        if existing:
            self._recover()
        else:
            # Bootstrap checkpoint of a fresh database.
            self.checkpoint()

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def begin(self) -> Transaction:
        """Start a write transaction (single writer at a time).

        Concurrent sessions serialize *blocking* on the server's write
        gate before reaching here; this check is the non-blocking
        backstop that keeps the single-writer invariant explicit.
        """
        with self._commit_latch:
            if self._active_writer is not None \
                    and self._active_writer.is_active():
                raise TransactionError("another write transaction is active")
            txn = Transaction(
                txn_id=self._next_txn_id,
                begin_ts=self._last_commit_ts,
                first_new_page_id=self.pager.next_page_id,
            )
            self._next_txn_id += 1
            self._active_writer = txn
            return txn

    def page_source(self, txn: Transaction) -> TransactionPageSource:
        """The overlay-backed page source for ``txn``."""
        txn.ensure_active()
        return TransactionPageSource(
            txn,
            read_committed=self._fetch_committed,
            allocate_id=self.pager.allocate,
            page_size=self.page_size,
        )

    def commit(self, txn: Transaction,
               declare_snapshot: bool = False) -> Optional[int]:
        """Commit; returns the declared snapshot id if one was requested.

        Commit order (the Retro interposition point):
        1. COW-capture pre-states of pages first-modified since the last
           snapshot declaration;
        2. append after-images + commit seal to the WAL (durability);
        3. retain the replaced pages for active readers, install the
           transaction's own pages (with the nodes it encoded) as the
           new versions;
        4. declare the snapshot (it reflects this transaction's updates).
        """
        txn.ensure_active()
        commit_ts = self._last_commit_ts + 1
        pages = txn.modified_pages()
        snapshot_id = (self.retro.latest_snapshot_id + 1
                       if declare_snapshot else 0)

        for page_id in pages:
            if page_id < txn.first_new_page_id:
                self.retro.capture_if_needed(
                    page_id,
                    lambda pid=page_id: self._committed_page(pid).data,
                )
        for page_id in txn.freed:
            # Freed pages may be reallocated and overwritten later; their
            # pre-state must survive for older snapshots.
            if page_id < txn.first_new_page_id:
                self.retro.capture_if_needed(
                    page_id,
                    lambda pid=page_id: self._committed_page(pid).data,
                )

        self.wal.log_commit(
            txn_id=txn.txn_id,
            commit_ts=commit_ts,
            pages={pid: page.data for pid, page in pages.items()},
            freed=list(txn.freed),
            declared_snapshot=declare_snapshot,
            snapshot_id=snapshot_id,
            next_page_id=self.pager.next_page_id,
        )

        # Retain/install/bump is atomic with respect to reader
        # registration (begin_read takes the same latch): a reader can
        # never slot in between the retention decision and the install,
        # which would hand it a page newer than its begin_ts.
        with self._commit_latch:
            retain_needed = self._versions.active_reader_count > 0
            for page_id, page in pages.items():
                if retain_needed and page_id < txn.first_new_page_id:
                    self._versions.retain(self._committed_page(page_id),
                                          commit_ts)
                self.pager.install(page)
            for page_id in txn.freed:
                self.pager.free(page_id)

            self._last_commit_ts = commit_ts
            txn.state = TxnState.COMMITTED
            self._active_writer = None

        if declare_snapshot:
            declared = self.retro.declare_snapshot()
            if declared != snapshot_id:
                raise StorageError("snapshot id drifted from WAL record")
            return declared
        return None

    def rollback(self, txn: Transaction) -> None:
        """Discard the transaction's overlay; fresh page ids are leaked
        (never reused) so pre-state capture can assume every reusable id
        has committed content."""
        txn.ensure_active()
        with self._commit_latch:
            txn.state = TxnState.ABORTED
            txn.overlay.clear()
            txn.dirty.clear()
            self._active_writer = None

    # ------------------------------------------------------------------
    # Read paths
    # ------------------------------------------------------------------

    def begin_read(self, owner: Optional[object] = None) -> ReadContext:
        """Register an MVCC reader at the current committed timestamp.

        The timestamp read and the registration are atomic with respect
        to commits (same latch as the commit's retain/install window).
        ``owner`` tags the context so a per-session facade can later
        find and release everything it left open.
        """
        with self._commit_latch:
            begin_ts = self._last_commit_ts
            reader_id = self._versions.register_reader(begin_ts,
                                                       owner=owner)
            try:
                context = ReadContext(self, begin_ts, reader_id,
                                      owner=owner)
                self._contexts[reader_id] = context
                return context
            except BaseException:
                # A registered reader pins version chains against
                # pruning; never leave it behind if the handle can't
                # reach the caller.
                self._versions.deregister_reader(reader_id)
                raise

    def _forget_context(self, reader_id: int) -> bool:
        """Drop a context from the open-reader registry; True if present."""
        with self._commit_latch:
            return self._contexts.pop(reader_id, None) is not None

    def open_read_contexts(self,
                           owner: Optional[object] = None
                           ) -> List[ReadContext]:
        """Open contexts, optionally only those tagged with ``owner``."""
        with self._commit_latch:
            return [c for c in self._contexts.values()
                    if owner is None or c.owner is owner]

    def release_read_contexts(self, owner: Optional[object] = None) -> int:
        """Close leftover read contexts (all, or one owner's); returns
        how many were still open.  The reaping path for session close,
        crashed clients, and leak-detecting teardown."""
        leaked = self.open_read_contexts(owner)
        for context in leaked:
            context.close()
        return len(leaked)

    def read_source(self, context: ReadContext) -> ReadOnlyPageSource:
        """Page source with a stable view as of ``context.begin_ts``."""
        def read_page(page_id: int) -> Page:
            return self._mvcc_read(page_id, context.begin_ts)

        return ReadOnlyPageSource(read_page)

    def snapshot_source(self, snapshot_id: int, context: ReadContext,
                        metrics=None):
        """Page source serving reads as of a declared snapshot.

        Pages shared with the current database resolve through MVCC at
        the reader's ``begin_ts`` so concurrent updates never interfere.
        ``metrics`` (a :class:`~repro.retro.metrics.MetricsSink`) is
        charged for the SPT build and for every fetch through the source.
        """
        def read_current(page_id: int):
            return self._mvcc_read(page_id, context.begin_ts)

        return self.retro.snapshot_source(
            snapshot_id, read_current, self.page_size, metrics=metrics,
        )

    def _mvcc_read(self, page_id: int, begin_ts: int) -> Page:
        # Fetch, then look for a retained version.  A commit retains the
        # page it replaces before it installs its own, so a commit after
        # begin_ts that installed this page before the fetch is a hit
        # below; a miss means the fetched object is the version a reader
        # at begin_ts sees.
        page = self._fetch_committed(page_id)
        retained = self._versions.read(page_id, begin_ts)
        return page if retained is None else retained

    def _fetch_committed(self, page_id: int) -> Page:
        return self.pager.pool.fetch(page_id)

    def _committed_page(self, page_id: int) -> Page:
        """Latest committed version of a page: the pool's object if
        resident, else one built from disk (and not admitted)."""
        if self.pager.pool.resident(page_id):
            return self.pager.pool.fetch(page_id)
        return Page(page_id,
                    bytearray(self.pager.read_committed_from_disk(page_id)),
                    self.page_size)

    # ------------------------------------------------------------------
    # Checkpoint & recovery
    # ------------------------------------------------------------------

    def checkpoint(self) -> None:
        """Flush Retro pre-states, dirty pages, and the meta page.

        Treated as atomic by the simulation (a crash never lands mid-
        checkpoint); the WAL replay start only advances once everything
        the WAL covered is durable.
        """
        self.retro.on_flush()
        boundary = self.wal.sync_boundary()
        self.pager.set_root(_WAL_START_ROOT, boundary)
        self.pager.set_root(_LAST_TS_ROOT, self._last_commit_ts)
        # Durable Maplog extent at this checkpoint: recovery compares the
        # recovered log against these to tell replayable tail loss from
        # non-replayable corruption (see RetroManager.recover).
        self.pager.set_root(_MAPLOG_RECORDS_ROOT,
                            self.retro.maplog.records_written)
        self.pager.set_root(_SNAP_EPOCH_ROOT, self.retro.latest_snapshot_id)
        self.pager.checkpoint()

    def _recover(self) -> None:
        """Replay the WAL from the last checkpoint boundary.

        Retro's recovery interposition: pre-states that were pending in
        memory at the crash are re-captured from the (checkpointed)
        database file before replayed after-images overwrite them.
        """
        start_block = self.pager.get_root(_WAL_START_ROOT) or 0
        self._last_commit_ts = self.pager.get_root(_LAST_TS_ROOT) or 0
        self.retro.recover(
            self.disk,
            expected_records=self.pager.get_root(_MAPLOG_RECORDS_ROOT) or 0,
            checkpoint_epoch=self.pager.get_root(_SNAP_EPOCH_ROOT) or 0,
        )
        replayed = 0
        running_next = self.pager.next_page_id
        # Captures during replay must use the epoch in effect at each
        # transaction's ORIGINAL commit.  The recovered Maplog may
        # already be ahead of the replay position (a crash between a
        # checkpoint's Maplog flush and its meta write leaves durable
        # declares past the WAL boundary), so the epoch is tracked along
        # the replayed declare sequence, not read from the Maplog.
        replay_epoch = self.pager.get_root(_SNAP_EPOCH_ROOT) or 0
        for txn in self.wal.replay(start_block):
            for page_id in sorted(txn.pages):
                if page_id < running_next:
                    self.retro.capture_if_needed(
                        page_id,
                        lambda pid=page_id: self._committed_page(pid).data,
                        epoch=replay_epoch,
                    )
            for page_id in txn.freed:
                if page_id < running_next:
                    self.retro.capture_if_needed(
                        page_id,
                        lambda pid=page_id: self._committed_page(pid).data,
                        epoch=replay_epoch,
                    )
            for page_id, image in sorted(txn.pages.items()):
                self.pager.install(
                    Page(page_id, bytearray(image), self.page_size))
            for page_id in txn.freed:
                self.pager.free(page_id)
            running_next = max(running_next, txn.next_page_id)
            self._sync_next_page_id(running_next)
            if txn.declared_snapshot:
                if txn.snapshot_id <= self.retro.latest_snapshot_id:
                    # Declaration already durable in the recovered
                    # Maplog: replaying it again would double-declare.
                    pass
                else:
                    declared = self.retro.declare_snapshot()
                    if declared != txn.snapshot_id:
                        raise StorageError(
                            f"recovered snapshot id {declared} != WAL "
                            f"{txn.snapshot_id}"
                        )
                replay_epoch = txn.snapshot_id
            self._last_commit_ts = max(self._last_commit_ts, txn.commit_ts)
            self._next_txn_id = max(self._next_txn_id, txn.txn_id + 1)
            replayed += 1
        self.last_recovery = RecoveryReport(
            replayed_txns=replayed,
            wal_status=self.wal.last_scan_status,
            maplog_status=self.retro.maplog.recovery_status,
            unavailable_snapshots=self.retro.unavailable_snapshots(),
        )
        self.checkpoint()

    def _sync_next_page_id(self, next_page_id: int) -> None:
        state = self.pager.allocation_state()
        if int(state["next"]) < next_page_id:  # type: ignore[arg-type]
            state["next"] = next_page_id
            self.pager.restore_allocation_state(state)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def last_commit_ts(self) -> int:
        return self._last_commit_ts

    def database_pages(self) -> int:
        return self.pager.page_count

    def crash(self) -> SimulatedDisk:
        """Simulate power loss: drop all volatile state, return the disk.

        The engine object must not be used afterwards; reopen the disk
        with a fresh ``StorageEngine`` to run recovery.
        """
        self.pager.pool.drop_all()
        return self.disk
