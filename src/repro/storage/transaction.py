"""Transactions and their private page workspaces.

A transaction buffers every page it writes in a private overlay; nothing
touches shared state until commit.  The overlay doubles as the
:class:`~repro.storage.btree.MutablePageSource` handed to B+trees, so the
same tree code serves read-only queries (straight through the buffer
pool / MVCC) and updates (through the overlay).

Commit and rollback are driven by the :class:`~repro.storage.engine.
StorageEngine`; this module only manages per-transaction state.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Set

from repro.errors import TransactionError
from repro.storage.btree import MutablePageSource
from repro.storage.page import Page


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One transaction: id, begin timestamp, page overlay, bookkeeping."""

    def __init__(self, txn_id: int, begin_ts: int,
                 first_new_page_id: int) -> None:
        self.txn_id = txn_id
        self.begin_ts = begin_ts
        #: page ids >= this existed only after the txn began (no pre-state)
        self.first_new_page_id = first_new_page_id
        self.state = TxnState.ACTIVE
        self.overlay: Dict[int, Page] = {}
        self.dirty: Set[int] = set()
        self.allocated: List[int] = []
        self.freed: List[int] = []
        #: set by the engine when COMMIT WITH SNAPSHOT is requested
        self.declare_snapshot = False

    def is_active(self) -> bool:
        return self.state == TxnState.ACTIVE

    def ensure_active(self) -> None:
        if self.state != TxnState.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.state.value}"
            )

    def wrote_nothing(self) -> bool:
        """True while committing would change no page and free none."""
        return not self.dirty and not self.freed

    def modified_pages(self) -> Dict[int, Page]:
        """Every dirty page of the overlay, by id (the commit payload:
        these objects become the published versions)."""
        return {pid: self.overlay[pid] for pid in sorted(self.dirty)}


class TransactionPageSource(MutablePageSource):
    """The overlay-backed page source a transaction hands to B+trees.

    Reads fall through to the committed state (zero copy); writes are
    isolated in the overlay via :meth:`make_writable`.
    """

    def __init__(self, txn: Transaction,
                 read_committed: Callable[[int], Page],
                 allocate_id: Callable[[], int],
                 page_size: int) -> None:
        self._txn = txn
        self._read_committed = read_committed
        self._allocate_id = allocate_id
        self._page_size = page_size

    # -- reads -----------------------------------------------------------

    def fetch(self, page_id: int) -> Page:
        page = self._txn.overlay.get(page_id)
        if page is not None:
            return page
        return self._read_committed(page_id)

    # -- writes ----------------------------------------------------------

    def make_writable(self, page: Page) -> Page:
        self._txn.ensure_active()
        existing = self._txn.overlay.get(page.page_id)
        if existing is not None:
            return existing
        private = page.private_copy()
        self._txn.overlay[page.page_id] = private
        return private

    def mark_dirty(self, page: Page) -> None:
        self._txn.ensure_active()
        if page.page_id not in self._txn.overlay:
            raise TransactionError(
                f"page {page.page_id} dirtied outside the overlay"
            )
        page.dirty = True
        self._txn.dirty.add(page.page_id)

    def allocate_page(self) -> Page:
        self._txn.ensure_active()
        page_id = self._allocate_id()
        page = Page(page_id, page_size=self._page_size)
        self._txn.overlay[page_id] = page
        self._txn.allocated.append(page_id)
        self._txn.dirty.add(page_id)
        page.dirty = True
        return page

    def free_page(self, page_id: int) -> None:
        self._txn.ensure_active()
        self._txn.overlay.pop(page_id, None)
        self._txn.dirty.discard(page_id)
        if page_id in self._txn.allocated:
            # Allocated and freed within this txn: hand the id back later
            # at commit; net effect is nil.
            self._txn.allocated.remove(page_id)
        self._txn.freed.append(page_id)


class ReadOnlyPageSource(MutablePageSource):
    """Zero-copy read path for queries outside any write transaction.

    ``read_page`` resolves through MVCC for a fixed ``begin_ts`` so a
    long-running query sees a stable logical state.
    """

    def __init__(self, read_page: Callable[[int], Page]) -> None:
        self._read_page = read_page

    def fetch(self, page_id: int) -> Page:
        return self._read_page(page_id)
