"""LRU buffer pool over the database file.

The pool caches :class:`~repro.storage.page.Page` objects for the current
database.  Two interposition points matter to the Retro snapshot system
(Section 4 of the paper):

* ``on_flush`` fires before dirty pages are written back, which is where
  Retro drains its accumulated pre-states to the Pagelog;
* page *fetches* for snapshot queries do **not** come through this pool at
  all — the snapshot manager redirects them to the snapshot page cache —
  so this pool only ever holds current-state pages, mirroring the paper's
  "database is memory resident" assumption when capacity is large enough.

Latching: the page table is guarded by a per-pool reentrant latch.  The
global latch order is ``Pager._latch -> BufferPool._latch`` (RPL011
checks it): the pool never calls back into the pager while holding its
own latch.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Iterable, List, Optional

from repro.errors import BufferPoolError
from repro.storage.disk import DiskFile
from repro.storage.page import Page


class BufferPoolStats:
    """Hit/miss/eviction counters for one pool."""

    __slots__ = ("hits", "misses", "evictions", "writebacks")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BufferPool:
    """Fixed-capacity LRU cache of database pages.

    Nobody pins a page: a reader keeps what it fetched valid by holding
    the reference, and eviction only drops the pool's own (DESIGN.md,
    "What keeps a fetched page alive").  Dirty pages are written back to
    ``db_file`` on eviction and on :meth:`flush_all` (checkpoint).
    """

    def __init__(self, db_file: DiskFile, capacity: int = 1024,
                 on_flush: Optional[Callable[[], None]] = None) -> None:
        if capacity < 1:
            raise BufferPoolError("buffer pool capacity must be >= 1")
        self._file = db_file
        self._capacity = capacity
        self._pages: "OrderedDict[int, Page]" = OrderedDict()
        self._on_flush = on_flush
        self._latch = threading.RLock()
        self.stats = BufferPoolStats()

    # -- configuration ------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    def set_flush_hook(self, hook: Optional[Callable[[], None]]) -> None:
        self._on_flush = hook

    # -- page access --------------------------------------------------------

    def fetch(self, page_id: int) -> Page:
        """Return the page, reading from disk on a miss."""
        with self._latch:
            page = self._pages.get(page_id)
            if page is not None:
                self.stats.hits += 1
                self._pages.move_to_end(page_id)
            else:
                self.stats.misses += 1
                raw = self._file.read(page_id)
                page = Page(page_id, bytearray(raw), self._file.page_size)
                self._admit(page)
            return page

    def install(self, page: Page) -> None:
        """Publish ``page`` as the committed version of its id (commit
        and recovery): the pool holds that very object, dirty, and a
        reader holding the one it replaced keeps its bytes and node."""
        page.dirty = True
        with self._latch:
            self._pages.pop(page.page_id, None)
            self._admit(page)

    def resident(self, page_id: int) -> bool:
        with self._latch:
            return page_id in self._pages

    def resident_ids(self) -> List[int]:
        with self._latch:
            return list(self._pages)

    # -- eviction / flushing --------------------------------------------------

    def _admit(self, page: Page) -> None:
        while len(self._pages) >= self._capacity:
            self._evict_one()
        self._pages[page.page_id] = page

    def _evict_one(self) -> None:
        page_id, page = next(iter(self._pages.items()))
        if page.dirty:
            if self._on_flush is not None:
                # Same ordering rule as flush_all: Retro's pending
                # pre-states must reach the Pagelog before the
                # current-state page overwrites the db file, or a
                # post-crash re-capture would read the new bytes.
                self._on_flush()
            self._writeback(page)
        del self._pages[page_id]
        self.stats.evictions += 1

    def _writeback(self, page: Page) -> None:
        self._file.write(page.page_id, bytes(page.data))
        page.dirty = False
        self.stats.writebacks += 1

    def flush_all(self) -> None:
        """Checkpoint: write every dirty page back to the database file.

        Fires the ``on_flush`` hook first so Retro can drain pre-states to
        the Pagelog before the corresponding current-state pages go out.
        """
        with self._latch:
            if self._on_flush is not None:
                self._on_flush()
            for page in self._pages.values():
                if page.dirty:
                    self._writeback(page)

    def drop_all(self) -> None:
        """Discard the pool without writing back (crash simulation)."""
        with self._latch:
            self._pages.clear()

    def dirty_pages(self) -> Iterable[Page]:
        with self._latch:
            return [p for p in self._pages.values() if p.dirty]
