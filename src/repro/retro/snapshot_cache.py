"""Snapshot page cache.

Snapshot pages are cached **by Pagelog slot**, not by (snapshot, page).
Because consecutive snapshots share pre-states — a page unmodified between
S1 and S2 occupies a single Pagelog slot serving both — a query iterating
over S1 then S2 hits the cache for every shared page.  This keying is what
turns the paper's ``shared(S1, S2)`` into cache hits and ``diff(S1, S2)``
into Pagelog I/O (Section 4).

An alternative keying by ``(snapshot_id, page_id)`` is provided for the
ablation bench: it deliberately destroys cross-snapshot sharing, isolating
how much of RQL's hot-iteration speedup comes from COW slot identity.

Latching: the entry table and its counters are guarded by a leaf-level
reentrant latch — the sessions of a server share one cache, and the
latch never wraps a call into any other latched component, keeping the
global latch order (RPL011) acyclic.  :meth:`SnapshotPageCache.get_or_load`
therefore loads outside the latch, and marks the key in flight meanwhile
so a concurrent miss on it waits for that one load instead of repeating
it: sessions reading the same Pagelog slot read it once between them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, Set, Tuple, TypeVar

from repro.errors import SnapshotError
from repro.storage.page import Page

A = TypeVar("A")


class SnapshotPageCache:
    """LRU cache of snapshot pages keyed by an arbitrary identity."""

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages < 0:
            raise SnapshotError("cache capacity must be >= 0")
        self.capacity = capacity_pages
        self._entries: "OrderedDict[Hashable, Page]" = OrderedDict()
        self._latch = threading.RLock()
        #: keys being loaded; a load's end is announced on ``_landed``
        self._in_flight: Set[Hashable] = set()
        self._landed = threading.Condition(self._latch)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_load(self, key: Hashable, load: Callable[[A], Page],
                    arg: A) -> Tuple[Page, bool]:
        """``(value, hit)``: the value cached under ``key``, or
        ``load(arg)`` cached under it on a miss.

        Single flight: while one reader loads a key, a reader missing
        the same key waits for that load (on the latch's condition, so
        the latch is free meanwhile) and then counts a hit.  If the load
        raises, its reader gets the error and each waiter looks up
        again and loads itself, so a load that always fails (a checksum
        mismatch) raises in every thread that asks.
        """
        with self._latch:
            while True:
                value = self._entries.get(key)
                if value is not None:
                    self.hits += 1
                    self._entries.move_to_end(key)
                    return value, True
                if key not in self._in_flight:
                    break
                self._landed.wait()
            self.misses += 1
            self._in_flight.add(key)
        value = None
        try:
            value = load(arg)
        finally:
            with self._latch:
                self._in_flight.discard(key)
                if value is not None:
                    self._store(key, value)
                self._landed.notify_all()
        return value, False

    def _store(self, key: Hashable, page: Page) -> None:
        # Only a key's one loader stores it, and only after a miss, so
        # the key is never already present here.
        if self.capacity == 0:
            return
        while len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = page

    def clear(self) -> None:
        """Empty the cache (used to model 'snapshot not accessed recently')."""
        with self._latch:
            self._entries.clear()

    def reset_stats(self) -> None:
        with self._latch:
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __len__(self) -> int:
        with self._latch:
            return len(self._entries)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
