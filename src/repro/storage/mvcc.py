"""Page-level multi-version concurrency control.

Retro runs snapshot queries as read-only MVCC transactions so they never
block, and are never blocked by, update transactions (paper Section 4).
This module provides the version retention that makes that possible:

* every transaction gets a ``begin_ts`` (the last commit timestamp);
* when a commit replaces a page that some active reader may still need,
  the replaced page object is retained in a version chain (a published
  page never changes, so it is kept as it is, node and all);
* readers resolve a page to the newest version with
  ``replaced_at > begin_ts`` (i.e. the version that was current when the
  reader began), falling back to the live page;
* chains are pruned as the oldest active reader advances.

Latching: reader registration and version chains are guarded by a
leaf-level reentrant latch so the sessions of a server can register,
read, and deregister concurrently with each other (and with commits
retaining versions).  The latch never wraps a call into another latched
component, keeping the global latch order (RPL011) acyclic.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import TransactionError
from repro.storage.page import Page


class VersionStore:
    """Retains superseded page versions for active readers."""

    def __init__(self) -> None:
        # page_id -> ascending list of (replaced_at_ts, page). An entry
        # means: `page` was the committed version for all timestamps in
        # [previous_replaced_at, replaced_at).
        self._chains: Dict[int, List[Tuple[int, Page]]] = {}
        self._active_readers: Dict[int, int] = {}  # reader id -> begin_ts
        # reader id -> opaque owner token (a session/database facade);
        # lets a multi-session server attribute and reap leaked readers.
        self._reader_owners: Dict[int, object] = {}
        self._next_reader_id = 1
        self._latch = threading.RLock()
        #: retained version count, exposed for tests/metrics
        self.retained_versions = 0

    # -- reader registration ------------------------------------------------

    def register_reader(self, begin_ts: int,
                        owner: Optional[object] = None) -> int:
        """Track an active reader; returns a handle for deregistering."""
        with self._latch:
            reader_id = self._next_reader_id
            self._next_reader_id += 1
            self._active_readers[reader_id] = begin_ts
            if owner is not None:
                self._reader_owners[reader_id] = owner
            return reader_id

    def deregister_reader(self, reader_id: int) -> None:
        with self._latch:
            if reader_id not in self._active_readers:
                raise TransactionError(f"unknown reader handle {reader_id}")
            del self._active_readers[reader_id]
            self._reader_owners.pop(reader_id, None)
            self.prune()

    def readers_for(self, owner: object) -> List[int]:
        """Active reader handles registered under ``owner``."""
        with self._latch:
            return [rid for rid, who in self._reader_owners.items()
                    if who is owner]

    def oldest_active_ts(self) -> Optional[int]:
        with self._latch:
            if not self._active_readers:
                return None
            return min(self._active_readers.values())

    @property
    def active_reader_count(self) -> int:
        return len(self._active_readers)

    # -- version retention ------------------------------------------------------

    def retain(self, page: Page, replaced_at: int) -> None:
        """Retain a replaced page if any active reader may need it."""
        with self._latch:
            oldest = self.oldest_active_ts()
            if oldest is None or oldest >= replaced_at:
                return
            chain = self._chains.setdefault(page.page_id, [])
            chain.append((replaced_at, page))
            self.retained_versions += 1

    def read(self, page_id: int, begin_ts: int) -> Optional[Page]:
        """Page visible at ``begin_ts``, or None if the live page is."""
        with self._latch:
            chain = self._chains.get(page_id)
            if not chain:
                return None
            for replaced_at, page in chain:
                if replaced_at > begin_ts:
                    return page
            return None

    # -- pruning ---------------------------------------------------------------

    def prune(self) -> None:
        """Drop versions no active reader can still see."""
        with self._latch:
            oldest = self.oldest_active_ts()
            if oldest is None:
                dropped = sum(len(c) for c in self._chains.values())
                self._chains.clear()
                self.retained_versions -= dropped
                return
            empty: Set[int] = set()
            for page_id, chain in self._chains.items():
                keep = [(ts, page) for ts, page in chain if ts > oldest]
                self.retained_versions -= len(chain) - len(keep)
                if keep:
                    self._chains[page_id] = keep
                else:
                    empty.add(page_id)
            for page_id in empty:
                del self._chains[page_id]
