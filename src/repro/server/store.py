"""The shared store behind a multi-session RQL server.

One :class:`SharedStore` owns what the paper's deployment shares across
connections: the snapshotable main engine, the aux engine (temp tables +
SnapIds) and a single blocking **write gate** that serializes update
transactions across sessions.

Sessions are cheap facades: :meth:`SharedStore.open_session` builds a
:class:`~repro.sql.database.Database` over the *shared* engines with a
per-session owner token, so MVCC read contexts are attributable (and
reapable) per session while version chains, the buffer pool, the Retro
structures and the SnapIds table are common property.

Concurrency model (mirrors the storage layer's single-writer /
multi-reader design):

* **updates** — write-classified statements and explicit transactions
  take the :class:`WriteGate`; at most one session mutates the overlay
  at a time, others block until it commits or rolls back;
* **retrospective queries (Qs)** — run over read contexts pinned at
  their begin timestamp; they never take the gate and never block a
  writer, exactly the "queries over snapshots do not interfere with
  updates" property the paper's retrospection design targets.

The gate is **owner-reentrant** rather than thread-reentrant: the
serial-replay half of the differential harness drives several sessions
from one thread, and the registry must be able to force-release the
gate of a session whose client vanished — both impossible with a plain
:class:`threading.RLock`.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional

from repro.core import RQLSession
from repro.errors import ServerError, SessionStateError
from repro.sql.database import Database
from repro.storage.disk import SimulatedDisk
from repro.storage.engine import StorageEngine
from repro.storage.page import DEFAULT_PAGE_SIZE


class WriteGate:
    """Blocking, owner-reentrant mutex over the shared write overlay.

    ``acquire(owner)`` blocks while a *different* owner holds the gate;
    the same owner may re-enter (``write_lock()`` nests inside
    statement-level holds).  ``force_release(owner)`` unconditionally
    drops an owner's hold — the registry's last resort when reaping a
    session whose client disconnected mid-transaction.
    """

    def __init__(self, timeout: Optional[float] = None) -> None:
        #: deadlock backstop: acquire() raises after this many seconds
        self.timeout = timeout
        self._cond = threading.Condition()
        self._owner: Optional[object] = None
        self._depth = 0

    def acquire(self, owner: object) -> None:
        with self._cond:
            while self._owner is not None and self._owner is not owner:
                if not self._cond.wait(timeout=self.timeout):
                    raise ServerError(
                        f"write gate acquire timed out after "
                        f"{self.timeout}s (held by another session)"
                    )
            self._owner = owner
            self._depth += 1

    def release(self, owner: object) -> None:
        with self._cond:
            if self._owner is not owner:
                raise SessionStateError(
                    "write gate released by a session that does not "
                    "hold it"
                )
            self._depth -= 1
            if self._depth == 0:
                self._owner = None
                self._cond.notify_all()

    def force_release(self, owner: object) -> bool:
        """Drop ``owner``'s hold entirely; True if anything was held."""
        with self._cond:
            if self._owner is not owner:
                return False
            self._depth = 0
            self._owner = None
            self._cond.notify_all()
            return True

    @property
    def held(self) -> bool:
        with self._cond:
            return self._owner is not None

    def holder(self) -> Optional[object]:
        with self._cond:
            return self._owner


class GateHandle:
    """Binds one facade's owner token to the shared :class:`WriteGate`.

    The :class:`~repro.sql.database.Database` gate protocol is
    owner-less (``acquire()``/``release()``); this adapter supplies the
    owner so the gate can tell sessions apart.
    """

    __slots__ = ("_gate", "_owner")

    def __init__(self, gate: WriteGate, owner: object) -> None:
        self._gate = gate
        self._owner = owner

    def acquire(self) -> None:
        self._gate.acquire(self._owner)

    def release(self) -> None:
        self._gate.release(self._owner)


class SharedStore:
    """Engines + write gate shared by every session."""

    def __init__(self, disk: Optional[SimulatedDisk] = None,
                 aux_disk: Optional[SimulatedDisk] = None,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 gate_timeout: Optional[float] = None,
                 clock: Optional[Callable[[], str]] = None) -> None:
        self.engine = StorageEngine(disk, page_size=page_size)
        self.aux_engine = StorageEngine(aux_disk, page_size=page_size)
        self.gate = WriteGate(timeout=gate_timeout)
        self.clock = clock
        self._latch = threading.RLock()
        self._closed = False
        # Bootstrap both catalogs once, before any session exists, so
        # facade construction never races on the catalog roots.
        Database(engine=self.engine, aux_engine=self.aux_engine).close()

    # -- session factory ----------------------------------------------------

    def open_session(self, name: str,
                     workers: Optional[int] = None) -> RQLSession:
        """A new session facade over the shared engines.

        The facade's owner token doubles as its gate identity, so a
        session's statement-level and ``write_lock()`` holds nest, and
        the registry can reap both its gate hold and its read contexts
        by owner.
        """
        with self._latch:
            if self._closed:
                raise SessionStateError(
                    f"cannot open session {name!r}: store is closed"
                )
        owner = _SessionOwner(name)
        db = Database(engine=self.engine, aux_engine=self.aux_engine,
                      write_gate=GateHandle(self.gate, owner),
                      owner=owner)
        return RQLSession(db=db, clock=self.clock, workers=workers,
                          name=name)

    # -- leak introspection -------------------------------------------------

    def open_reader_owners(self) -> List[object]:
        """Owner tokens with live MVCC read contexts, both engines."""
        owners: List[object] = []
        for engine in (self.engine, self.aux_engine):
            owners.extend(
                context.owner for context in engine.open_read_contexts()
            )
        return owners

    def open_reader_count(self) -> int:
        return len(self.open_reader_owners())

    def reap(self, owner: object) -> int:
        """Force-release everything ``owner`` still holds.

        Returns the number of read contexts released; also drops any
        write-gate hold.  Used by the registry after a session close
        failed partway (e.g. a simulated crash during rollback).
        """
        released = self.engine.release_read_contexts(owner)
        released += self.aux_engine.release_read_contexts(owner)
        self.gate.force_release(owner)
        return released

    # -- lifecycle ----------------------------------------------------------

    def checkpoint(self) -> None:
        self.engine.checkpoint()
        self.aux_engine.checkpoint()

    def close(self, checkpoint: bool = True) -> None:
        """Idempotent: optionally checkpoint engines."""
        with self._latch:
            if self._closed:
                return
            self._closed = True
        if checkpoint:
            self.checkpoint()

    @property
    def closed(self) -> bool:
        with self._latch:
            return self._closed


class _SessionOwner:
    """Owner token for one session's gate holds and read contexts."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<session-owner {self.name!r}>"
