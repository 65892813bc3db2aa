"""Query scheduler: concurrent retrospective queries over one store.

Each submitted mechanism call becomes a :class:`QueryTicket` running on
its own dispatcher thread.  Retrospective reads are snapshot-pinned, so
any number of tickets across sessions run concurrently without blocking
writers; result-table writes (and only those) take the shared write
gate.

A ticket's work is ``RQLSession.run_mechanism``, the call an embedded
session makes: the fold/merge executor of :mod:`repro.core.parallel`,
whatever the worker count.  Partition 0 runs on the ticket's dispatcher thread and every
other partition (at most :data:`MAX_QUERY_WORKERS` in all) on a
short-lived thread of its own, each folding its snapshots in memory
through private read contexts; all are joined before the merged result
is written in **one** gated transaction.  How many partitions a ticket
gets is the executor's runner rule, not the scheduler's: up to
``workers`` when the run's merge law allows re-association, one
otherwise.  Reads pinned to a declared snapshot need no isolation, and
only installing the result takes the write gate.

A ticket refuses to run inside its session's open explicit
transaction, before it reads or writes anything, with
:class:`~repro.errors.MechanismError` at every worker count; the
transaction stays open (the executor's refusal, as embedded).

Every ticket carries a cancel event: the executor's partitions poll it
between iterations and the run surfaces
:class:`~repro.errors.QueryCancelled` after every partition retired.  The
server sets it when a client disconnects mid-query; the scheduler then
drops the partial result table so a cancelled query leaves no debris.

A session runs **one query at a time** (a per-session dispatch lock):
one client connection is one logical stream of statements, and the
session facade's per-statement transaction state is not a concurrent
structure.  Distinct sessions are where the concurrency is.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.core import RQLSession
from repro.core.folds import find_mechanism
from repro.core.mechanisms import RQLResult
from repro.errors import (
    MechanismError,
    QueryCancelled,
    ReproError,
    ServerError,
)

from repro.server.store import SharedStore

#: Most partitions one ticket may run: ``workers`` arrives over the
#: wire, so it is checked (twice the largest count any caller passes).
MAX_QUERY_WORKERS = 8


class QueryTicket:
    """One in-flight (or finished) retrospective query."""

    def __init__(self, ticket_id: int, session_name: str,
                 mechanism: str, table: str) -> None:
        self.id = ticket_id
        self.session_name = session_name
        self.mechanism = mechanism
        self.table = table
        #: set to request cancellation (client disconnect, shutdown)
        self.cancel = threading.Event()
        #: set exactly once, after the dispatcher thread fully retired
        self.done = threading.Event()
        #: RQLResult for mechanism tickets; a views.RefreshReport for
        #: refresh tickets
        self.result = None
        self.error: Optional[BaseException] = None

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self.done.wait(timeout)

    def outcome(self) -> RQLResult:
        """Block until done; re-raise the query's error, if any."""
        self.done.wait()
        error = self.error
        if error is not None:
            raise error
        assert self.result is not None
        return self.result


class QueryScheduler:
    """Admits, runs, cancels and accounts retrospective queries."""

    def __init__(self, store: SharedStore) -> None:
        self._store = store
        self._latch = threading.RLock()
        self._active: Dict[int, QueryTicket] = {}
        self._session_locks: Dict[str, threading.Lock] = {}
        self._next_id = 1
        self._closed = False

    # -- submission ---------------------------------------------------------

    def submit(self, session: RQLSession, mechanism: str, qs: str, qq: str,
               table: str, arg: object = None, persistent: bool = False,
               workers: Optional[int] = None) -> QueryTicket:
        """Run ``mechanism`` asynchronously; returns its ticket."""
        try:
            find_mechanism(mechanism)
        except MechanismError as exc:
            raise ServerError(str(exc)) from exc
        count = session._effective_workers(workers)
        if count > MAX_QUERY_WORKERS:
            raise ServerError(
                f"workers must be <= {MAX_QUERY_WORKERS} on a server "
                f"(got {count})"
            )

        def work(ticket: QueryTicket) -> RQLResult:
            return session.run_mechanism(ticket.mechanism, qs, qq, table,
                                         arg, persistent, count,
                                         cancel=ticket.cancel)

        return self._dispatch(session, mechanism, table, work,
                              drop_partial=True)

    def submit_refresh(self, session: RQLSession, name: str,
                       full: bool = False) -> QueryTicket:
        """Run ``REFRESH MATERIALIZED VIEW name`` asynchronously.

        Refresh admission is a **write**: the whole refresh holds the
        store's write gate (via the view manager) while concurrently
        pinned readers keep seeing the stale-but-consistent pre-refresh
        contents through MVCC.  Unlike mechanism tickets, a cancelled
        refresh must NOT drop its table — the view table is only ever
        replaced by the refresh's single atomic commit, so on any
        failure (including cancellation) the committed base result is
        still exact for its recorded built_from snapshot, and dropping
        it would destroy that base.
        """
        def work(ticket: QueryTicket):
            if ticket.cancel.is_set():
                raise QueryCancelled(
                    f"refresh of {name!r} cancelled before admission"
                )
            return session.views.refresh(name, full=full,
                                         cancel=ticket.cancel)

        return self._dispatch(session, "refresh_view", name, work,
                              drop_partial=False)

    # -- execution ----------------------------------------------------------

    def _dispatch(self, session: RQLSession, mechanism: str, table: str,
                  work, drop_partial: bool) -> QueryTicket:
        """Register a ticket and run ``work(ticket)`` on its own
        dispatcher thread, under the session's one-query-at-a-time
        lock."""
        if session.name is None:
            raise ServerError(
                "scheduler sessions need a name (open them through the "
                "registry)"
            )
        with self._latch:
            if self._closed:
                raise ServerError("scheduler is shut down")
            ticket = QueryTicket(self._next_id, session.name, mechanism,
                                 table)
            self._next_id += 1
            self._active[ticket.id] = ticket
            lock = self._session_locks.setdefault(session.name,
                                                  threading.Lock())
        thread = threading.Thread(
            target=self._run,
            args=(lock, session, ticket, work, drop_partial),
            name=f"rql-{mechanism}-{ticket.id}",
        )
        thread.start()
        return ticket

    def _run(self, lock: threading.Lock, session: RQLSession,
             ticket: QueryTicket, work, drop_partial: bool) -> None:
        try:
            with lock:
                ticket.result = work(ticket)
        except BaseException as exc:  # replint: taxonomy-exempt -- stored on the ticket; outcome() re-raises it
            ticket.error = exc
            if drop_partial and isinstance(exc, QueryCancelled):
                self._drop_partial(session, ticket.table)
        finally:
            with self._latch:
                self._active.pop(ticket.id, None)
            ticket.done.set()

    def _drop_partial(self, session: RQLSession, table: str) -> None:
        """A cancelled run must not leave a half-built result table."""
        try:
            session._drop_result_table(table)
        except ReproError:
            # Best effort: the session may be mid-teardown; the table
            # lives in the aux engine and dies with the store anyway.
            pass

    # -- cancellation / accounting ------------------------------------------

    def tickets_for(self, session_name: str) -> List[QueryTicket]:
        with self._latch:
            return [t for t in self._active.values()
                    if t.session_name == session_name]

    def active_count(self) -> int:
        with self._latch:
            return len(self._active)

    def cancel_session(self, session_name: str,
                       wait: bool = True) -> int:
        """Cancel every in-flight query of one session.

        Returns how many tickets were signalled; with ``wait`` (the
        default) blocks until each has fully retired — the contract the
        registry relies on before tearing the session down.
        """
        tickets = self.tickets_for(session_name)
        for ticket in tickets:
            ticket.cancel.set()
        if wait:
            for ticket in tickets:
                ticket.done.wait()
        return len(tickets)

    def drain_session(self, session_name: str) -> int:
        """Wait for a session's queries without cancelling them."""
        tickets = self.tickets_for(session_name)
        for ticket in tickets:
            ticket.done.wait()
        return len(tickets)

    def shutdown(self) -> int:
        """Cancel everything, wait for it, refuse new submissions."""
        with self._latch:
            self._closed = True
            tickets = list(self._active.values())
        for ticket in tickets:
            ticket.cancel.set()
        for ticket in tickets:
            ticket.done.wait()
        return len(tickets)
