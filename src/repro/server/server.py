"""The in-process multi-client server API.

``RQLServer`` composes the shared store, the session registry and the
query scheduler; ``connect()`` hands out :class:`ClientHandle`\\ s — one
per logical client — that expose the familiar session surface (SQL
passthrough, snapshot declaration, the four mechanisms) routed through
the scheduler.

Two disconnect flavours matter for the fault tests:

* :meth:`ClientHandle.close` — graceful: waits for the client's
  in-flight queries, then deregisters the session;
* :meth:`ClientHandle.kill` — abrupt (a vanished client): cancels the
  in-flight queries through their cancel events, waits for the workers
  to retire, then reaps the session.  Either way the registry's leak
  report reads all-zero afterwards.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional

from repro.core import RQLSession
from repro.core.mechanisms import RQLResult
from repro.errors import SessionStateError
from repro.sql.executor import ResultSet
from repro.storage.disk import SimulatedDisk
from repro.storage.page import DEFAULT_PAGE_SIZE

from repro.server.registry import SessionRegistry
from repro.server.scheduler import QueryScheduler, QueryTicket
from repro.server.store import SharedStore


class RQLServer:
    """One shared store serving many concurrent sessions."""

    def __init__(self, disk: Optional[SimulatedDisk] = None,
                 aux_disk: Optional[SimulatedDisk] = None,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 gate_timeout: Optional[float] = None,
                 clock: Optional[Callable[[], str]] = None,
                 workers: Optional[int] = None) -> None:
        self.store = SharedStore(disk=disk, aux_disk=aux_disk,
                                 page_size=page_size,
                                 gate_timeout=gate_timeout,
                                 clock=clock)
        self.registry = SessionRegistry(self.store)
        self.scheduler = QueryScheduler(self.store)
        #: default per-query worker count for connected clients
        self.workers = workers
        self._latch = threading.Lock()
        self._closed = False

    # -- client lifecycle ---------------------------------------------------

    def connect(self, name: Optional[str] = None,
                workers: Optional[int] = None) -> "ClientHandle":
        with self._latch:
            if self._closed:
                raise SessionStateError("server is closed")
        session = self.registry.open(
            name, workers=workers if workers is not None else self.workers)
        return ClientHandle(self, session)

    def disconnect(self, name: str, graceful: bool = True) -> bool:
        """Tear one session down; False if it was not connected."""
        if graceful:
            self.scheduler.drain_session(name)
        else:
            self.scheduler.cancel_session(name, wait=True)
        return self.registry.close(name)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Idempotent full shutdown: queries, sessions, store."""
        with self._latch:
            if self._closed:
                return
            self._closed = True
        self.scheduler.shutdown()
        self.registry.shutdown()
        self.store.close()

    @property
    def closed(self) -> bool:
        with self._latch:
            return self._closed

    def __enter__(self) -> "RQLServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- accounting ---------------------------------------------------------

    def leak_report(self) -> Dict[str, object]:
        """All-zero (and gate idle) when no client holds anything."""
        report = self.registry.leak_report()
        report["active_queries"] = self.scheduler.active_count()
        return report


class ClientHandle:
    """One logical client of an :class:`RQLServer`.

    A handle is a single statement stream: drive it from one thread at
    a time (the mechanisms run on scheduler threads, but ``block=True``
    keeps the illusion of a synchronous connection).
    """

    def __init__(self, server: RQLServer, session: RQLSession) -> None:
        self._server = server
        self.session = session

    @property
    def name(self) -> str:
        assert self.session.name is not None
        return self.session.name

    @property
    def closed(self) -> bool:
        return self.session.closed

    # -- SQL / snapshot passthrough -----------------------------------------

    def execute(self, sql: str) -> ResultSet:
        return self.session.execute(sql)

    def executescript(self, sql: str) -> Optional[ResultSet]:
        return self.session.executescript(sql)

    def declare_snapshot(self, name: Optional[str] = None,
                         timestamp: Optional[str] = None) -> int:
        return self.session.declare_snapshot(name=name, timestamp=timestamp)

    def transaction(self, with_snapshot: bool = False,
                    name: Optional[str] = None,
                    timestamp: Optional[str] = None):
        return self.session.transaction(with_snapshot=with_snapshot,
                                        name=name, timestamp=timestamp)

    # -- mechanisms through the scheduler ------------------------------------

    def collate_data(self, qs: str, qq: str, table: str,
                     persistent: bool = False,
                     workers: Optional[int] = None,
                     block: bool = True):
        return self._mechanism("collate_data", qs, qq, table, None,
                               persistent, workers, block)

    def aggregate_data_in_variable(self, qs: str, qq: str, table: str,
                                   agg_func: str,
                                   persistent: bool = False,
                                   workers: Optional[int] = None,
                                   block: bool = True):
        return self._mechanism("aggregate_data_in_variable", qs, qq,
                               table, agg_func, persistent, workers, block)

    def aggregate_data_in_table(self, qs: str, qq: str, table: str,
                                col_func_pairs,
                                persistent: bool = False,
                                workers: Optional[int] = None,
                                block: bool = True):
        return self._mechanism("aggregate_data_in_table", qs, qq, table,
                               col_func_pairs, persistent, workers, block)

    def collate_data_into_intervals(self, qs: str, qq: str, table: str,
                                    persistent: bool = False,
                                    workers: Optional[int] = None,
                                    block: bool = True):
        return self._mechanism("collate_data_into_intervals", qs, qq,
                               table, None, persistent, workers, block)

    def _mechanism(self, mechanism: str, qs: str, qq: str, table: str,
                   arg: object, persistent: bool,
                   workers: Optional[int], block: bool):
        ticket = self._server.scheduler.submit(
            self.session, mechanism, qs, qq, table, arg=arg,
            persistent=persistent, workers=workers)
        if block:
            return ticket.outcome()
        return ticket

    def wait(self, ticket: QueryTicket) -> RQLResult:
        return ticket.outcome()

    # -- disconnects --------------------------------------------------------

    def close(self) -> bool:
        """Graceful disconnect: drain in-flight queries, then leave."""
        return self._server.disconnect(self.name, graceful=True)

    def kill(self) -> bool:
        """Abrupt disconnect: cancel in-flight queries, then reap."""
        return self._server.disconnect(self.name, graceful=False)

    def __enter__(self) -> "ClientHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
