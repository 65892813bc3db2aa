"""RQLSession: the top-level public API.

Binds an application :class:`~repro.sql.database.Database` (with its
integrated Retro snapshot system) to the SnapIds table and the four RQL
mechanisms.  Both call forms from the paper work:

* the Section 2 declarative form::

      session.collate_data("SELECT snap_id FROM SnapIds",
                           "SELECT DISTINCT l_userid, current_snapshot()"
                           " FROM LoggedIn", "Result")

* the Section 3 UDF form, via plain SQL::

      SELECT CollateData(snap_id,
          'SELECT DISTINCT l_userid, current_snapshot() FROM LoggedIn',
          'Result') FROM SnapIds;
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.core.folds import MECHANISMS, MONOID, Mechanism, find_mechanism
from repro.core.mechanisms import RQLResult, _quote
from repro.core.parallel import ParallelExecutor, certify
from repro.core.snapids import SnapIds, check_labels
from repro.errors import MechanismError
from repro.retro.metrics import MetricsSink
from repro.retro.views import RefreshReport, ViewManager
from repro.sql.database import Database
from repro.sql.executor import ResultSet
from repro.storage.disk import SimulatedDisk


class TransactionHandle:
    """Result of a :meth:`RQLSession.transaction` scope.

    ``snapshot_id`` is populated on a successful ``with_snapshot=True``
    exit and stays ``None`` otherwise.
    """

    __slots__ = ("snapshot_id",)

    def __init__(self) -> None:
        self.snapshot_id: Optional[int] = None


class RQLSession:
    """An application database plus RQL machinery."""

    def __init__(self, db: Optional[Database] = None,
                 disk: Optional[SimulatedDisk] = None,
                 page_size: int = 4096,
                 clock: Optional[Callable[[], str]] = None,
                 workers: Optional[int] = None,
                 name: Optional[str] = None) -> None:
        self.db = db or Database(disk=disk, page_size=page_size)
        #: registry handle for server-managed sessions (None when embedded)
        self.name = name
        self.snapids = SnapIds(self.db, clock=clock)
        #: default worker count for the four mechanisms' partition/merge
        #: executor (:mod:`repro.core.parallel`); 1 = one partition.
        #: When the constructor argument is omitted, the RQL_WORKERS
        #: environment variable supplies the default (CI runs the test
        #: suite under RQL_WORKERS=4 to exercise the parallel paths).
        if workers is None:
            workers = int(os.environ.get("RQL_WORKERS", "1"))
        self.workers = self._validate_workers(workers)
        self._udf_runs: Dict[Tuple[str, str, str], object] = {}
        self._register_udfs()
        # Named snapshots inside SQL: SELECT AS OF snapshot_id('tag') ...
        self.db.register_function(
            "snapshot_id", lambda name: self.snapids.id_for_name(str(name)),
        )
        # SQL-surface knob: SELECT rql_workers(4) sets the session
        # default; SELECT rql_workers() reads it back.
        self.db.register_function("rql_workers", self._udf_workers)
        #: incremental materialized retrospective views; also installed
        #: as the Database's view_handler so the CREATE/REFRESH/DROP
        #: MATERIALIZED VIEW statements route here.
        self.views = ViewManager(self)
        self.db.view_handler = self.views

    @staticmethod
    def _validate_workers(workers: int) -> int:
        workers = int(workers)
        if workers < 1:
            raise MechanismError("workers must be >= 1")
        return workers

    def _effective_workers(self, workers: Optional[int]) -> int:
        if workers is None:
            return self.workers
        return self._validate_workers(workers)

    def _udf_workers(self, workers=None):
        if workers is not None:
            self.workers = self._validate_workers(workers)
        return self.workers

    # ------------------------------------------------------------------
    # SQL passthrough + snapshot declaration
    # ------------------------------------------------------------------

    def execute(self, sql: str) -> ResultSet:
        return self.db.execute(sql)

    def executescript(self, sql: str) -> Optional[ResultSet]:
        return self.db.executescript(sql)

    def declare_snapshot(self, name: Optional[str] = None,
                         timestamp: Optional[str] = None) -> int:
        """BEGIN; COMMIT WITH SNAPSHOT; plus the SnapIds bookkeeping.

        The declaration and its SnapIds row happen under one write-gate
        hold so concurrent sessions cannot interleave between them —
        SnapIds row order always matches snapshot-id order.
        """
        check_labels(name, timestamp)
        with self.db.write_lock():
            snapshot_id = self.db.declare_snapshot()
            self.snapids.record(snapshot_id, name=name, timestamp=timestamp)
        return snapshot_id

    def commit_with_snapshot(self, name: Optional[str] = None,
                             timestamp: Optional[str] = None) -> int:
        """COMMIT WITH SNAPSHOT for an already-open transaction."""
        check_labels(name, timestamp)
        with self.db.write_lock():
            snapshot_id = int(
                self.db.execute("COMMIT WITH SNAPSHOT").scalar()
            )
            self.snapids.record(snapshot_id, name=name, timestamp=timestamp)
        return snapshot_id

    @contextmanager
    def transaction(self, with_snapshot: bool = False,
                    name: Optional[str] = None,
                    timestamp: Optional[str] = None
                    ) -> Iterator[TransactionHandle]:
        """``BEGIN`` ... ``COMMIT [WITH SNAPSHOT]``, rollback on error.

        With ``with_snapshot=True`` the commit declares a snapshot and
        records it in SnapIds; read the id off the yielded handle after
        the block exits::

            with session.transaction(with_snapshot=True) as txn:
                session.execute("UPDATE ...")
            snap = txn.snapshot_id
        """
        check_labels(name, timestamp)
        handle = TransactionHandle()
        self.db.execute("BEGIN")
        try:
            yield handle
        except BaseException:
            self.db.execute("ROLLBACK")
            raise
        if with_snapshot:
            handle.snapshot_id = self.commit_with_snapshot(
                name=name, timestamp=timestamp,
            )
        else:
            self.db.execute("COMMIT")

    @property
    def latest_snapshot_id(self) -> int:
        return self.db.latest_snapshot_id

    def checkpoint(self) -> None:
        self.db.checkpoint()

    def close(self) -> None:
        """Idempotent: releases the facade and any read contexts it
        still holds (a double close must never deregister an MVCC
        reader twice, nor leak one that a crashed caller left open).

        The view manager is aborted first so an in-flight refresh on
        another thread unwinds (via QueryCancelled) before the facade
        rolls back its transaction and releases its read contexts."""
        views = getattr(self, "views", None)
        if views is not None:
            views.close()
        self.db.close()

    @property
    def closed(self) -> bool:
        return self.db.closed

    # ------------------------------------------------------------------
    # The four mechanisms (Section 2 call forms)
    # ------------------------------------------------------------------

    def run_mechanism(self, name: str, qs: str, qq: str, table: str,
                      arg=None, persistent: bool = False,
                      workers: Optional[int] = None, cancel=None) -> RQLResult:
        """Run one mechanism into a fresh result table T through the
        fold/merge executor, at every worker count (one partition when
        ``workers == 1`` or the certificate has no merge law).

        ``cancel`` is polled at snapshot boundaries.
        """
        return ParallelExecutor(
            self.db, workers=self._effective_workers(workers),
            cancel=cancel,
        ).run(name, qs, qq, table, arg, persistent)

    def run_reference(self, name: str, qs: str, qq: str, table: str,
                      arg=None, persistent: bool = False,
                      cancel=None) -> RQLResult:
        """Run one mechanism through the table-backed loop, which writes
        T once per snapshot: the differential oracle the product path
        is compared against, and the per-iteration accounting (probes,
        updates, UDF time) Figures 6-13 report.  No product call takes
        this path.
        """
        spec = find_mechanism(name)
        self._drop_result_table(table)
        return self._serial_run(spec, qq, table, arg,
                                persistent).run(qs, cancel=cancel)

    def _serial_run(self, spec: Mechanism, qq: str, table: str, arg,
                    persistent: bool = False):
        args = (arg,) if spec.takes_arg else ()
        return spec.serial(self.db, qq, table, *args, persistent)

    def collate_data(self, qs: str, qq: str, table: str,
                     persistent: bool = False,
                     workers: Optional[int] = None) -> RQLResult:
        """CollateData(Qs, Qq, T)."""
        return self.run_mechanism("CollateData", qs, qq, table, None,
                                  persistent, workers)

    def aggregate_data_in_variable(self, qs: str, qq: str, table: str,
                                   agg_func: str,
                                   persistent: bool = False,
                                   workers: Optional[int] = None,
                                   ) -> RQLResult:
        """AggregateDataInVariable(Qs, Qq, T, AggFunc)."""
        return self.run_mechanism("AggregateDataInVariable", qs, qq, table,
                                  agg_func, persistent, workers)

    def aggregate_data_in_table(self, qs: str, qq: str, table: str,
                                col_func_pairs,
                                persistent: bool = False,
                                workers: Optional[int] = None) -> RQLResult:
        """AggregateDataInTable(Qs, Qq, T, ListOfColFuncPairs)."""
        return self.run_mechanism("AggregateDataInTable", qs, qq, table,
                                  col_func_pairs, persistent, workers)

    def collate_data_into_intervals(self, qs: str, qq: str, table: str,
                                    persistent: bool = False,
                                    workers: Optional[int] = None,
                                    ) -> RQLResult:
        """CollateDataIntoIntervals(Qs, Qq, T)."""
        return self.run_mechanism("CollateDataIntoIntervals", qs, qq,
                                  table, None, persistent, workers)

    def certify(self, mechanism: str, qs: str, qq: str, arg=None):
        """rqlint merge certificate for one mechanism invocation.

        Resolves Qs/Qq in the session's statement context — temp
        before main, the open transaction's DDL, the UDF registry —
        without executing either; the same verdict the parallel
        executor reads its partition count from.  See
        :mod:`repro.analysis.query.mergeclass`.
        """
        return certify(self.db, mechanism, qs, qq, arg)

    def _drop_result_table(self, table: str) -> None:
        self.db.execute(f"DROP TABLE IF EXISTS {_quote(table)}")

    # ------------------------------------------------------------------
    # Materialized retrospective views (convenience over the SQL forms)
    # ------------------------------------------------------------------

    def create_materialized_view(self, name: str, mechanism: str, qq: str,
                                 arg: Optional[str] = None,
                                 if_not_exists: bool = False,
                                 ) -> Optional[RefreshReport]:
        """CREATE MATERIALIZED VIEW name AS Mechanism('Qq'[, 'arg'])."""
        return self.views.create(name, mechanism, qq, arg=arg,
                                 if_not_exists=if_not_exists)

    def refresh_view(self, name: str, full: bool = False,
                     cancel=None) -> RefreshReport:
        """REFRESH MATERIALIZED VIEW name [FULL], returning the report."""
        return self.views.refresh(name, full=full, cancel=cancel)

    def drop_view(self, name: str, if_exists: bool = False) -> None:
        self.views.drop(name, if_exists=if_exists)

    # ------------------------------------------------------------------
    # The Section 3 UDF forms
    # ------------------------------------------------------------------

    def _register_udfs(self) -> None:
        """Expose the mechanisms as scalar UDFs over SnapIds rows.

        Each invocation runs one loop-body iteration for the snapshot id
        in its first argument.  State is keyed by (mechanism, Qq, T) and
        reset whenever the result table is absent, so consecutive
        queries reusing the same table name start fresh.
        """
        for spec in MECHANISMS.values():
            self.db.register_function(spec.name, self._udf_form(spec))

    def _udf_form(self, spec: Mechanism):
        def udf(snap_id, qq, table, arg=None):
            key = (spec.name, str(qq), str(table))
            run = self._udf_runs.get(key)
            if run is None:
                run = self._serial_run(spec, str(qq), str(table), arg)
                self._udf_runs[key] = run
            run.iteration(int(snap_id))
            if spec.merge_class == MONOID:
                # The UDF form cannot observe end-of-query, so refresh
                # the result table after every iteration (idempotent).
                self._drop_result_table(str(table))
                run.finalize()
            return snap_id
        return udf

    def reset_udf_state(self) -> None:
        """Forget per-(mechanism, Qq, T) UDF loop state."""
        self._udf_runs.clear()

    def udf_metrics(self, mechanism: str, qq: str,
                    table: str) -> Optional[MetricsSink]:
        run = self._udf_runs.get((mechanism, qq, table))
        return run.sink if run is not None else None  # type: ignore[union-attr]
