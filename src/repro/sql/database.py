"""The Database facade: SQLite-like API over the storage engine + Retro.

A :class:`Database` owns **two** storage engines, mirroring the paper's
deployment:

* the **main** engine holds application data and is snapshotable —
  ``COMMIT WITH SNAPSHOT`` declares Retro snapshots of it, and
  ``SELECT AS OF <sid> ...`` queries them;
* the **aux** engine holds non-snapshotable state: temporary tables
  (RQL result tables default here) and, at the RQL layer, the SnapIds
  table, which the paper stores "in a separate SQLite database than
  application data because it is a non-snapshotable persistent table".

API sketch::

    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
    db.execute("BEGIN")
    db.execute("INSERT INTO t VALUES (1, 'x')")
    sid = db.execute("COMMIT WITH SNAPSHOT").scalar()
    db.execute(f"SELECT AS OF {sid} * FROM t")
    db.register_function("my_udf", lambda v: ...)
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    CatalogError,
    ExecutionError,
    PlanError,
    SqlError,
    TransactionError,
)
from repro.retro.metrics import MetricsSink
from repro.sql import ast
from repro.sql.catalog import (
    Catalog,
    Column,
    IndexInfo,
    TableInfo,
    check_column_names,
    primary_key_storage,
)
from repro.sql.executor import (
    IndexAccess,
    ResultSet,
    TableAccess,
    TableWriter,
)
from repro.sql.expressions import ExpressionCompiler, Scope
from repro.sql.functions import FunctionRegistry
from repro.sql.parser import parse_one, parse_sql
from repro.sql.planner import (
    BoundTable,
    ExecutionContext,
    PlanMemo,
    constant_int,
    explain_select,
    open_select,
    run_select,
    scan_for_modify,
)
from repro.sql.types import SqlValue
from repro.storage.btree import BTree
from repro.storage.disk import SimulatedDisk
from repro.storage.engine import StorageEngine
from repro.storage.page import DEFAULT_PAGE_SIZE

_CATALOG_ROOT = "catalog"


class _EngineSession:
    """Per-engine transaction state (main and aux each get one)."""

    def __init__(self, engine: StorageEngine) -> None:
        self.engine = engine
        self.txn = None
        self.declare_on_commit = False

    def ensure_txn(self):
        if self.txn is None:
            self.txn = self.engine.begin()
        return self.txn

    def source(self):
        return self.engine.page_source(self.ensure_txn())

    def commit(self, declare_snapshot: bool = False) -> Optional[int]:
        if self.txn is None:
            if declare_snapshot:
                # Empty declaring transaction: still declares a snapshot.
                self.txn = self.engine.begin()
            else:
                return None
        if self.txn.wrote_nothing() and not declare_snapshot:
            # A transaction that only read (``table_writer`` opens one
            # on both engines, a mechanism writes one of them) has
            # nothing to make durable: no commit record, no commit_ts.
            self.rollback()
            return None
        snapshot_id = self.engine.commit(self.txn,
                                         declare_snapshot=declare_snapshot)
        self.txn = None
        return snapshot_id

    def rollback(self) -> None:
        if self.txn is not None:
            self.engine.rollback(self.txn)
            self.txn = None


class Database:
    """A SQL database with Retro snapshots and UDF support."""

    def __init__(self, disk: Optional[SimulatedDisk] = None,
                 aux_disk: Optional[SimulatedDisk] = None,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 auto_checkpoint_on_snapshot: bool = True,
                 engine: Optional[StorageEngine] = None,
                 aux_engine: Optional[StorageEngine] = None,
                 write_gate: Optional[object] = None,
                 owner: Optional[object] = None) -> None:
        """``engine``/``aux_engine`` share an existing store (the
        multi-session server passes both); otherwise private engines are
        created from ``disk``/``aux_disk``.  ``write_gate`` (an object
        with ``acquire()``/``release()``) serializes write statements
        and explicit transactions across facades sharing the engines;
        ``owner`` tags this facade's MVCC read contexts so they can be
        reaped if a client disappears (defaults to the facade itself).
        """
        self.engine = engine if engine is not None \
            else StorageEngine(disk, page_size=page_size)
        self.aux_engine = aux_engine if aux_engine is not None \
            else StorageEngine(aux_disk, page_size=page_size)
        self._owns_engines = engine is None and aux_engine is None
        self._write_gate = write_gate
        self._owner = owner if owner is not None else self
        self._closed = False
        self.functions = FunctionRegistry()
        self.metrics: Optional[MetricsSink] = None
        #: materialized-view handler (a repro.retro.views.ViewManager),
        #: installed by RQLSession; None on a bare Database.
        self.view_handler = None
        self.auto_checkpoint_on_snapshot = auto_checkpoint_on_snapshot
        self._main = _EngineSession(self.engine)
        self._aux = _EngineSession(self.aux_engine)
        self._in_explicit_txn = False
        self._bootstrap_catalog(self.engine)
        self._bootstrap_catalog(self.aux_engine)

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------

    def _bootstrap_catalog(self, engine: StorageEngine) -> None:
        if engine.pager.get_root(_CATALOG_ROOT) is not None:
            return
        txn = engine.begin()
        try:
            source = engine.page_source(txn)
            tree = BTree.create(source)
            engine.pager.set_root(_CATALOG_ROOT, tree.root_id)
        except BaseException:
            engine.rollback(txn)
            raise
        engine.commit(txn)
        engine.checkpoint()

    def _catalog_root(self, engine: StorageEngine) -> int:
        root = engine.pager.get_root(_CATALOG_ROOT)
        if root is None:
            raise CatalogError("catalog missing (corrupt database)")
        return root

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def register_function(self, name: str,
                          fn: Callable[..., SqlValue]) -> None:
        """Register a scalar UDF (the SQLite-UDF analogue RQL uses)."""
        self.functions.register(name, fn)

    def execute(self, sql: str) -> ResultSet:
        """Parse and execute a single SQL statement."""
        return self._execute_statement(parse_one(sql))

    def executescript(self, sql: str) -> Optional[ResultSet]:
        """Execute ;-separated statements; returns the last result."""
        result: Optional[ResultSet] = None
        for statement in parse_sql(sql):
            result = self._execute_statement(statement)
        return result

    @contextmanager
    def transaction(self) -> Iterator["Database"]:
        """``BEGIN`` ... ``COMMIT``, rolling back on any error.

        The blessed idiom for multi-statement transactional scopes (RQL
        loop-body iterations, bulk loads): replaces hand-written
        ``BEGIN``/``COMMIT``/``except: ROLLBACK`` blocks.  Calls the
        statement handlers directly: every table-backed mechanism
        iteration opens one of these, and three constant strings are not
        worth a lexer and a parser each time.
        """
        self._execute_begin()
        try:
            yield self
        except BaseException:
            self._execute_rollback()
            raise
        self._execute_commit(ast.Commit())

    @contextmanager
    def write_lock(self) -> Iterator[None]:
        """Hold the shared write gate across several statements.

        A no-op for embedded databases (no gate).  Sessions use this to
        make multi-statement invariants atomic across facades — e.g.
        declaring a snapshot and recording it in SnapIds must not
        interleave with another session's declaration, or the SnapIds
        row order diverges from snapshot order.  Reentrant per owner.
        """
        self._acquire_gate()
        try:
            yield
        finally:
            self._release_gate()

    def declare_snapshot(self) -> int:
        """Declare a snapshot outside any explicit transaction."""
        if self._in_explicit_txn:
            raise TransactionError(
                "declare_snapshot() cannot run inside an explicit "
                "transaction; use COMMIT WITH SNAPSHOT"
            )
        result = self.executescript("BEGIN; COMMIT WITH SNAPSHOT;")
        assert result is not None
        return int(result.scalar())

    @property
    def latest_snapshot_id(self) -> int:
        return self.engine.retro.latest_snapshot_id

    def checkpoint(self) -> None:
        """Flush both engines (drains Retro pre-states to the Pagelog)."""
        self.engine.checkpoint()
        self.aux_engine.checkpoint()

    def attach_metrics(self, sink: Optional[MetricsSink]) -> None:
        """Default sink of this facade: what a statement meters into
        when the call that opens it names none (plain ``execute``)."""
        self.metrics = sink

    def close(self) -> None:
        """Release everything this facade holds; safe to call twice.

        Any open explicit transaction is rolled back, the write gate is
        released, and read contexts this facade's owner left open (e.g.
        abandoned cursors) are deregistered.  Facades over a shared
        store skip the checkpoint — flushing shared engines is the
        store's job, not one session's.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if self._in_explicit_txn:
                try:
                    self._main.rollback()
                    self._aux.rollback()
                finally:
                    self._in_explicit_txn = False
                    self._release_gate()
        finally:
            self.engine.release_read_contexts(self._owner)
            self.aux_engine.release_read_contexts(self._owner)
        if self._owns_engines:
            self.checkpoint()

    @property
    def closed(self) -> bool:
        return self._closed

    # -- cursors -----------------------------------------------------------------

    def execute_cursor(self, sql: str):
        """Run a SELECT lazily: returns (columns, row_iterator).

        The column list is available before any row is consumed.  The
        text front door of :meth:`open_cursor`.
        """
        statement = parse_one(sql)
        if not isinstance(statement, ast.Select):
            raise SqlError("execute_cursor requires a SELECT")
        return self.open_cursor(statement)

    def open_cursor(self, statement: ast.Select,
                    snapshot_id: Optional[int] = None,
                    metrics: Optional[MetricsSink] = None,
                    memo: Optional[PlanMemo] = None):
        """The one guarded cursor, for a SELECT that is already parsed:
        returns (columns, row_iterator).

        ``snapshot_id`` pins the cursor to a snapshot, the parameter
        ``current_snapshot()`` reads: the reference loop runs its one
        prepared Qq at each snapshot so.  Without it the statement reads
        as of its own ``AS OF`` clause, if it has one.

        The iterator owns the statement's read contexts: they are
        released when it is exhausted, closed or garbage-collected, and
        at once if planning fails.

        ``metrics`` is :meth:`reading`'s: the sink the statement is
        charged to.  ``memo`` is the prepared statement's plan memo
        (the reference loop passes ``PreparedQq.memo``; text never has
        one).
        """
        if snapshot_id is None:
            as_of = self._as_of(statement)
        else:
            _check_no_as_of(statement)
            as_of = snapshot_id

        def cursor():
            with self.reading(as_of, metrics) as ctx:
                ctx.current_snapshot = snapshot_id
                columns, rows = open_select(statement, ctx, memo)
                yield columns
                yield from rows

        rows = cursor()
        # Runs up to the first yield: sources are open and the SELECT is
        # planned, or the error has already closed them.
        return next(rows), rows

    def table_writer(self, name: str) -> Tuple[TableAccess, TableWriter]:
        """Engine-level write access to a table in the current txn.

        This is the analogue of SQLite's internal b-tree API that UDF
        loop bodies use for per-record result processing (index probes +
        inserts/updates) without going through SQL parsing per record.
        Requires/creates the statement or explicit transaction; the
        caller commits via ``COMMIT`` (explicit txn) — mechanisms wrap
        each iteration in BEGIN/COMMIT.
        """
        ctx = self._write_context()
        table = ctx.open_table(name)
        return table, TableWriter(table, ctx.open_indexes(table))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    #: statements that mutate either engine and therefore must hold the
    #: write gate when facades share a store (reads never take it: MVCC
    #: serves them from registered read contexts).
    _WRITE_STATEMENTS = (
        ast.Insert, ast.Delete, ast.Update, ast.CreateTable, ast.DropTable,
        ast.CreateIndex, ast.DropIndex, ast.CreateMaterializedView,
        ast.RefreshMaterializedView, ast.DropMaterializedView, ast.Analyze,
    )

    def _acquire_gate(self) -> None:
        if self._write_gate is not None:
            self._write_gate.acquire()

    def _release_gate(self) -> None:
        if self._write_gate is not None:
            self._write_gate.release()

    def _execute_statement(self, statement) -> ResultSet:
        # The gate wraps the whole dispatch, not just the _statement()
        # scope: DDL helpers (e.g. _find_table_for_ddl) lazily open
        # engine write transactions before the scope begins.  Inside an
        # explicit transaction the gate is already held (acquired at
        # BEGIN) and stays held until COMMIT/ROLLBACK.
        if isinstance(statement, self._WRITE_STATEMENTS) \
                and not self._in_explicit_txn:
            self._acquire_gate()
            try:
                return self._dispatch_statement(statement)
            finally:
                self._release_gate()
        return self._dispatch_statement(statement)

    def _dispatch_statement(self, statement) -> ResultSet:
        if isinstance(statement, ast.Explain):
            return self._execute_explain(statement)
        if isinstance(statement, ast.Select):
            return self._execute_select(statement)
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement)
        if isinstance(statement, ast.Delete):
            return self._execute_delete(statement)
        if isinstance(statement, ast.Update):
            return self._execute_update(statement)
        if isinstance(statement, ast.CreateTable):
            return self._execute_create_table(statement)
        if isinstance(statement, ast.DropTable):
            return self._execute_drop_table(statement)
        if isinstance(statement, ast.CreateIndex):
            return self._execute_create_index(statement)
        if isinstance(statement, ast.DropIndex):
            return self._execute_drop_index(statement)
        if isinstance(statement, ast.Analyze):
            return self._execute_analyze(statement)
        if isinstance(statement, (ast.CreateMaterializedView,
                                  ast.RefreshMaterializedView,
                                  ast.DropMaterializedView)):
            return self._execute_view_statement(statement)
        if isinstance(statement, ast.Begin):
            return self._execute_begin()
        if isinstance(statement, ast.Commit):
            return self._execute_commit(statement)
        if isinstance(statement, ast.Rollback):
            return self._execute_rollback()
        raise SqlError(f"unsupported statement {type(statement).__name__}")

    def _execute_view_statement(self, statement) -> ResultSet:
        """Route materialized-view DDL to the session's ViewManager.

        The handler is installed by :class:`repro.core.session.RQLSession`
        (views need the mechanism/certificate machinery above the SQL
        layer); a bare Database has none.
        """
        handler = self.view_handler
        if handler is None:
            raise SqlError(
                "materialized views require an RQL session "
                "(no view handler attached to this Database)"
            )
        if isinstance(statement, ast.CreateMaterializedView):
            return handler.execute_create(statement)
        if isinstance(statement, ast.RefreshMaterializedView):
            return handler.execute_refresh(statement)
        return handler.execute_drop(statement)

    # -- transactions -----------------------------------------------------------

    def _execute_begin(self) -> ResultSet:
        if self._in_explicit_txn:
            raise TransactionError("already inside a transaction")
        # The gate is held for the whole explicit transaction: released
        # on COMMIT/ROLLBACK success (or by close() after a failure —
        # mirroring how _in_explicit_txn itself is cleared).
        self._acquire_gate()
        self._in_explicit_txn = True
        return _status()

    def _execute_commit(self, statement: ast.Commit) -> ResultSet:
        if not self._in_explicit_txn:
            raise TransactionError("no transaction is active")
        snapshot_id = self._main.commit(
            declare_snapshot=statement.with_snapshot,
        )
        self._aux.commit()
        self._in_explicit_txn = False
        try:
            if statement.with_snapshot and self.auto_checkpoint_on_snapshot:
                # Checkpoint before releasing the gate so no concurrent
                # writer holds an open overlay while shared engines
                # flush.
                self.checkpoint()
        finally:
            self._release_gate()
        if statement.with_snapshot:
            return ResultSet(["snapshot_id"], [(snapshot_id,)])
        return _status()

    def _execute_rollback(self) -> ResultSet:
        if not self._in_explicit_txn:
            raise TransactionError("no transaction is active")
        self._main.rollback()
        self._aux.rollback()
        self._in_explicit_txn = False
        self._release_gate()
        return _status()

    def _autocommit(self) -> None:
        """Commit statement-local transactions when not in BEGIN...COMMIT."""
        if not self._in_explicit_txn:
            self._main.commit()
            self._aux.commit()

    def _autorollback(self) -> None:
        if not self._in_explicit_txn:
            self._main.rollback()
            self._aux.rollback()

    @contextmanager
    def _statement(self) -> Iterator[None]:
        """Statement-local transaction scope for DML/DDL executors.

        Autocommits on success, autorollbacks on any error — both no-ops
        inside an explicit BEGIN...COMMIT, where the user owns the
        transaction boundary.
        """
        try:
            yield
            self._autocommit()
        except BaseException:
            self._autorollback()
            raise

    # -- EXPLAIN ------------------------------------------------------------------

    def _execute_explain(self, statement: ast.Explain) -> ResultSet:
        """EXPLAIN SELECT ...: access-path plan without executing."""
        inner = statement.statement
        if isinstance(inner, ast.RefreshMaterializedView):
            if self.view_handler is None:
                raise SqlError(
                    "materialized views require an RQL session "
                    "(no view handler attached to this Database)"
                )
            lines = self.view_handler.explain_refresh(inner.name,
                                                      full=inner.full)
            return ResultSet(["detail"], [(line,) for line in lines])
        if not isinstance(inner, ast.Select):
            raise SqlError(
                "EXPLAIN supports SELECT and REFRESH MATERIALIZED VIEW "
                "statements"
            )
        with self._select_context(inner) as ctx:
            notes = explain_select(inner, ctx)
        return ResultSet(["detail"], [(note,) for note in notes])

    # -- SELECT ------------------------------------------------------------------

    def _execute_select(self, statement: ast.Select) -> ResultSet:
        with self._select_context(statement) as ctx:
            return run_select(statement, ctx)

    def _as_of(self, statement: ast.Select) -> Optional[int]:
        """The snapshot a SELECT's ``AS OF`` clause pins (None: none)."""
        if statement.as_of is None:
            return None
        as_of = constant_int(statement.as_of, "AS OF",
                             self.functions.snapshot())
        if as_of is None:
            raise PlanError("AS OF must be a non-NULL constant")
        return as_of

    def _select_context(self, statement: ast.Select):
        """:meth:`reading` as of the statement's ``AS OF`` clause."""
        return self.reading(self._as_of(statement))

    @contextmanager
    def reading(self, as_of: Optional[int] = None,
                metrics: Optional[MetricsSink] = None,
                ) -> Iterator["_Context"]:
        """The one read opener of a statement: what it sees and where it
        is charged, decided here and closed when the ``with`` block
        exits.

        Main reads snapshot ``as_of``, else the session's open
        transaction (a SELECT inside DML or ``BEGIN`` sees its own
        writes), else a fresh read context; aux reads the open
        transaction or a fresh read context.  Both read contexts carry
        this facade's owner.  Snapshot reads and planner costs go to
        ``metrics``, else to the facade's default sink
        (:meth:`attach_metrics`).
        """
        main_txn, aux_txn = self._main.txn, self._aux.txn
        sink = metrics if metrics is not None else self.metrics
        with self.engine.begin_read(owner=self._owner) as read_ctx, \
                self.aux_engine.begin_read(owner=self._owner) as aux_ctx:
            if as_of is not None:
                # May raise UnknownSnapshotError for a bad AS OF id.
                main_source = self.engine.snapshot_source(
                    as_of, read_ctx, metrics=sink)
            elif main_txn is not None:
                main_source = self.engine.page_source(main_txn)
            else:
                main_source = self.engine.read_source(read_ctx)
            if aux_txn is not None:
                aux_source = self.aux_engine.page_source(aux_txn)
            else:
                aux_source = self.aux_engine.read_source(aux_ctx)
            yield _Context(self, main_source, _AuxHalf(self, aux_source),
                           metrics=sink, as_of=as_of)

    @contextmanager
    def run_reader(self) -> Iterator["RunReader"]:
        """The read opener of a snapshot loop: one :class:`RunReader`
        per run, its two read contexts registered here with this
        facade's owner at the run's start and closed when the ``with``
        block exits, however it exits.

        It never looks at the session's transactions (the executor
        refuses to run inside one): a run reads the aux engine, and the
        pages its snapshots share with the current database, as of its
        start, whatever commits or DDL land while it runs.
        """
        with self.engine.begin_read(owner=self._owner) as read_ctx, \
                self.aux_engine.begin_read(owner=self._owner) as aux_ctx:
            yield RunReader(self, read_ctx,
                            self.aux_engine.read_source(aux_ctx))

    # -- write context ----------------------------------------------------------------

    def _write_context(self) -> "_Context":
        """Context whose sources are the open write transactions.

        Reads inside DML see the transaction's own writes; the engines'
        statement-local transactions are created lazily.
        """
        return _Context(self, self._main.source(),
                        _AuxHalf(self, self._aux.source()))

    # -- INSERT / DELETE / UPDATE ------------------------------------------------------

    def _execute_insert(self, statement: ast.Insert) -> ResultSet:
        ctx = self._write_context()
        with self._statement():
            table = ctx.open_table(statement.table)
            writer = TableWriter(table, ctx.open_indexes(table))
            info = table.info
            if statement.columns:
                positions = [info.column_index(c) for c in statement.columns]
            else:
                positions = list(range(len(info.columns)))
            inserted = 0
            if statement.select is not None:
                # Both write transactions are open, so the SELECT reads
                # them (or, AS OF, the snapshot plus the writable aux
                # engine): the exact shape of RQL's per-iteration
                # ``INSERT INTO T SELECT AS OF sid ...``.
                for row in self._execute_select(statement.select).rows:
                    writer.insert(self._place(row, positions, info))
                    inserted += 1
            else:
                compiler = ExpressionCompiler(Scope([]),
                                              self.functions.snapshot())
                for value_exprs in statement.rows:
                    values = tuple(compiler.compile(e)(())
                                   for e in value_exprs)
                    writer.insert(self._place(values, positions, info))
                    inserted += 1
            return _status(inserted)

    @staticmethod
    def _place(values, positions, info: TableInfo):
        if len(values) != len(positions):
            raise ExecutionError(
                f"{len(positions)} columns but {len(values)} values"
            )
        row: List[SqlValue] = [None] * len(info.columns)
        for value, position in zip(values, positions):
            row[position] = value
        return tuple(row)

    def _execute_delete(self, statement: ast.Delete) -> ResultSet:
        ctx = self._write_context()
        with self._statement():
            table = ctx.open_table(statement.table)
            indexes = ctx.open_indexes(table)
            writer = TableWriter(table, indexes)
            # Materialize first: never mutate a tree mid-scan.
            doomed = [
                rowid for rowid, _ in scan_for_modify(
                    table, indexes, statement.where,
                    self.functions.snapshot(),
                )
            ]
            for rowid in doomed:
                writer.delete(rowid)
            return _status(len(doomed))

    def _execute_update(self, statement: ast.Update) -> ResultSet:
        ctx = self._write_context()
        with self._statement():
            table = ctx.open_table(statement.table)
            indexes = ctx.open_indexes(table)
            writer = TableWriter(table, indexes)
            info = table.info
            scope = BoundTable.bind(info.name, table, indexes).desc.scope()
            compiler = ExpressionCompiler(scope, self.functions.snapshot())
            assignments = [
                (info.column_index(column), compiler.compile(expr))
                for column, expr in statement.assignments
            ]
            updates: List[Tuple[int, Tuple[SqlValue, ...]]] = []
            for rowid, row in scan_for_modify(
                    table, indexes, statement.where,
                    self.functions.snapshot()):
                new_row = list(row)
                for position, evaluator in assignments:
                    new_row[position] = evaluator(row)
                updates.append((rowid, tuple(new_row)))
            for rowid, new_row in updates:
                writer.update(rowid, new_row)
            return _status(len(updates))

    # -- DDL ------------------------------------------------------------------------

    def _session_for(self, temporary: bool) -> _EngineSession:
        return self._aux if temporary else self._main

    def _catalog_for_write(self, session: _EngineSession) -> Catalog:
        return Catalog(session.source(),
                       self._catalog_root(session.engine),
                       temporary=session is self._aux)

    def _execute_create_table(self, statement: ast.CreateTable) -> ResultSet:
        session = self._session_for(statement.temporary)
        with self._statement():
            catalog = self._catalog_for_write(session)
            if catalog.get_table(statement.name) is not None:
                if statement.if_not_exists:
                    return _status()
                raise CatalogError(
                    f"table {statement.name} already exists"
                )
            if statement.as_select is not None:
                return self._create_table_as(statement, session, catalog)
            columns = [Column(c.name, c.type_name) for c in statement.columns]
            pk = statement.primary_key or [
                c.name for c in statement.columns if c.primary_key
            ]
            info = self._create_table_object(
                session, catalog, statement.name, columns, pk,
                statement.temporary,
            )
            return _status()

    def _create_table_object(self, session: _EngineSession,
                             catalog: Catalog, name: str,
                             columns: List[Column], primary_key: List[str],
                             temporary: bool) -> TableInfo:
        check_column_names(c.name for c in columns)
        source = session.source()
        tree = BTree.create(source)
        info = TableInfo(
            name=name, root_id=tree.root_id, columns=columns,
            primary_key=list(primary_key), temporary=temporary,
        )
        catalog.create_table(info)
        _, pk_index = primary_key_storage(name, columns, primary_key)
        if pk_index is not None:
            index_tree = BTree.create(source)
            catalog.create_index(IndexInfo(
                name=pk_index, table=name, root_id=index_tree.root_id,
                columns=list(primary_key), unique=True,
                temporary=temporary,
            ))
        return info

    def _create_table_as(self, statement: ast.CreateTable,
                         session: _EngineSession,
                         catalog: Catalog) -> ResultSet:
        # Evaluate the SELECT inside both write transactions (read
        # access everywhere, AS OF honoured), then write the target.
        self._main.ensure_txn()
        self._aux.ensure_txn()
        selected = self._execute_select(statement.as_select)
        columns = [Column(name, "") for name in selected.columns]
        info = self._create_table_object(
            session, catalog, statement.name, columns, [],
            statement.temporary,
        )
        table = TableAccess(info, session.source())
        writer = TableWriter(table, [])
        count = 0
        for row in selected.rows:
            writer.insert(row)
            count += 1
        # The enclosing _execute_create_table _statement() scope commits.
        return _status(count)

    def _execute_drop_table(self, statement: ast.DropTable) -> ResultSet:
        session, catalog, info = self._find_table_for_ddl(statement.name)
        if info is None:
            # The catalog probe lazily opened statement-local write
            # transactions; settle them so no empty txn dangles (the
            # parallel executor refuses to run while one is open).
            self._autocommit()
            if statement.if_exists:
                return _status()
            raise CatalogError(f"no such table: {statement.name}")
        with self._statement():
            source = session.source()
            for index in catalog.indexes_for(info.name):
                BTree(source, index.root_id).drop()
                catalog.drop_index(index.name)
            BTree(source, info.root_id).drop()
            catalog.drop_table(info.name)
            return _status()

    def _find_table_for_ddl(self, name: str):
        """Locate a table for DDL: aux (temp) first, then main."""
        for session in (self._aux, self._main):
            catalog = self._catalog_for_write(session)
            info = catalog.get_table(name)
            if info is not None:
                return session, catalog, info
        return self._main, self._catalog_for_write(self._main), None

    def _execute_create_index(self, statement: ast.CreateIndex) -> ResultSet:
        session, catalog, info = self._find_table_for_ddl(statement.table)
        if info is None:
            self._autocommit()
            raise CatalogError(f"no such table: {statement.table}")
        with self._statement():
            if catalog.get_index(statement.name) is not None:
                if statement.if_not_exists:
                    return _status()
                raise CatalogError(
                    f"index {statement.name} already exists"
                )
            for column in statement.columns:
                info.column_index(column)  # validates
            source = session.source()
            sink = self.metrics
            clock = sink.clock if sink is not None else time.perf_counter
            started = clock()
            tree = BTree.create(source)
            index_info = IndexInfo(
                name=statement.name, table=info.name,
                root_id=tree.root_id, columns=list(statement.columns),
                unique=statement.unique, temporary=info.temporary,
            )
            catalog.create_index(index_info)
            table = TableAccess(info, source)
            index = IndexAccess(index_info, source)
            positions = [info.column_index(c) for c in statement.columns]
            count = 0
            for rowid, row in table.scan():
                values = [row[p] for p in positions]
                if statement.unique and index.has_prefix(values):
                    raise ExecutionError(
                        f"UNIQUE constraint failed while building "
                        f"{statement.name}"
                    )
                index.insert_entry(values, rowid)
                count += 1
            if sink is not None:
                sink.current.index_creation_seconds += clock() - started
            return _status(count)

    def _execute_drop_index(self, statement: ast.DropIndex) -> ResultSet:
        for session in (self._aux, self._main):
            catalog = self._catalog_for_write(session)
            info = catalog.get_index(statement.name)
            if info is not None:
                with self._statement():
                    BTree(session.source(), info.root_id).drop()
                    catalog.drop_index(statement.name)
                    return _status()
        self._autocommit()
        if statement.if_exists:
            return _status()
        raise CatalogError(f"no such index: {statement.name}")

    # -- ANALYZE ----------------------------------------------------------------------

    def _execute_analyze(self, statement: ast.Analyze) -> ResultSet:
        """Gather planner statistics into the aux ``__rql_stats`` table.

        Statistics are non-snapshotable metadata (like SnapIds), so they
        live in the aux engine; each gathering is stamped with the
        latest declared snapshot id, which is what keeps plans
        ``AS OF``-consistent — a query pinned to snapshot *s* only sees
        statistics gathered at or before *s*.
        """
        from repro.sql.stats import (
            STATS_COLUMNS,
            STATS_TABLE,
            compute_table_stats,
            stats_to_rows,
        )

        ctx = self._write_context()
        with self._statement():
            aux_catalog = self._catalog_for_write(self._aux)
            stats_info = aux_catalog.get_table(STATS_TABLE)
            if stats_info is None:
                stats_info = self._create_table_object(
                    self._aux, aux_catalog, STATS_TABLE,
                    [Column(name, type_name)
                     for name, type_name in STATS_COLUMNS],
                    [], True,
                )
            stats_table = TableAccess(stats_info, self._aux.source())
            writer = TableWriter(stats_table, [])
            if statement.table is not None:
                targets = [ctx.open_table(statement.table)]
            else:
                main_catalog = self._catalog_for_write(self._main)
                targets = [
                    TableAccess(info, self._main.source())
                    for info in main_catalog.list_tables()
                ]
            snapshot_id = self.latest_snapshot_id
            out_rows: List[Tuple[SqlValue, ...]] = []
            for target in targets:
                stats = compute_table_stats(
                    target, snapshot_id,
                    page_size=self.engine.page_size,
                )
                # Re-ANALYZE replaces this (table, snapshot) gathering.
                doomed = [
                    rowid for rowid, row in stats_table.scan()
                    if str(row[0]).lower() == stats.table
                    and int(row[1]) == snapshot_id
                ]
                for rowid in doomed:
                    writer.delete(rowid)
                for row in stats_to_rows(stats):
                    writer.insert(row)
                out_rows.append(
                    (stats.table, stats.row_count, stats.page_count),
                )
            return ResultSet(["table", "row_count", "page_count"],
                             out_rows)


# ---------------------------------------------------------------------------
# Execution context implementation
# ---------------------------------------------------------------------------

class _Resolved:
    """A catalog's ``get_table`` / ``indexes_for`` answered from
    ``answers`` — the two dicts a run reader keeps while the catalog
    they came from is unchanged — and through ``catalog`` on a miss."""

    __slots__ = ("_catalog", "_tables", "_indexes")

    def __init__(self, catalog: Catalog,
                 answers: Tuple[Dict[str, Optional[TableInfo]],
                                Dict[str, List[IndexInfo]]]) -> None:
        self._catalog = catalog
        self._tables, self._indexes = answers

    def get_table(self, name: str) -> Optional[TableInfo]:
        key = name.lower()
        tables = self._tables
        if key not in tables:
            tables[key] = self._catalog.get_table(name)
        return tables[key]

    def indexes_for(self, table: str) -> List[IndexInfo]:
        key = table.lower()
        indexes = self._indexes
        if key not in indexes:
            indexes[key] = self._catalog.indexes_for(table)
        return indexes[key]


class _AuxHalf:
    """What a statement reads of the aux engine: its source, the TEMP
    catalog over it and the ``__rql_stats`` rows, scanned on first use.
    A statement makes its own; a run reader makes one per run, with
    every name resolved once, and each snapshot's context shares it."""

    def __init__(self, db: Database, source, resolved: bool = False) -> None:
        self.source = source
        self.catalog = Catalog(source, db._catalog_root(db.aux_engine),
                               temporary=True)
        #: what lookups go through: the catalog, or its answers
        self.names = _Resolved(self.catalog, ({}, {})) if resolved \
            else self.catalog
        self._stats_rows: Optional[List[Tuple]] = None

    def stats_rows(self) -> List[Tuple]:
        """Every ``__rql_stats`` row (none if the table does not exist)."""
        if self._stats_rows is None:
            from repro.sql.stats import STATS_TABLE

            info = self.catalog.get_table(STATS_TABLE)
            self._stats_rows = [] if info is None else list(
                TableAccess(info, self.source).scan_rows())
        return self._stats_rows


class RunReader:
    """What one snapshot loop reads through (DESIGN.md §3c), opened by
    :meth:`Database.run_reader`: the run's main read context, its aux
    half — the TEMP catalog, each name resolved once, and the
    ``__rql_stats`` rows — the functions registered at its start, and
    the answers of main-catalog lookups, kept while consecutive
    snapshots decode the same catalog node.

    Per snapshot it builds only the snapshot's page source (the SPT)
    and a context over it, charged to the sink the cursor names.  One
    run, one thread; nothing in it is keyed by snapshot id, and nothing
    outlives the ``with`` block.
    """

    def __init__(self, db: Database, read_ctx, aux_source) -> None:
        self._db = db
        self._read_ctx = read_ctx
        self._aux = _AuxHalf(db, aux_source, resolved=True)
        #: the functions registered at the run's start
        self.functions = db.functions.snapshot()
        #: the decoded catalog root the answers were resolved from
        self._node: Optional[object] = None
        self._answers: Tuple[dict, dict] = ({}, {})

    def context(self, as_of: Optional[int],
                metrics: Optional[MetricsSink] = None) -> "_Context":
        """The context of one statement pinned to ``as_of`` (None: the
        run's start), charged to ``metrics``, else to the facade's
        default sink."""
        db = self._db
        sink = metrics if metrics is not None else db.metrics
        if as_of is None:
            source = db.engine.read_source(self._read_ctx)
        else:
            # May raise UnknownSnapshotError / SnapshotUnavailableError.
            source = db.engine.snapshot_source(as_of, self._read_ctx,
                                               metrics=sink)
        context = _Context(db, source, self._aux, metrics=sink,
                           as_of=as_of, run=self)
        context.current_snapshot = as_of
        return context

    def cursor(self, statement: ast.Select,
               snapshot_id: Optional[int] = None,
               memo: Optional[PlanMemo] = None,
               metrics: Optional[MetricsSink] = None):
        """(columns, row iterator) of a SELECT at snapshot
        ``snapshot_id`` (None: the run's start), the pin its
        ``current_snapshot()`` calls read, planned through ``memo`` and
        charged to ``metrics``."""
        _check_no_as_of(statement)
        return open_select(statement, self.context(snapshot_id, metrics),
                           memo)

    def main_names(self, catalog: Catalog):
        """Lookups for ``catalog``, one snapshot's main catalog.  Schema
        is still read from each snapshot's own catalog page: its root
        is fetched through the snapshot's source, and only when the
        decoded node is the very object the kept answers came from are
        they reused — a node is published per byte image and never
        mutated (§3a), so the same node means the same catalog.  A
        catalog past one page resolves as a statement's does."""
        node = catalog.root_leaf()
        if node is None:
            return catalog
        if node is not self._node:
            self._node, self._answers = node, ({}, {})
        return _Resolved(catalog, self._answers)


class _Context(ExecutionContext):
    """What one statement sees — this database's catalogs over the page
    sources :meth:`Database.reading`, a run reader or the write path
    chose — and the sink it is charged to.

    ``run`` is the run reader this context is one snapshot of: it
    picks, on the first main-catalog lookup, whether that lookup and the
    rest go through the answers it keeps, and lends the run's functions.
    Without one every lookup reads the catalog (a write context is held
    across DDL, so it must keep nothing) and every compile copies the
    registry."""

    def __init__(self, db: Database, main_source, aux: _AuxHalf,
                 metrics: Optional[MetricsSink] = None,
                 as_of: Optional[int] = None,
                 run: Optional[RunReader] = None) -> None:
        self._db = db
        self._main_source = main_source
        self._aux = aux
        self._aux_source = aux.source
        self._aux_catalog = aux.catalog
        self._metrics = metrics
        # Snapshot pin of the statement (None = current state); bounds
        # which ANALYZE gatherings the planner may see.
        self._as_of = as_of
        self._stats_cache: Dict[str, object] = {}
        self._main_catalog = Catalog(
            main_source, db._catalog_root(db.engine),
        )
        self._run = run
        self._main_lookups = self._main_catalog if run is None else None

    def _main_names(self):
        names = self._main_lookups
        if names is None:
            names = self._main_lookups = self._run.main_names(
                self._main_catalog)
        return names

    def catalogs(self) -> Tuple[Catalog, Catalog]:
        """Both catalogs in lookup order: temporary, then main."""
        return self._aux_catalog, self._main_catalog

    def find_table(self, name: str) -> Optional[TableAccess]:
        """The table ``name`` resolves to, or None.  The one read-side
        lookup order: a temporary table shadows a main one."""
        info = self._aux.names.get_table(name)
        if info is not None:
            return TableAccess(info, self._aux_source)
        info = self._main_names().get_table(name)
        if info is not None:
            return TableAccess(info, self._main_source)
        return None

    def open_table(self, name: str) -> TableAccess:
        table = self.find_table(name)
        if table is None:
            raise PlanError(f"no such table: {name}")
        return table

    def open_indexes(self, table: TableAccess) -> List[IndexAccess]:
        if table.info.temporary:
            names, source = self._aux.names, self._aux_source
        else:
            names, source = self._main_names(), self._main_source
        return [IndexAccess(ix, source)
                for ix in names.indexes_for(table.info.name)]

    def main_catalog_pages(self) -> List[int]:
        """Page ids of the main catalog tree — the pages DDL on a
        snapshotable table rewrites."""
        return self._main_catalog.page_ids()

    def storage_bytes(self, access) -> int:
        """Bytes the tree of a table or index access occupies."""
        engine = self._db.aux_engine if access.info.temporary \
            else self._db.engine
        return len(access.tree.page_ids()) * engine.page_size

    @property
    def functions(self) -> Dict[str, Callable[..., SqlValue]]:
        if self._run is not None:
            return self._run.functions
        return self._db.functions.snapshot()

    def table_stats(self, name: str):
        """Newest ANALYZE statistics visible at this context's AS OF pin.

        Filters the aux ``__rql_stats`` rows (scanned once per statement,
        or once per run through a run reader) for the pin, once per
        table and statement.  Returns None — heuristic planning — when
        no eligible gathering exists, and never consults statistics for
        the statistics table itself.
        """
        from repro.sql.stats import STATS_TABLE, stats_from_rows

        key = name.lower()
        if key in self._stats_cache:
            return self._stats_cache[key]
        stats = None
        if key != STATS_TABLE:
            stats = stats_from_rows(key, self._aux.stats_rows(),
                                    as_of=self._as_of)
        self._stats_cache[key] = stats
        return stats

    @property
    def clock(self) -> Callable[[], float]:
        sink = self._metrics
        return sink.clock if sink is not None else time.perf_counter

    def note_index_creation(self, seconds: float) -> None:
        if self._metrics is not None:
            self._metrics.current.index_creation_seconds += seconds

    def note_query_eval(self, seconds: float) -> None:
        if self._metrics is not None:
            self._metrics.current.query_eval_seconds += seconds


def _check_no_as_of(statement: ast.Select) -> None:
    """A cursor opened at a snapshot runs a statement with no ``AS OF``
    of its own: one pin, the cursor's."""
    if statement.as_of is not None:
        raise PlanError("a statement run at a snapshot must not contain "
                        "AS OF")


def _status(rowcount: int = 0) -> ResultSet:
    result = ResultSet([], [])
    result.rowcount = rowcount  # type: ignore[attr-defined]
    return result
