"""Incremental materialized retrospective views (ROADMAP open item 2).

``CREATE MATERIALIZED VIEW v AS Mechanism('Qq'[, 'arg'])`` stores the
result of a retrospective mechanism over *every declared snapshot* and
maintains it incrementally as new snapshots are declared:

* Each view records the snapshot it was last **built from** and the
  rqlint merge class of its defining query (``__rql_views`` metadata,
  aux engine — non-snapshotable but durable, like SnapIds).
* ``REFRESH MATERIALIZED VIEW v`` computes the **affected page set**:
  the Maplog diff between ``built_from`` and the refresh target,
  intersected with the pages of the certificate's read tables (plus the
  main catalog) *as of* ``built_from``.  Because the first mutation of
  a B-tree after a snapshot always writes a page that belonged to the
  tree at that snapshot, an empty intersection proves every read table
  is unchanged at every snapshot in ``(built_from, target]``.
* The delta — the newly declared snapshots — is folded by the one fold
  algebra (:mod:`repro.core.folds`): ``Fold.restore`` rebuilds the
  mechanism's fold from the stored result and
  :func:`~repro.core.folds.fold_range` steps it over
  ``(built_from, target]`` — the serial loop's operations in the serial
  order, so incremental and ``REFRESH ... FULL`` (an empty fold stepped
  over ``[1, target]``) agree bit-for-bit.  When the affected set is
  empty and the Qq never calls ``current_snapshot()``, the delta is
  evaluated **once** at the target and that row list is stepped per
  snapshot (identical table contents imply identical Qq output).
* Serial-only certificates, views whose Qq reads non-snapshotable
  (aux) sources — including other views — and monoid views without
  serializable fold state fall back to **full recompute** with the
  reason logged on the :class:`RefreshReport` and the EXPLAIN surface.
* Dependent views (a Qq reading another view's result table) refresh
  first, dependency-ordered, **pinned to the same target snapshot**, so
  a cascade observes one consistent snapshot across all sources.
* An incremental refresh persists the delta, not the view: the restored
  fold's result is a write plan — the stored rows its steps changed, by
  rowid, and the rows they added — carried out in place, with no DROP /
  CREATE TABLE / CREATE INDEX; an empty plan writes no row.
* All refresh writes — the result table and the metadata row — land in
  one explicit transaction touching only the aux engine, so a crash
  recovers to fully-old or fully-new ``built_from``, never a torn mix
  (``tests/retro/test_view_crash.py``).

Refresh admission is a write: the whole refresh holds the store's
WriteGate, while MVCC keeps concurrently pinned readers on the
stale-but-consistent pre-refresh contents.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.folds import (
    SERIAL_ONLY,
    ConcatFold,
    Fold,
    Mechanism,
    find_mechanism,
    fold_range,
    write_result,
)
from repro.core.mechanisms import _quote
from repro.core.rewrite import PreparedQq, prepare_qq
from repro.errors import (
    MechanismError,
    QueryCancelled,
    SqlError,
    ViewError,
)
from repro.retro.metrics import MetricsSink
from repro.sql.executor import ResultSet

VIEWS_TABLE = "__rql_views"

#: the implicit Qs of every view: all declared snapshots (certification
#: input; the actual refresh iterates 1..target directly).
VIEW_QS = "SELECT snap_id FROM SnapIds ORDER BY snap_id"


def _escape(text: str) -> str:
    return text.replace("'", "''")


def _view_mechanism(name: str) -> Mechanism:
    try:
        return find_mechanism(name)
    except MechanismError as exc:
        raise ViewError(str(exc)) from exc


@dataclass
class ViewMeta:
    """One ``__rql_views`` row."""

    name: str
    mechanism: str
    qq: str
    arg: Optional[str]
    merge_class: str
    built_from: int
    state: Optional[dict]


@dataclass
class RefreshReport:
    """Telemetry of one refresh (in memory only — never persisted, so
    full-database dumps stay byte-identical across refresh modes)."""

    view: str
    mechanism: str
    merge_class: str
    mode: str          # noop | delta | delta-skip | full
    reason: str
    built_from: int    # before the refresh
    target: int
    diff_page_count: int
    affected_page_count: int
    evaluated_snapshots: int
    qq_rows: int
    pagelog_reads: int
    cache_hits: int
    db_reads: int
    #: the fold's write plan was not empty; then how many stored rows it
    #: overwrote, how many rows it added, and how many the table holds
    table_written: bool
    rows_changed: int = 0
    rows_appended: int = 0
    rows_total: int = 0
    cascaded: List[str] = field(default_factory=list)

    def written_line(self) -> str:
        if not self.table_written:
            return "wrote no rows"
        return (f"wrote {self.rows_changed} changed + "
                f"{self.rows_appended} appended of {self.rows_total} rows")

    def summary_lines(self) -> List[str]:
        lines = [
            f"view {self.view}: {self.mechanism} "
            f"[merge class {self.merge_class}]",
            f"built_from {self.built_from} -> target {self.target}",
            f"maplog diff {self.diff_page_count} pages, "
            f"affected {self.affected_page_count} pages",
            f"decision: {self.mode} ({self.reason})",
            f"evaluated {self.evaluated_snapshots} snapshots, "
            f"{self.qq_rows} Qq rows",
            f"reads: pagelog {self.pagelog_reads}, cache "
            f"{self.cache_hits}, db {self.db_reads}",
        ]
        if self.mode != "noop":
            lines.append(self.written_line())
        if self.cascaded:
            lines.append("cascaded: " + ", ".join(self.cascaded))
        return lines


class ViewManager:
    """Materialized-view catalog + refresh engine for one session.

    Installed on the session's Database as ``view_handler``; the SQL
    layer routes CREATE/REFRESH/DROP MATERIALIZED VIEW (and EXPLAIN
    REFRESH) here.  Metadata lives in the shared aux engine, so every
    session over a SharedStore sees the same views; reports are
    per-session, in-memory telemetry.
    """

    def __init__(self, session) -> None:
        self._session = session
        self.db = session.db
        self._abort = threading.Event()
        self._closed = False
        #: name (lower) -> report of the most recent refresh via this
        #: session — EXPLAIN/CLI telemetry, deliberately not persisted.
        self.last_reports: Dict[str, RefreshReport] = {}
        self.db.execute(
            f"CREATE TEMP TABLE IF NOT EXISTS {VIEWS_TABLE} ("
            f"name, mechanism, qq, arg, merge_class, built_from, state)"
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Abort any in-flight refresh and refuse further view work.

        Called from ``RQLSession.close()`` — a refresh running on
        another thread observes the abort flag between snapshot
        evaluations and unwinds via :class:`QueryCancelled` before it
        opens its write transaction (an already-open one is rolled back
        by ``Database.close``).
        """
        self._closed = True
        self._abort.set()

    def _ensure_usable(self) -> None:
        if self._closed:
            raise ViewError("view manager is closed")
        if self.db._in_explicit_txn:
            raise ViewError(
                "materialized-view operations cannot run inside an "
                "open transaction"
            )

    def _check_cancel(self, cancel) -> None:
        if self._abort.is_set():
            raise QueryCancelled("view refresh aborted by session close")
        if cancel is not None and cancel.is_set():
            raise QueryCancelled("view refresh cancelled")

    # -- SQL statement surface ---------------------------------------------

    def execute_create(self, statement) -> ResultSet:
        report = self.create(
            statement.name, statement.mechanism, statement.qq,
            arg=statement.arg, if_not_exists=statement.if_not_exists,
        )
        if report is None:  # IF NOT EXISTS hit an existing view
            return ResultSet([], [])
        return ResultSet(
            ["view", "merge_class", "built_from"],
            [(report.view, report.merge_class, report.target)],
        )

    def execute_refresh(self, statement) -> ResultSet:
        report = self.refresh(statement.name, full=statement.full)
        return ResultSet(
            ["view", "mode", "built_from", "target", "affected_pages",
             "evaluated"],
            [(report.view, report.mode, report.built_from, report.target,
              report.affected_page_count, report.evaluated_snapshots)],
        )

    def execute_drop(self, statement) -> ResultSet:
        self.drop(statement.name, if_exists=statement.if_exists)
        return ResultSet([], [])

    # -- create / drop ------------------------------------------------------

    def create(self, name: str, mechanism: str, qq: str,
               arg: Optional[str] = None, if_not_exists: bool = False,
               cancel=None) -> Optional[RefreshReport]:
        """Create the view and run its initial (full) build atomically."""
        self._ensure_usable()
        spec = _view_mechanism(mechanism)
        mech = spec.name
        if spec.takes_arg and arg is None:
            raise ViewError(f"{mech} requires an aggregate argument")
        if not spec.takes_arg and arg is not None:
            raise ViewError(f"{mech} takes no aggregate argument")
        spec.fold(arg)  # fail fast on a malformed aggregate argument
        prepare_qq(qq)  # fail fast on a malformed Qq
        with self.db.write_lock():
            views = self._load_all()
            if name.lower() in views:
                if if_not_exists:
                    return None
                raise ViewError(
                    f"materialized view {name!r} already exists")
            with self.db.reading() as ctx:
                if ctx.find_table(name) is not None:
                    raise ViewError(
                        f"a table named {name!r} already exists")
            certificate = self._certify(mech, qq, arg)
            if name.lower() in {t.lower() for t in certificate.read_tables}:
                raise ViewError(
                    f"materialized view {name!r} cannot read itself")
            meta = ViewMeta(
                name=name, mechanism=mech, qq=qq, arg=arg,
                merge_class=certificate.merge_class, built_from=0,
                state=None,
            )
            try:
                return self._refresh_one(
                    meta, views, self._retro.latest_snapshot_id,
                    full=True, reason="initial build", cancel=cancel,
                    certificate=certificate,
                )
            except SqlError as exc:
                # A Qq that cannot run (unknown table — including the
                # view itself — bad column, ...) must fail the CREATE,
                # not linger as an unbuildable view.
                raise ViewError(
                    f"cannot build materialized view {name!r}: {exc}"
                ) from exc

    def drop(self, name: str, if_exists: bool = False) -> None:
        self._ensure_usable()
        with self.db.write_lock():
            views = self._load_all()
            meta = views.get(name.lower())
            if meta is None:
                if if_exists:
                    return
                raise ViewError(f"unknown materialized view {name!r}")
            dependents = self._dependents_of(meta, views)
            if dependents:
                raise ViewError(
                    f"materialized view {meta.name!r} is read by "
                    f"{', '.join(sorted(dependents))}; drop those first"
                )
            with self.db.transaction():
                self.db.execute(
                    f"DROP TABLE IF EXISTS {_quote(meta.name)}")
                self.db.execute(
                    f"DELETE FROM {VIEWS_TABLE} "
                    f"WHERE name = '{_escape(meta.name)}'"
                )
            self.last_reports.pop(meta.name.lower(), None)

    # -- refresh -----------------------------------------------------------

    def refresh(self, name: str, full: bool = False,
                cancel=None) -> RefreshReport:
        """Refresh ``name`` (cascading over view dependencies first, all
        pinned to one target snapshot); returns the refresh report."""
        self._ensure_usable()
        with self.db.write_lock():
            views = self._load_all()
            meta = views.get(name.lower())
            if meta is None:
                raise ViewError(f"unknown materialized view {name!r}")
            target = self._retro.latest_snapshot_id
            return self._refresh_cascade(meta, views, target, full=full,
                                         cancel=cancel, chain=())

    def _refresh_cascade(self, meta: ViewMeta, views: Dict[str, ViewMeta],
                         target: int, full: bool, cancel,
                         chain: Tuple[str, ...]) -> RefreshReport:
        if meta.name.lower() in chain:
            raise ViewError(
                "materialized-view dependency cycle: "
                + " -> ".join(chain + (meta.name.lower(),))
            )
        certificate = self._certify(meta.mechanism, meta.qq, meta.arg)
        cascaded: List[str] = []
        for table in sorted({t.lower() for t in certificate.read_tables}):
            dep = views.get(table)
            if dep is None or dep.name.lower() == meta.name.lower():
                continue
            if dep.built_from != target:
                self._refresh_cascade(
                    dep, views, target, full=False, cancel=cancel,
                    chain=chain + (meta.name.lower(),),
                )
                cascaded.append(dep.name)
                views = self._load_all()  # dep metadata advanced
        report = self._refresh_one(
            meta, views, target, full=full, reason=None, cancel=cancel,
            certificate=certificate,
        )
        report.cascaded = cascaded + report.cascaded
        return report

    def _refresh_one(self, meta: ViewMeta, views: Dict[str, ViewMeta],
                     target: int, full: bool, reason: Optional[str],
                     cancel, certificate) -> RefreshReport:
        sink = MetricsSink()
        prepared = prepare_qq(meta.qq)
        mode, why, diff_count, affected = self._plan(
            meta, views, target, full, certificate, sink, prepared)
        if reason is not None:
            why = reason
        report = RefreshReport(
            view=meta.name, mechanism=meta.mechanism,
            merge_class=meta.merge_class, mode=mode, reason=why,
            built_from=meta.built_from, target=target,
            diff_page_count=diff_count, affected_page_count=len(affected),
            evaluated_snapshots=0, qq_rows=0, pagelog_reads=0,
            cache_hits=0, db_reads=0, table_written=False,
        )
        if mode == "noop":
            self._account(report, sink)
            self.last_reports[meta.name.lower()] = report
            return report

        # Incremental refresh = restore + step; a full rebuild steps an
        # empty fold over every snapshot.  A SERIAL-ONLY view still
        # folds by its mechanism's class — the ladder has already forced
        # the full rebuild, where stepping replicates the serial loop.
        spec = _view_mechanism(meta.mechanism)
        fold: Optional[Fold] = None
        if mode != "full":
            fold = spec.fold.restore(
                meta.arg, lambda: self._scan_table(meta.name),
                meta.state, meta.built_from)
            if fold is None:
                mode = report.mode = "full"
                report.reason = "no stored aggregate fold state"
        if fold is None:
            fold = spec.fold(meta.arg)
            sids = range(1, target + 1)
        else:
            sids = range(meta.built_from + 1, target + 1)

        def poll() -> None:
            self._check_cancel(cancel)  # raises; never stops quietly

        with self.db.run_reader() as reader:
            if mode == "delta-skip":
                # Identical table contents at every sid + snapshot-
                # invariant Qq: one evaluation at the target stands in
                # for the whole range.
                once = ConcatFold()
                fold_range(reader, prepared, sids[-1:], once, sink, poll)
                for sid in sids:
                    fold.step(sid, once.columns, once.rows)
                report.evaluated_snapshots = 1
            else:
                fold_range(reader, prepared, sids, fold, sink, poll)
                report.evaluated_snapshots = len(sids)
        self._check_cancel(cancel)
        self._persist(meta, target, fold, report,
                      insert=meta.name.lower() not in views)
        self._account(report, sink)
        self.last_reports[meta.name.lower()] = report
        return report

    # -- refresh planning ---------------------------------------------------

    def _plan(self, meta: ViewMeta, views: Dict[str, ViewMeta],
              target: int, full: bool, certificate,
              sink: MetricsSink, prepared: PreparedQq):
        """(mode, reason, diff_page_count, affected_pages) for a refresh
        of ``meta`` to ``target``, whose Qq is ``prepared`` — shared by
        refresh and EXPLAIN."""
        if target < meta.built_from:
            raise ViewError(
                f"view {meta.name!r} was built from snapshot "
                f"{meta.built_from} but only {target} are declared"
            )
        if target == meta.built_from and not full:
            return "noop", "already at the latest snapshot", 0, set()
        if full:
            return "full", "explicit FULL refresh", 0, set()
        if meta.built_from == 0:
            return "full", "initial build", 0, set()
        if meta.merge_class == SERIAL_ONLY or not certificate.mergeable:
            detail = "; ".join(
                f.message for f in certificate.errors) or "not mergeable"
            return ("full", f"serial-only certificate: {detail}", 0,
                    set())
        # The names execution would resolve to a temporary table.
        with self.db.reading() as ctx:
            found = [ctx.find_table(t)
                     for t in set(certificate.read_tables)]
        aux_reads = sorted(table.info.name.lower() for table in found
                           if table is not None and table.info.temporary)
        if aux_reads:
            return ("full",
                    "reads non-snapshotable source(s): "
                    + ", ".join(aux_reads), 0, set())
        diff = self._retro.diff_pages(meta.built_from, target)
        if not diff:
            affected: Set[int] = set()
        else:
            read_pages = self._read_page_set(
                meta.built_from, certificate.read_tables, sink)
            affected = diff & read_pages
        if not affected and not prepared.references_current_snapshot:
            return ("delta-skip",
                    "no affected pages and snapshot-invariant Qq: "
                    "evaluate once at the target and replay",
                    len(diff), affected)
        if affected:
            reason = (f"{len(affected)} affected pages in "
                      f"{len(certificate.read_tables)} read tables")
        else:
            reason = ("no affected pages but Qq calls "
                      "current_snapshot(); re-evaluating the delta")
        return "delta", reason, len(diff), affected

    def _read_page_set(self, built_from: int,
                       read_tables: Sequence[str],
                       sink: MetricsSink) -> Set[int]:
        """Pages of the read tables (plus the main catalog, so DDL is
        always detected) as of ``built_from``."""
        sink.begin_iteration(built_from)
        try:
            with self.db.reading(as_of=built_from, metrics=sink) as ctx:
                pages: Set[int] = set(ctx.main_catalog_pages())
                for name in read_tables:
                    table = ctx.find_table(name)
                    if table is not None:
                        pages.update(table.tree.page_ids())
                return pages
        finally:
            sink.end_iteration()

    # -- the single write transaction ---------------------------------------

    def _persist(self, meta: ViewMeta, target: int, fold: Fold,
                 report: RefreshReport, insert: bool) -> None:
        """Carry out the fold's write plan and advance (or, for a new
        view, insert) the metadata row in ONE explicit transaction,
        recording on ``report`` what was written.  A restored fold's
        plan names only the rows its steps changed or added, so a delta
        refresh runs no DROP / CREATE TABLE / CREATE INDEX, and an empty
        plan leaves the table's pages alone.  Every statement here
        touches only the aux engine (the result table is TEMP, the
        metadata table is TEMP), so the commit is a single-WAL atomic
        step: a crash recovers to fully-old or fully-new, never a torn
        view.
        """
        result = fold.result()
        state = None if result is None else result.state
        state_sql = "NULL"
        if state is not None:
            state_sql = f"'{_escape(json.dumps(state, sort_keys=True))}'"
        written = result is not None and not result.empty
        with self.db.transaction():
            if written:
                if result.new:  # a rebuild replaces whatever is stored
                    self.db.execute(
                        f"DROP TABLE IF EXISTS {_quote(meta.name)}")
                write_result(self.db, meta.name, result, persistent=False)
                report.table_written = True
                report.rows_changed = len(result.changed)
                report.rows_appended = len(result.rows)
                with self.db.reading() as ctx:
                    report.rows_total = ctx.open_table(meta.name).count()
            if insert:
                arg_sql = ("NULL" if meta.arg is None
                           else f"'{_escape(meta.arg)}'")
                self.db.execute(
                    f"INSERT INTO {VIEWS_TABLE} VALUES ("
                    f"'{_escape(meta.name)}', '{_escape(meta.mechanism)}', "
                    f"'{_escape(meta.qq)}', {arg_sql}, "
                    f"'{_escape(meta.merge_class)}', {target}, {state_sql})"
                )
            else:
                self.db.execute(
                    f"UPDATE {VIEWS_TABLE} SET built_from = {target}, "
                    f"state = {state_sql} "
                    f"WHERE name = '{_escape(meta.name)}'"
                )
        meta.built_from = target
        meta.state = state

    # -- EXPLAIN / listing ---------------------------------------------------

    def explain_refresh(self, name: str, full: bool = False) -> List[str]:
        """Dry-run refresh plan: built_from, affected pages, the
        delta-vs-full decision, and the merge certificate."""
        self._ensure_usable()
        views = self._load_all()
        meta = views.get(name.lower())
        if meta is None:
            raise ViewError(f"unknown materialized view {name!r}")
        certificate = self._certify(meta.mechanism, meta.qq, meta.arg)
        target = self._retro.latest_snapshot_id
        sink = MetricsSink()
        mode, why, diff_count, affected = self._plan(
            meta, views, target, full, certificate, sink,
            prepare_qq(meta.qq))
        lines = [
            f"view {meta.name}: {meta.mechanism} "
            f"[merge class {meta.merge_class}]",
            f"built_from {meta.built_from}, target {target}",
            f"maplog diff {diff_count} pages, affected {len(affected)} "
            f"pages",
            f"decision: {mode} ({why})",
        ]
        report = self.last_reports.get(meta.name.lower())
        if report is not None:
            lines.append(
                f"last refresh: {report.mode}, evaluated "
                f"{report.evaluated_snapshots} snapshots, pagelog reads "
                f"{report.pagelog_reads}, {report.written_line()}"
            )
        lines.extend(certificate.summary_lines())
        return lines

    def list_views(self) -> List[ViewMeta]:
        return sorted(self._load_all().values(),
                      key=lambda m: m.name.lower())

    # -- helpers -------------------------------------------------------------

    @property
    def _retro(self):
        return self.db.engine.retro

    def _certify(self, mechanism: str, qq: str, arg):
        return self._session.certify(mechanism, VIEW_QS, qq, arg=arg)

    def _account(self, report: RefreshReport, sink: MetricsSink) -> None:
        for iteration in sink.iterations:
            report.qq_rows += iteration.qq_rows
            report.pagelog_reads += iteration.pagelog_reads
            report.cache_hits += iteration.cache_hits
            report.db_reads += iteration.db_reads

    def _load_all(self) -> Dict[str, ViewMeta]:
        result = self.db.execute(f"SELECT * FROM {VIEWS_TABLE}")
        views: Dict[str, ViewMeta] = {}
        for row in result.rows:
            name, mechanism, qq, arg, merge_class, built_from, state = row
            views[str(name).lower()] = ViewMeta(
                name=str(name), mechanism=str(mechanism), qq=str(qq),
                arg=None if arg is None else str(arg),
                merge_class=str(merge_class),
                built_from=int(built_from),
                state=None if state is None else json.loads(state),
            )
        return views

    def _dependents_of(self, meta: ViewMeta,
                       views: Dict[str, ViewMeta]) -> List[str]:
        dependents = []
        for other in views.values():
            if other.name.lower() == meta.name.lower():
                continue
            certificate = self._certify(other.mechanism, other.qq,
                                        other.arg)
            reads = {t.lower() for t in certificate.read_tables}
            if meta.name.lower() in reads:
                dependents.append(other.name)
        return dependents

    def _scan_table(self, name: str):
        """A stored result table as ``Fold.restore`` reads it: columns
        and ``(rowid, row)`` pairs, the rowids being what the fold's
        write plan addresses changed rows by."""
        with self.db.reading() as ctx:
            table = ctx.open_table(name)
            return table.info.column_names(), list(table.scan())
