"""The four RQL mechanisms (paper Section 2), implemented as loop bodies
over the snapshot set (paper Section 3).

Every mechanism iterates the snapshot ids returned by Qs, and per
iteration:

1. opens a cursor of Qq, the statement prepared once per run
   (:mod:`repro.core.rewrite`), at ``sid``: the snapshot it reads and
   the value its ``current_snapshot()`` calls return;
2. runs Qq through the engine's row-callback interface
   (the ``sqlite3_exec`` analogue), processing each returned record in a
   mechanism-specific way;
3. meters its costs into a :class:`~repro.retro.metrics.MetricsSink`,
   splitting *query evaluation* (Qq execution) from *RQL UDF* work
   (result-table inserts, index probes, aggregate updates) exactly as
   the paper's figures break them down.

Result tables default to the non-snapshotable aux database (the paper's
"temporary non-snapshotable table"); ``persistent=True`` places them in
the snapshotable main database instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import MechanismError, QueryCancelled
from repro.core.rewrite import PreparedQq, prepare_qq, validate_qs
from repro.retro.metrics import MetricsSink
from repro.sql.aggregates import (
    Aggregate,
    mergeable_aggregate,
    parse_col_func_pairs,
)
from repro.sql.database import Database
from repro.sql.executor import TableWriter
from repro.sql.types import SqlValue


@dataclass
class RQLResult:
    """Outcome of one RQL mechanism run."""

    table: str
    snapshots: List[int]
    metrics: MetricsSink
    result_rows: int = 0
    result_table_bytes: int = 0
    result_index_bytes: int = 0
    #: visible result columns (AggregateDataInTable's own hidden AVG
    #: helper columns excluded)
    columns: List[str] = field(default_factory=list)
    #: :class:`repro.core.parallel.ParallelRunInfo` when the run used the
    #: parallel executor; None for serial runs
    parallel: Optional[object] = None

    @property
    def iterations(self) -> int:
        return len(self.snapshots)


def _quote(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def result_index_name(table: str) -> str:
    return f"__rqlidx_{table.lower()}"


def create_result_table(db: Database, table: str, columns: Sequence[str],
                        persistent: bool) -> None:
    temp = "" if persistent else "TEMP "
    cols = ", ".join(_quote(c) for c in columns)
    db.execute(f"CREATE {temp}TABLE {_quote(table)} ({cols})")


def create_result_index(db: Database, table: str,
                        columns: Sequence[str]) -> None:
    cols = ", ".join(_quote(c) for c in columns)
    db.execute(
        f"CREATE INDEX {_quote(result_index_name(table))} ON "
        f"{_quote(table)} ({cols})"
    )


class _LoopBody:
    """Common driver: Qs evaluation, iteration metering, result stats.

    Subclasses supply ``first_pass`` / ``next_pass``: what to do with
    the Qq cursor on the first and on every later iteration.  Each
    returns the seconds it spent on RQL UDF work (result-table inserts,
    index probes, aggregate updates); :meth:`_metered_pass` charges the
    rest of the iteration to query evaluation.
    """

    #: set by subclasses that create an index on the result table
    index_name: Optional[str] = None

    def __init__(self, db: Database, qq: str, table: str,
                 persistent: bool = False,
                 sink: Optional[MetricsSink] = None) -> None:
        self.db = db
        self.qq = qq
        self.table = table
        self.persistent = persistent
        # An injected sink carries its own monotonic clock, making every
        # timing in this run deterministic under test.
        self.sink = sink if sink is not None else MetricsSink()
        self._first_done = False
        #: Qq parsed and validated by the first iteration, bound by all
        self._prepared: Optional[PreparedQq] = None

    # -- public ------------------------------------------------------------

    def run(self, qs: str, cancel: Optional[object] = None) -> RQLResult:
        """Drive the loop body over Qs's snapshot ids.

        ``cancel`` (an object with ``is_set()``, e.g. threading.Event)
        is polled between iterations: once it is set, the run stops at
        the next snapshot boundary with :class:`QueryCancelled`.
        """
        validate_qs(qs)
        snapshot_ids = [int(row[0]) for row in self.db.execute(qs).rows]
        for snapshot_id in snapshot_ids:
            if cancel is not None and cancel.is_set():
                raise QueryCancelled(
                    f"query over {self.table!r} cancelled before "
                    f"snapshot {snapshot_id}"
                )
            self.iteration(snapshot_id)
        self.finalize()
        return build_result(self.db, self.table, snapshot_ids, self.sink,
                            self.index_name, self.helper_positions())

    def iteration(self, snapshot_id: int) -> None:
        """One loop-body invocation (also the UDF entry point)."""
        self.sink.begin_iteration(snapshot_id)
        try:
            self._iteration(snapshot_id, first=not self._first_done)
            self._first_done = True
        finally:
            self.sink.end_iteration()

    def finalize(self) -> None:
        """Post-loop work (only AggregateDataInVariable needs any)."""

    # -- subclass protocol ------------------------------------------------------

    def _iteration(self, snapshot_id: int, first: bool) -> None:
        """Table-backed default: one transaction per iteration."""
        with self.db.transaction():
            self._metered_pass(snapshot_id, first)

    def first_pass(self, columns: List[str], rows, snapshot_id: int) -> float:
        raise NotImplementedError

    def next_pass(self, columns: List[str], rows, snapshot_id: int) -> float:
        raise NotImplementedError

    def helper_positions(self) -> FrozenSet[int]:
        """Result-table positions hidden from ``RQLResult.columns``."""
        return frozenset()

    # -- helpers -----------------------------------------------------------------

    def _metered_pass(self, snapshot_id: int, first: bool) -> None:
        """Run Qq at the snapshot through the subclass pass,
        splitting the iteration into Qq evaluation vs RQL UDF work."""
        clock = self.sink.clock
        current = self.sink.current
        index_before = current.index_creation_seconds
        started = clock()
        prepared = self._prepared
        if prepared is None:
            prepared = self._prepared = prepare_qq(self.qq)
        columns, rows = self.db.open_cursor(prepared.statement,
                                            snapshot_id,
                                            metrics=self.sink,
                                            memo=prepared.memo)
        if first:
            udf = self.first_pass(columns, rows, snapshot_id)
        else:
            udf = self.next_pass(columns, rows, snapshot_id)
        total = clock() - started
        # Auto covering-index builds inside Qq are metered separately
        # (index_creation); keep them out of query evaluation.
        index_delta = current.index_creation_seconds - index_before
        current.udf_seconds += udf
        current.query_eval_seconds += max(total - udf - index_delta, 0.0)

    def _timed_index(self, columns: Sequence[str]) -> float:
        """Build the result-table index at the end of the first
        iteration (paper Section 3).  Its cost belongs to the UDF
        (Figure 12), not to Qq index creation."""
        started = self.sink.clock()
        create_result_index(self.db, self.table, columns)
        return self.sink.clock() - started

    def _result_index(self, writer: TableWriter):
        name = result_index_name(self.table)
        for index in writer.indexes:
            if index.info.name.lower() == name:
                return index
        raise MechanismError("result-table index vanished")


def build_result(db: Database, table: str, snapshot_ids: List[int],
                 sink: MetricsSink, index_name: Optional[str],
                 helpers: FrozenSet[int] = frozenset(),
                 parallel: Optional[object] = None) -> RQLResult:
    result = RQLResult(table=table, snapshots=snapshot_ids, metrics=sink,
                       parallel=parallel)
    stats = _result_table_stats(db, table, index_name)
    if stats is not None:
        (result.result_rows, result.result_table_bytes,
         result.result_index_bytes, all_columns) = stats
        result.columns = [c for i, c in enumerate(all_columns)
                          if i not in helpers]
    return result


def _result_table_stats(db: Database, table: str,
                        index_name: Optional[str]):
    """(rows, table_bytes, index_bytes, columns) for a result table."""
    with db.reading() as ctx:
        found = ctx.find_table(table)
        if found is None:
            return None
        index_bytes = 0
        if index_name is not None:
            index_bytes = sum(
                ctx.storage_bytes(index)
                for index in ctx.open_indexes(found)
                if index.info.name.lower() == index_name.lower())
        return (found.count(), ctx.storage_bytes(found), index_bytes,
                found.info.column_names())


# ---------------------------------------------------------------------------
# Collate Data
# ---------------------------------------------------------------------------

class CollateDataRun(_LoopBody):
    """Collect Qq records from every snapshot into one table.

    First iteration: ``CREATE TABLE T AS Qq`` (within the snapshot);
    subsequent: ``INSERT INTO T Qq``.  The result table has no primary
    key and no index — Figure 12's cheap-insert explanation.
    """

    def first_pass(self, columns: List[str], rows, snapshot_id: int) -> float:
        create_result_table(self.db, self.table, columns, self.persistent)
        return self.next_pass(columns, rows, snapshot_id)

    def next_pass(self, columns: List[str], rows, snapshot_id: int) -> float:
        _, writer = self.db.table_writer(self.table)
        clock = self.sink.clock
        current = self.sink.current
        udf = 0.0
        for row in rows:
            current.qq_rows += 1
            cb = clock()
            writer.insert(row)
            udf += clock() - cb
        return udf


# ---------------------------------------------------------------------------
# Aggregate Data In Variable
# ---------------------------------------------------------------------------

class AggregateDataInVariableRun(_LoopBody):
    """Fold a single scalar across snapshots with a monoid aggregate.

    Qq must return a single column and at most one row per snapshot (a
    snapshot contributing no rows is skipped).  The folded value lands
    in table T at the end.
    """

    def __init__(self, db: Database, qq: str, table: str, agg_func: str,
                 persistent: bool = False,
                 sink: Optional[MetricsSink] = None) -> None:
        super().__init__(db, qq, table, persistent, sink=sink)
        self.state: Aggregate = mergeable_aggregate(agg_func)
        self._column: Optional[str] = None

    def _iteration(self, snapshot_id: int, first: bool) -> None:
        # Nothing is written until finalize(): no transaction.
        self._metered_pass(snapshot_id, first)

    def next_pass(self, columns: List[str], rows, snapshot_id: int) -> float:
        # The column count is known before any row: a wrong Qq fails
        # without scanning the snapshot.
        if len(columns) != 1:
            raise MechanismError(
                "AggregateDataInVariable requires a single-column Qq"
            )
        collected: List[Sequence[SqlValue]] = []
        clock = self.sink.clock
        current = self.sink.current
        udf = 0.0
        for row in rows:
            current.qq_rows += 1
            cb = clock()
            collected.append(row)
            udf += clock() - cb
        if self._column is None:
            self._column = columns[0]
        if len(collected) > 1:
            raise MechanismError(
                "AggregateDataInVariable requires Qq to return a single "
                f"row; snapshot {snapshot_id} returned {len(collected)}"
            )
        started = clock()
        if collected:
            self.state.step(collected[0][0])
        return udf + clock() - started

    first_pass = next_pass

    def finalize(self) -> None:
        if self._column is None:
            return
        with self.db.transaction():
            create_result_table(self.db, self.table, [self._column],
                                self.persistent)
            _, writer = self.db.table_writer(self.table)
            writer.insert((self.state.result(),))


# ---------------------------------------------------------------------------
# Aggregate Data In Table
# ---------------------------------------------------------------------------

class _Column(NamedTuple):
    """One aggregated column of a stored group row."""

    position: int          #: the visible column
    #: scratch accumulators a stored state is loaded into; ``other``
    #: holds the later row's in :meth:`TableAggregateSchema.merge`
    acc: Aggregate
    other: Aggregate
    #: AVG's hidden helper positions; None when the state is the
    #: visible value (MIN/MAX/SUM/COUNT)
    sum_pos: Optional[int]
    cnt_pos: Optional[int]


def _load(acc: Aggregate, stored: Sequence[SqlValue], position: int,
          sum_pos: Optional[int], cnt_pos: Optional[int]) -> None:
    if sum_pos is None:
        acc.value = stored[position]
    else:
        acc.sum, acc.count = stored[sum_pos], stored[cnt_pos]


def _save(acc: Aggregate, out: List[SqlValue], position: int,
          sum_pos: Optional[int], cnt_pos: Optional[int]) -> None:
    if sum_pos is not None:
        out[sum_pos], out[cnt_pos] = acc.sum, acc.count
    out[position] = acc.result()


class TableAggregateSchema:
    """Schema binding + per-record fold logic for AggregateDataInTable.

    Shared by the serial index-probe run, the sort-merge ablation
    variant, and the in-memory stored-row fold
    (:class:`repro.core.folds.StoredRowFold`), so all three agree
    byte-for-byte on widened rows and aggregate updates — including the
    hidden ``__avg_sum_i`` / ``__avg_cnt_i`` helper columns.

    A stored row holds each aggregate's state: MIN/MAX/SUM/COUNT's is
    the visible value; AVG's is the helper pair, and its visible column
    is the aggregate's result.  Every step and merge is the aggregate's
    own (:mod:`repro.sql.aggregates`), run on a scratch accumulator per
    column that the stored state is loaded into.
    """

    def __init__(self, pairs: List[Tuple[str, str]]) -> None:
        self.pairs = pairs
        self.group_positions: List[int] = []
        self.agg_specs: List[_Column] = []
        self.columns: List[str] = []
        #: stored positions of this schema's own AVG helper columns —
        #: what "hidden" means; a Qq column merely *named* like a
        #: helper is ordinary output
        self.helper_positions: FrozenSet[int] = frozenset()
        #: (stored position, value) of every aggregate's identity state
        self._fresh: List[Tuple[int, SqlValue]] = []

    @property
    def bound(self) -> bool:
        return bool(self.columns)

    def bind(self, columns: List[str]) -> None:
        lowered = [c.lower() for c in columns]
        agg_columns = {}
        for column, func in self.pairs:
            if column.lower() not in lowered:
                raise MechanismError(
                    f"aggregation column {column!r} not in Qq output "
                    f"{columns}"
                )
            agg_columns[lowered.index(column.lower())] = func
        self.group_positions = [
            i for i in range(len(columns)) if i not in agg_columns
        ]
        if not self.group_positions:
            raise MechanismError(
                "AggregateDataInTable needs at least one grouping column; "
                "use AggregateDataInVariable for scalar aggregation"
            )
        stored = list(columns)
        self.agg_specs = []
        self._fresh = []
        for position, func in sorted(agg_columns.items()):
            sum_pos = cnt_pos = None
            if func == "avg":
                sum_pos, cnt_pos = len(stored), len(stored) + 1
                stored += [f"__avg_sum_{position}", f"__avg_cnt_{position}"]
            fresh = mergeable_aggregate(func)
            self.agg_specs.append(_Column(
                position, fresh, mergeable_aggregate(func), sum_pos, cnt_pos))
            self._fresh.append((position, fresh.result()))
            if sum_pos is not None:
                self._fresh += [(sum_pos, fresh.sum), (cnt_pos, fresh.count)]
        self.columns = stored
        self.helper_positions = frozenset(range(len(columns), len(stored)))

    def bind_stored(self, stored: Sequence[str]) -> None:
        """Bind from a result table's column list: the Qq output is the
        stored columns minus this schema's own trailing helper pairs
        (one per distinct AVG position)."""
        lowered = [c.lower() for c in stored]
        funcs = {lowered.index(column.lower()): func
                 for column, func in self.pairs
                 if column.lower() in lowered}
        helpers = 2 * sum(1 for func in funcs.values() if func == "avg")
        self.bind(list(stored[:len(stored) - helpers]))

    def widen(self, row: Sequence[SqlValue]) -> Tuple[SqlValue, ...]:
        """A fresh group row: every aggregate's identity state with the
        record stepped in, AVG's helpers appended.

        So COUNT starts at 1 (the stored column counts the snapshots a
        group appears in, not the group's first Qq value), SUM at the
        value as a number, and AVG's visible column at its average.
        """
        out = list(row)
        out += [None] * len(self.helper_positions)
        for at, value in self._fresh:
            out[at] = value
        self._step(out, row)
        return tuple(out)

    def apply(self, existing: Sequence[SqlValue],
              row: Sequence[SqlValue]) -> Optional[Tuple[SqlValue, ...]]:
        """Step one Qq record into the stored group row.

        Returns the new stored row, or None when nothing changed (MAX/
        MIN often don't — the paper's Figure 13 contrast with SUM).
        """
        out = list(existing)
        return tuple(out) if self._step(out, row) else None

    def _step(self, out: List[SqlValue], row: Sequence[SqlValue]) -> bool:
        """Step the record's values into the states ``out`` holds; False
        when no state changed."""
        changed = False
        for position, acc, _other, sum_pos, cnt_pos in self.agg_specs:
            value = row[position]
            if value is None:
                continue
            if sum_pos is None:
                old = acc.value = out[position]
                acc.step(value)
                if acc.value is old and acc.idempotent:
                    continue
                out[position] = acc.value
            else:
                acc.sum, acc.count = out[sum_pos], out[cnt_pos]
                acc.step(value)
                _save(acc, out, position, sum_pos, cnt_pos)
            changed = True
        return changed

    def merge(self, earlier: Sequence[SqlValue],
              later: Sequence[SqlValue]) -> Tuple[SqlValue, ...]:
        """Merge the stored rows of one group from two contiguous
        snapshot ranges (``earlier`` precedes ``later``): each
        aggregate's merge over their states, exactly what stepping the
        later range's records onto ``earlier`` would have stored."""
        out = list(earlier)
        for position, acc, other, sum_pos, cnt_pos in self.agg_specs:
            _load(acc, earlier, position, sum_pos, cnt_pos)
            _load(other, later, position, sum_pos, cnt_pos)
            acc.merge(other)
            _save(acc, out, position, sum_pos, cnt_pos)
        return tuple(out)


class AggregateDataInTableRun(_LoopBody):
    """Across-time GROUP BY (paper Section 2.3).

    Grouping columns are the Qq output columns *not* listed in
    ListOfColFuncPairs.  The first iteration creates T, inserts the Qq
    output, and builds an index on the grouping columns; subsequent
    iterations probe the index per Qq record and update or insert.

    AVG columns keep hidden ``__avg_sum_i`` / ``__avg_cnt_i`` helper
    columns in T (the paper's "simple extension" for the non-monoid
    AVG); the visible column always holds the current average.
    """

    def __init__(self, db: Database, qq: str, table: str, col_func_pairs,
                 persistent: bool = False,
                 sink: Optional[MetricsSink] = None) -> None:
        super().__init__(db, qq, table, persistent, sink=sink)
        self.pairs = parse_col_func_pairs(col_func_pairs)
        self.index_name = result_index_name(table)
        self.schema = TableAggregateSchema(self.pairs)
        #: operation counters (Figure 13 contrasts SUM's ~1M updates
        #: with MAX's ~22K)
        self.probes = 0
        self.updates_applied = 0
        self.rows_inserted = 0

    def helper_positions(self) -> FrozenSet[int]:
        return self.schema.helper_positions

    def first_pass(self, columns: List[str], rows, snapshot_id: int) -> float:
        schema = self.schema
        schema.bind(columns)
        create_result_table(self.db, self.table, schema.columns,
                            self.persistent)
        return self._insert_pass(rows) + self._timed_index(
            [schema.columns[p] for p in schema.group_positions])

    def _insert_pass(self, rows) -> float:
        _, writer = self.db.table_writer(self.table)
        widen = self.schema.widen
        clock = self.sink.clock
        current = self.sink.current
        udf = 0.0
        for row in rows:
            current.qq_rows += 1
            cb = clock()
            writer.insert(widen(row))
            self.rows_inserted += 1
            udf += clock() - cb
        return udf

    def next_pass(self, columns: List[str], rows, snapshot_id: int) -> float:
        table, writer = self.db.table_writer(self.table)
        index = self._result_index(writer)
        schema = self.schema
        group_positions = schema.group_positions
        clock = self.sink.clock
        current = self.sink.current
        udf = 0.0
        for row in rows:
            current.qq_rows += 1
            cb = clock()
            group_values = [row[p] for p in group_positions]
            rowid = next(iter(index.lookup_equal(group_values)), None)
            self.probes += 1
            if rowid is None:
                writer.insert(schema.widen(row))
                self.rows_inserted += 1
            else:
                existing = table.get(rowid)
                updated = schema.apply(existing, row)
                if updated is not None:
                    writer.update(rowid, updated)
                    self.updates_applied += 1
            udf += clock() - cb
        return udf


# ---------------------------------------------------------------------------
# Collate Data Into Intervals
# ---------------------------------------------------------------------------

class CollateDataIntoIntervalsRun(_LoopBody):
    """Compress per-snapshot records into lifetime intervals.

    T holds the Qq columns plus ``start_snapshot`` / ``end_snapshot``.
    A record present in consecutive snapshots extends its interval; a
    gap (record absent then reappearing) opens a new interval — the
    record-lifetime representation of temporal databases (Section 2.4).
    """

    START_COLUMN = "start_snapshot"
    END_COLUMN = "end_snapshot"

    def __init__(self, db: Database, qq: str, table: str,
                 persistent: bool = False,
                 sink: Optional[MetricsSink] = None) -> None:
        super().__init__(db, qq, table, persistent, sink=sink)
        self.index_name = result_index_name(table)
        self._qq_width = 0
        self._previous_snapshot: Optional[int] = None

    def _iteration(self, snapshot_id: int, first: bool) -> None:
        super()._iteration(snapshot_id, first)
        self._previous_snapshot = snapshot_id

    def first_pass(self, columns: List[str], rows, snapshot_id: int) -> float:
        self._qq_width = len(columns)
        create_result_table(
            self.db, self.table,
            list(columns) + [self.START_COLUMN, self.END_COLUMN],
            self.persistent,
        )
        _, writer = self.db.table_writer(self.table)
        clock = self.sink.clock
        current = self.sink.current
        udf = 0.0
        for row in rows:
            current.qq_rows += 1
            cb = clock()
            writer.insert(tuple(row) + (snapshot_id, snapshot_id))
            udf += clock() - cb
        return udf + self._timed_index(columns)

    def next_pass(self, columns: List[str], rows, snapshot_id: int) -> float:
        table, writer = self.db.table_writer(self.table)
        index = self._result_index(writer)
        end_position = self._qq_width + 1
        previous = self._previous_snapshot
        clock = self.sink.clock
        current = self.sink.current
        udf = 0.0
        for row in rows:
            current.qq_rows += 1
            cb = clock()
            values = list(row)
            extended = False
            for rowid in index.lookup_equal(values):
                stored = table.get(rowid)
                if stored is not None and stored[end_position] == previous:
                    new_row = list(stored)
                    new_row[end_position] = snapshot_id
                    writer.update(rowid, tuple(new_row))
                    extended = True
                    break
            if not extended:
                writer.insert(tuple(values) + (snapshot_id, snapshot_id))
            udf += clock() - cb
        return udf
