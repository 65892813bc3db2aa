"""The fold algebra: one in-memory fold per merge class.

The paper defines the four mechanisms as folds over the snapshot set
(Sections 2-3); rqlint's merge classes name the algebra.  Each class is
written once here and run three ways:

* **partitions** — every mechanism call steps a private fold over each
  contiguous snapshot range of its run (:func:`fold_range`);
* **merge** — ``fold.merge(later)`` absorbs the fold of the *next*
  contiguous range, exactly as if its snapshots had been stepped here;
* **view refresh** — ``Fold.restore`` rebuilds the fold from a stored
  result, and stepping it over the newly declared snapshots performs
  the serial loop's operations in the serial order; its result is then
  a write plan naming only the stored rows those steps changed and the
  rows they added (:class:`FoldResult`, :func:`write_result`).

Laws (``tests/core/test_aggregate_monoid_props.py``)::

    fold(A).merge(fold(B)).result() == fold(A + B).result()
    restore(fold(A).result()).step*(B).result() == fold(A + B).result()

The second holds bit-for-bit on floats (same additions, same order);
the first re-associates and is exact only where addition is.

The table-backed loop (:mod:`repro.core.mechanisms`) stays a separate
implementation on purpose: it is the reference every differential
harness compares these folds against (``RQLSession.run_reference``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.core.aggregates import (
    merge_avg_stored,
    merge_stored_value,
    make_cross_snapshot_aggregate,
    parse_col_func_pairs,
    restore_cross_snapshot_aggregate,
)
from repro.core.mechanisms import (
    AggregateDataInTableRun,
    AggregateDataInVariableRun,
    CollateDataIntoIntervalsRun,
    CollateDataRun,
    TableAggregateSchema,
    create_result_index,
    create_result_table,
)
from repro.core.rewrite import PreparedQq
from repro.errors import MechanismError
from repro.retro.metrics import MetricsSink
from repro.sql.database import Database
from repro.sql.types import SqlValue
from repro.storage.record import encode_key

CONCAT = "concat"
MONOID = "monoid"
STORED_ROW = "stored-row"
INTERVAL_STITCH = "interval-stitch"
SERIAL_ONLY = "serial-only"

Row = Tuple[SqlValue, ...]
#: reads a stored result table: () -> (columns, [(rowid, row), ...])
StoredTable = Callable[[], Tuple[List[str], List[Tuple[int, Row]]]]


class FoldResult(NamedTuple):
    """What a fold writes, as a plan: is the table new, which stored
    rows change, which rows follow them.  A fold that was not restored
    writes a new table holding ``rows``; a restored one names what its
    steps did to the stored table, and an empty plan writes nothing."""

    columns: List[str]                   #: stored columns, helpers included
    #: rows to add after the stored ones (a new table: all of them)
    rows: List[Row]
    index_columns: Optional[List[str]] = None
    state: Optional[dict] = None         #: JSON fold state (monoid only)
    #: False when restored: the table, and its index, are already there
    new: bool = True
    #: stored rows to overwrite, ``(rowid, row)`` ascending by the rowid
    #: they were read under; none of them moves in the index
    changed: Sequence[Tuple[int, Row]] = ()
    #: stored positions hidden from ``RQLResult.columns``
    helpers: FrozenSet[int] = frozenset()

    @property
    def empty(self) -> bool:
        """Nothing to write: the stored table already is the result."""
        return not (self.new or self.changed or self.rows)


def _differs(row: Row, stored: Row) -> bool:
    """Would ``row`` be stored as other bytes than ``stored`` was?
    (``==`` alone takes 1 for 1.0 and 0.0 for -0.0.)"""
    return row is not stored and (row != stored
                                  or repr(row) != repr(stored))


def _plan(stored: Optional[List[Tuple[int, Row]]],
          rows: List[Row]) -> dict:
    """The write plan of a fold whose table is now ``rows``.  Restored
    from the ``(rowid, row)`` pairs ``stored``, the first ``len(stored)``
    rows stand where those pairs were read and the rest are new; not
    restored (``stored`` is None), the table is new."""
    if stored is None:
        return dict(rows=rows)
    return dict(
        new=False,
        changed=[(rowid, row) for (rowid, old), row in zip(stored, rows)
                 if _differs(row, old)],
        rows=rows[len(stored):],
    )


class Fold:
    """One merge class's fold over a contiguous snapshot range.

    ``first`` says the range opens the whole run (only the stored-row
    class cares: the serial first iteration inserts unprobed).
    """

    merge_class = ""

    def __init__(self, arg: object = None, first: bool = True) -> None:
        #: Qq output columns, bound by the first step
        self.columns: Optional[List[str]] = None

    def step(self, sid: int, columns: List[str],
             rows: Sequence[Row]) -> None:
        """Fold one snapshot's Qq output, as the serial loop would."""
        raise NotImplementedError

    def merge(self, later: "Fold") -> None:
        """Absorb the fold of the next contiguous snapshot range.  May
        fold into ``self`` only; ``later`` is left untouched."""
        raise NotImplementedError

    @classmethod
    def restore(cls, arg: object, stored: StoredTable,
                state: Optional[dict], last_sid: int) -> Optional["Fold"]:
        """The fold whose result is a stored table built through
        ``last_sid`` (None when the stored state cannot seed one).  Its
        :meth:`result` is the plan that brings that table up to date."""
        raise NotImplementedError

    def result(self) -> Optional[FoldResult]:
        """None until a step has bound the Qq columns (no table yet)."""
        raise NotImplementedError


class ConcatFold(Fold):
    """CollateData: row-stream concatenation in snapshot order."""

    merge_class = CONCAT

    def __init__(self, arg: object = None, first: bool = True) -> None:
        super().__init__()
        self.rows: List[Row] = []
        self._restored = False

    def step(self, sid, columns, rows) -> None:
        if self.columns is None:
            self.columns = list(columns)
        self.rows.extend(rows)

    def merge(self, later: "ConcatFold") -> None:
        if self.columns is None:
            self.columns = later.columns
        self.rows.extend(later.rows)

    @classmethod
    def restore(cls, arg, stored, state, last_sid) -> "ConcatFold":
        # The stored rows are exactly the serial prefix: carry only the
        # rows to append, never read the table back.
        fold = cls()
        fold._restored = True
        return fold

    def result(self) -> Optional[FoldResult]:
        if self.columns is None:
            return None
        return FoldResult(self.columns, self.rows, new=not self._restored)


class MonoidFold(Fold):
    """AggregateDataInVariable: an abelian-monoid fold of one scalar per
    snapshot (AVG as its (sum, count) pair)."""

    merge_class = MONOID

    def __init__(self, arg: object = None, first: bool = True) -> None:
        super().__init__()
        self.state = make_cross_snapshot_aggregate(str(arg))
        #: the stored ``(rowid, row)`` pairs a restore read (one row)
        self._stored: Optional[List[Tuple[int, Row]]] = None

    def step(self, sid, columns, rows) -> None:
        if len(columns) != 1:
            raise MechanismError(
                "AggregateDataInVariable requires a single-column Qq"
            )
        if self.columns is None:
            self.columns = list(columns)
        if len(rows) > 1:
            raise MechanismError(
                "AggregateDataInVariable requires Qq to return a single "
                f"row; snapshot {sid} returned {len(rows)}"
            )
        if rows:
            self.state.absorb(rows[0][0])

    def merge(self, later: "MonoidFold") -> None:
        if self.columns is None:
            self.columns = later.columns
        self.state.merge(later.state)

    @classmethod
    def restore(cls, arg, stored, state, last_sid) -> Optional["MonoidFold"]:
        if not state or "column" not in state or "func" not in state:
            return None
        fold = cls(state["func"])
        fold.columns = [state["column"]]
        fold.state = restore_cross_snapshot_aggregate(state)
        fold._stored = stored()[1][:1]
        return fold

    def result(self) -> Optional[FoldResult]:
        if self.columns is None:
            return None
        state: Optional[dict] = dict(self.state.dump(),
                                     column=self.columns[0])
        try:
            json.dumps(state)
        except (TypeError, ValueError):
            # A value JSON cannot round-trip: the next delta refresh
            # finds no state and falls back to a full recompute.
            state = None
        return FoldResult(
            self.columns, state=state,
            **_plan(self._stored, [(self.state.result(),)]))


class StoredRowFold(Fold):
    """AggregateDataInTable: one stored row per group, keyed by
    ``encode_key`` of the grouping values — the identity the serial
    index probe uses (so 1 and 1.0 coalesce, as in the index)."""

    merge_class = STORED_ROW

    def __init__(self, arg: object = None, first: bool = True) -> None:
        super().__init__()
        self.schema = TableAggregateSchema(list(parse_col_func_pairs(arg)))
        self.rows: List[Row] = []
        #: group key -> position of the group's earliest row, the one
        #: the serial probe would find
        self._by_key: Dict[bytes, int] = {}
        self._first = first
        #: the stored ``(rowid, row)`` pairs a restore read; ``rows``
        #: starts as the same row objects, so an untouched row is
        #: recognised by identity
        self._stored: Optional[List[Tuple[int, Row]]] = None

    def _key(self, row: Sequence[SqlValue]) -> bytes:
        return encode_key(
            tuple(row[p] for p in self.schema.group_positions))

    def step(self, sid, columns, rows) -> None:
        schema = self.schema
        if not schema.bound:
            schema.bind(columns)
            self.columns = list(columns)
        stored, by_key = self.rows, self._by_key
        if self._first:
            # The serial first pass inserts every record without
            # probing, so duplicate group rows survive.
            self._first = False
            for row in rows:
                by_key.setdefault(self._key(row), len(stored))
                stored.append(schema.widen(row))
        else:
            for row in rows:
                key = self._key(row)
                at = by_key.get(key)
                if at is None:
                    by_key[key] = len(stored)
                    stored.append(schema.widen(row))
                else:
                    updated = schema.apply(stored[at], row)
                    if updated is not None:
                        stored[at] = updated

    def merge(self, later: "StoredRowFold") -> None:
        # ``later`` ran pure probe semantics: one row per group, each
        # folded onto the earliest accumulated row of its group.
        if not self.schema.bound:
            self.schema, self.columns = later.schema, later.columns
        stored, by_key = self.rows, self._by_key
        for row in later.rows:
            key = self._key(row)
            at = by_key.get(key)
            if at is None:
                by_key[key] = len(stored)
                stored.append(row)
            else:
                stored[at] = self._merge_rows(stored[at], row)

    def _merge_rows(self, earlier: Row, later: Row) -> Row:
        out = list(earlier)
        for position, func, sum_pos, cnt_pos in self.schema.agg_specs:
            if func == "avg":
                assert sum_pos is not None and cnt_pos is not None
                (out[position], out[sum_pos],
                 out[cnt_pos]) = merge_avg_stored(
                    earlier[position], earlier[sum_pos], earlier[cnt_pos],
                    later[position], later[sum_pos], later[cnt_pos],
                )
            else:
                out[position] = merge_stored_value(
                    func, earlier[position], later[position],
                )
        return tuple(out)

    @classmethod
    def restore(cls, arg, stored, state, last_sid) -> "StoredRowFold":
        fold = cls(arg, first=False)
        columns, fold._stored = stored()
        fold.schema.bind_stored(columns)
        fold.columns = columns[:len(columns)
                               - len(fold.schema.helper_positions)]
        for _rowid, row in fold._stored:
            fold._by_key.setdefault(fold._key(row), len(fold.rows))
            fold.rows.append(row)
        return fold

    def result(self) -> Optional[FoldResult]:
        schema = self.schema
        if not schema.bound:
            return None
        # A changed row keeps the group columns it was found by, which
        # are the index's columns: it never moves in the index.
        return FoldResult(
            list(schema.columns),
            index_columns=[schema.columns[p]
                           for p in schema.group_positions],
            helpers=schema.helper_positions,
            **_plan(self._stored, self.rows),
        )


class IntervalFold(Fold):
    """CollateDataIntoIntervals: a record present in consecutive
    snapshots extends its interval; a gap reopens."""

    merge_class = INTERVAL_STITCH

    def __init__(self, arg: object = None, first: bool = True) -> None:
        super().__init__()
        #: [key, values, start, end] in open order (the serial result
        #: table's rowid order)
        self.intervals: List[list] = []
        self._by_key: Dict[bytes, List[int]] = {}
        self._first_sid: Optional[int] = None
        self._last_sid: Optional[int] = None
        #: ``(rowid, end)`` of the stored intervals a restore read, in
        #: ``intervals`` order (which they open)
        self._stored: Optional[List[Tuple[int, int]]] = None

    def _extend(self, key: bytes, ended_at: Optional[int],
                end: int) -> bool:
        """Move the earliest ``key`` interval ending at ``ended_at`` to
        ``end`` — the row the serial index probe would update."""
        if ended_at is not None:
            for at in self._by_key.get(key, ()):
                interval = self.intervals[at]
                if interval[3] == ended_at:
                    interval[3] = end
                    return True
        return False

    def _open(self, key: bytes, values: Row, start: int, end: int) -> None:
        self._by_key.setdefault(key, []).append(len(self.intervals))
        self.intervals.append([key, values, start, end])

    def step(self, sid, columns, rows) -> None:
        if self.columns is None:
            self.columns = list(columns)
        if self._first_sid is None:
            self._first_sid = sid
        previous = self._last_sid
        for row in rows:
            values = tuple(row)
            key = encode_key(values)
            if not self._extend(key, previous, sid):
                self._open(key, values, sid, sid)
        self._last_sid = sid

    def merge(self, later: "IntervalFold") -> None:
        # Only the boundary interacts: a later interval that starts at
        # the later range's first snapshot continues an interval ending
        # at this range's last one.
        if self.columns is None:
            self.columns = later.columns
        if later._first_sid is None:
            return
        for key, values, start, end in later.intervals:
            if start != later._first_sid \
                    or not self._extend(key, self._last_sid, end):
                self._open(key, values, start, end)
        if self._first_sid is None:
            self._first_sid = later._first_sid
        self._last_sid = later._last_sid

    @classmethod
    def restore(cls, arg, stored, state, last_sid) -> "IntervalFold":
        fold = cls()
        columns, pairs = stored()
        fold.columns = columns[:-2]
        for _rowid, row in pairs:
            values = row[:-2]
            fold._open(encode_key(values), values, row[-2], row[-1])
        fold._first_sid = fold._last_sid = last_sid
        fold._stored = [(rowid, row[-1]) for rowid, row in pairs]
        return fold

    def result(self) -> Optional[FoldResult]:
        if self.columns is None:
            return None
        columns = self.columns + [CollateDataIntoIntervalsRun.START_COLUMN,
                                  CollateDataIntoIntervalsRun.END_COLUMN]
        # A stored interval changes only by its end moving; its values
        # are the index's columns, so it never moves in the index.
        stored = self._stored or ()
        return FoldResult(
            columns,
            [values + (start, end) for _key, values, start, end
             in self.intervals[len(stored):]],
            index_columns=self.columns, new=self._stored is None,
            changed=[(rowid, values + (start, now))
                     for (rowid, end), (_key, values, start, now)
                     in zip(stored, self.intervals) if now != end],
        )


# ---------------------------------------------------------------------------
# The mechanism registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mechanism:
    """One RQL mechanism: its names, fold and serial reference run."""

    name: str                 #: display / certificate name
    takes_arg: bool           #: AggFunc / ListOfColFuncPairs argument
    fold: Type[Fold]
    serial: type              #: ``Run(db, qq, table[, arg], persistent)``

    @property
    def merge_class(self) -> str:
        return self.fold.merge_class


#: canonical name (lowered, underscores dropped) -> mechanism.  The
#: certificate side keeps its own table
#: (``analysis.query.mergeclass.MECHANISM_CLASSES`` — the analysis
#: package must not import ``repro.core``); a test asserts they agree.
MECHANISMS: Dict[str, Mechanism] = {
    m.name.lower(): m for m in (
        Mechanism("CollateData", False, ConcatFold, CollateDataRun),
        Mechanism("AggregateDataInVariable", True, MonoidFold,
                  AggregateDataInVariableRun),
        Mechanism("AggregateDataInTable", True, StoredRowFold,
                  AggregateDataInTableRun),
        Mechanism("CollateDataIntoIntervals", False, IntervalFold,
                  CollateDataIntoIntervalsRun),
    )
}


def find_mechanism(name: str) -> Mechanism:
    """Look a mechanism up by any spelling (``CollateData``,
    ``collate_data``, ...)."""
    found = MECHANISMS.get(name.replace("_", "").strip().lower())
    if found is None:
        raise MechanismError(
            f"unknown mechanism {name!r}; one of "
            f"{', '.join(sorted(m.name for m in MECHANISMS.values()))}"
        )
    return found


# ---------------------------------------------------------------------------
# The drivers' shared halves: the snapshot loop and the result writer
# ---------------------------------------------------------------------------

def fold_range(db: Database, prepared: PreparedQq, sids: Sequence[int],
               fold: Fold, sink: MetricsSink,
               poll: Callable[[], object]) -> None:
    """Step ``fold`` over ``sids``: per snapshot, evaluate the prepared
    Qq bound to it through a private read-only cursor (metered like the
    reference loop, Qq evaluation apart from UDF work) and fold its
    rows.

    ``poll`` runs before every snapshot: a truthy return stops the loop
    quietly, an exception propagates — the caller picks the policy.
    """
    clock = sink.clock
    for sid in sids:
        if poll():
            return
        current = sink.begin_iteration(sid)
        try:
            index_before = current.index_creation_seconds
            started = clock()
            columns, cursor = db.open_cursor(
                prepared.bind(sid), private=True, metrics=sink,
                memo=prepared.memo,
            )
            try:
                rows = [tuple(row) for row in cursor]
            finally:
                cursor.close()
            current.qq_rows += len(rows)
            folding = clock()
            index_delta = current.index_creation_seconds - index_before
            current.query_eval_seconds += max(
                folding - started - index_delta, 0.0)
            fold.step(sid, columns, rows)
            current.udf_seconds += clock() - folding
        finally:
            sink.end_iteration()


def write_result(db: Database, table: str, result: FoldResult,
                 persistent: bool) -> None:
    """Carry out a fold's write plan on table ``table`` — create it if
    it is new, then overwrite the changed rows under their own rowids
    and add the rest, as ONE ascending run; the caller owns the
    transaction.  Only a new table gets its index built here: a stored
    one keeps it, the run adding entries for the added rows alone."""
    if result.new:
        create_result_table(db, table, result.columns, persistent)
    _, writer = db.table_writer(table)
    writer.write_run(chain(
        result.changed, enumerate(result.rows, writer.next_rowid())))
    if result.new and result.index_columns:
        create_result_index(db, table, result.index_columns)
