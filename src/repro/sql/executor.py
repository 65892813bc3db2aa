"""Physical access paths and DML execution.

:class:`TableAccess` / :class:`IndexAccess` bind catalog objects to a
page source (current state, transaction workspace, or a Retro snapshot —
the same code path serves all three, which is the heart of retrospection:
a query running ``AS OF`` a snapshot executes byte-for-byte the same
access code, only the page fetches resolve differently).

Row storage: table B+tree keyed by ``encode_key((rowid,))`` with the row
record as payload; index B+trees keyed by
``encode_key((*column_values, rowid))`` with the rowid record as payload.
A table whose key is one ``INTEGER`` column (``TableInfo.rowid_alias``)
uses that column's value as the rowid, as SQLite does: its rows are
found by key in the table tree itself, and no index holds the key.

Each access class opens its tree with one module-level decoder
(:func:`_table_entry`, :func:`_index_entry`), so the tree hands out
decoded entries and full scans leave them on the cached leaf nodes: a
leaf that some earlier scan, statement, session or snapshot iteration
decoded costs no per-row work here (DESIGN.md, "The node cache
contract").  A SELECT scan passes a width and gets rows cut to the
columns its statement reads.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.sql.catalog import IndexInfo, TableInfo
from repro.sql.types import SqlValue, coerce_for_column, exact_integer
from repro.storage.btree import BTree
from repro.storage.record import (
    KEY_AFTER_NULLS,
    KEY_EXACT_INT,
    decode_record,
    decode_rowid_key,
    encode_key,
    encode_record,
)

Row = Tuple[SqlValue, ...]


def _table_entry(key: bytes, value: bytes,
                 width: Optional[int] = None) -> Tuple[int, Row]:
    """Table-tree decoder: cell -> (rowid, row), the row cut to its
    first ``width`` columns when a scan asks for fewer than all (a
    whole row keeps the one-argument call)."""
    if width is None:
        return decode_rowid_key(key), decode_record(value)
    return decode_rowid_key(key), decode_record(value, width)


def _index_entry(key: bytes, value: bytes) -> int:
    """Index-tree decoder: cell -> rowid."""
    (rowid,) = decode_record(value)
    return int(rowid)


class TableAccess:
    """Read/write access to one table through a page source."""

    def __init__(self, info: TableInfo, source) -> None:
        self.info = info
        self.tree = BTree(source, info.root_id, _table_entry)

    # -- reads -----------------------------------------------------------

    def scan(self, width: Optional[int] = None,
             ) -> Iterator[Tuple[int, Row]]:
        """(rowid, row) in rowid order, handed out of each leaf's entry
        list without a Python frame per row.  With a ``width`` a row may
        hold only its first ``width`` columns (``BTree.scan_leaves``)."""
        return chain.from_iterable(self.tree.scan_leaves(width=width))

    def scan_rows(self) -> Iterator[Row]:
        for entries in self.tree.scan_leaves():
            for _, row in entries:
                yield row

    def get(self, rowid: int) -> Optional[Row]:
        entry = self.tree.get(encode_key((rowid,)))
        return entry[1] if entry is not None else None

    def seek(self, key: SqlValue) -> Iterator[Tuple[int, Row]]:
        """The (rowid, row) whose rowid ``key`` equals, compared as an
        index compares keys: the seek of an ``INTEGER PRIMARY KEY``."""
        entry = self.tree.get(encode_key((key,)))
        return iter(()) if entry is None else iter((entry,))

    def seek_range(self, lo: Optional[SqlValue], hi: Optional[SqlValue],
                   lo_inclusive: bool = True, hi_inclusive: bool = True,
                   ) -> Iterator[Tuple[int, Row]]:
        """(rowid, row) with lo <=/< rowid <=/< hi, as
        :meth:`IndexAccess.lookup_range` bounds an index's first column."""
        lo_key = encode_key((lo,)) if lo is not None else KEY_AFTER_NULLS
        hi_key = encode_key((hi,)) if hi is not None else None
        return map(itemgetter(1), self.tree.scan_range(
            lo_key, hi_key, hi_inclusive=hi_inclusive,
            lo_inclusive=lo_inclusive))

    def count(self) -> int:
        return self.tree.count()

    # -- writes (index maintenance is the writer's job, see TableWriter) --------

    def next_rowid(self) -> int:
        last = self.tree.last_key()
        if last is None:
            return 1
        return decode_rowid_key(last) + 1

    def insert_raw(self, rowid: int, row: Row) -> None:
        self.tree.insert(encode_key((rowid,)), encode_record(row))

    def insert_raw_run(self, run: Sequence[Tuple[int, Row]]) -> None:
        """:meth:`insert_raw` for ``(rowid, row)`` pairs ascending by
        rowid, each leaf written once (``BTree.insert_run``)."""
        self.tree.insert_run([(encode_key((rowid,)), encode_record(row))
                              for rowid, row in run])

    def delete_raw(self, rowid: int) -> bool:
        return self.tree.delete(encode_key((rowid,)))


class IndexAccess:
    """Read/write access to one secondary index."""

    def __init__(self, info: IndexInfo, source) -> None:
        self.info = info
        self.tree = BTree(source, info.root_id, _index_entry)

    @staticmethod
    def key_for(values: Sequence[SqlValue], rowid: int) -> bytes:
        return encode_key(tuple(values) + (rowid,))

    # -- reads -----------------------------------------------------------

    def lookup_equal(self, values: Sequence[SqlValue]) -> Iterator[int]:
        """Rowids whose indexed columns equal ``values`` (a full prefix)."""
        prefix = encode_key(tuple(values))
        for _, rowid in self.tree.scan_prefix(prefix):
            yield rowid

    def lookup_range(self, lo: Optional[Sequence[SqlValue]],
                     hi: Optional[Sequence[SqlValue]],
                     lo_inclusive: bool = True,
                     hi_inclusive: bool = True) -> Iterator[int]:
        """Rowids with lo <=/< first column(s) <=/< hi.

        NULL keys satisfy no range predicate (three-valued logic), so
        an unbounded-below range starts after the NULL key class
        instead of at the front of the index.
        """
        lo_key = encode_key(tuple(lo)) if lo is not None \
            else KEY_AFTER_NULLS
        hi_key = encode_key(tuple(hi)) if hi is not None else None
        for _, rowid in self.tree.scan_range(lo_key, hi_key,
                                             hi_inclusive=hi_inclusive,
                                             lo_inclusive=lo_inclusive):
            yield rowid

    def scan_all(self) -> Iterator[int]:
        return chain.from_iterable(self.tree.scan_leaves())

    # -- writes ------------------------------------------------------------

    def insert_entry(self, values: Sequence[SqlValue], rowid: int) -> None:
        self.tree.insert(self.key_for(values, rowid),
                         encode_record((rowid,)))

    def delete_entry(self, values: Sequence[SqlValue], rowid: int) -> bool:
        return self.tree.delete(self.key_for(values, rowid))

    def has_prefix(self, values: Sequence[SqlValue]) -> bool:
        prefix = encode_key(tuple(values))
        for _ in self.tree.scan_prefix(prefix):
            return True
        return False


class TableWriter:
    """Insert/delete/update with index maintenance and PK enforcement."""

    def __init__(self, table: TableAccess, indexes: List[IndexAccess]) -> None:
        self.table = table
        self.indexes = indexes
        info = table.info
        #: (index, its columns' positions in a row), resolved once per
        #: writer: ``column_index`` is a case-folding linear search
        self._indexed = [
            (index, [info.column_index(c) for c in index.info.columns])
            for index in indexes
        ]
        #: position of the column whose value is the rowid, or None
        self._alias = info.rowid_alias
        # next_rowid() descends the tree; cache it across inserts (the
        # writer is the only mutator of this table for its lifetime).
        self._next_rowid: Optional[int] = None

    def _index_values(self, row: Row) -> List[List[SqlValue]]:
        """Every index's column values of ``row``, in ``indexes`` order."""
        return [[row[p] for p in positions]
                for _, positions in self._indexed]

    def _unique_failed(self, columns: Sequence[str]) -> str:
        return (f"UNIQUE constraint failed: "
                f"{self.table.info.name}({', '.join(columns)})")

    def _check_unique(self, index: IndexAccess,
                      values: Sequence[SqlValue]) -> None:
        """A key holding a NULL equals no other key, so a UNIQUE index
        admits it any number of times, as in SQLite."""
        if index.info.unique and None not in values \
                and index.has_prefix(values):
            raise ExecutionError(self._unique_failed(index.info.columns))

    def _admit(self, row: Sequence[SqlValue]) -> Row:
        """A row for this table, coerced to the columns' affinities."""
        columns = self.table.info.columns
        if len(row) != len(columns):
            raise ExecutionError(
                f"table {self.table.info.name} has {len(columns)} columns "
                f"but {len(row)} values were supplied"
            )
        return tuple(
            coerce_for_column(v, c.type_name) for v, c in zip(row, columns)
        )

    def _entries_of_new(self, row: Row):
        """``(index, values)`` per index for a new row, UNIQUE-checked."""
        entries = [(index, [row[p] for p in positions])
                   for index, positions in self._indexed]
        for index, values in entries:
            self._check_unique(index, values)
        return entries

    def _free_key(self, value: SqlValue) -> int:
        """``value`` as the rowid of a row of an aliased table, refused
        unless it is an integer the table's key codec stores exactly
        (DESIGN.md §3a) that no row holds yet."""
        rowid = exact_integer(value)
        if rowid is None:
            raise ExecutionError("datatype mismatch")
        if not -KEY_EXACT_INT <= rowid <= KEY_EXACT_INT:
            raise ExecutionError(
                f"INTEGER PRIMARY KEY {rowid} is out of range: keys are "
                f"stored as doubles, exact within +-{KEY_EXACT_INT}")
        if self.table.tree.contains(encode_key((rowid,))):
            info = self.table.info
            raise ExecutionError(
                self._unique_failed([info.columns[self._alias].name]))
        return rowid

    def next_rowid(self) -> int:
        """The rowid the next new row takes."""
        if self._next_rowid is None:
            self._next_rowid = self.table.next_rowid()
        return self._next_rowid

    def _note_rowid(self, rowid: int) -> None:
        """``rowid`` is taken: the next new row's is past it."""
        if self._next_rowid is not None and rowid >= self._next_rowid:
            self._next_rowid = rowid + 1

    def insert(self, row: Sequence[SqlValue]) -> int:
        coerced = self._admit(row)
        alias = self._alias
        if alias is None:
            rowid = self.next_rowid()
        else:
            # A NULL key takes the next rowid, as in SQLite.
            key = coerced[alias]
            rowid = self._free_key(self.next_rowid() if key is None else key)
            coerced = coerced[:alias] + (rowid,) + coerced[alias + 1:]
        entries = self._entries_of_new(coerced)
        self._note_rowid(rowid)
        self.table.insert_raw(rowid, coerced)
        for index, values in entries:
            index.insert_entry(values, rowid)
        return rowid

    def write_run(self,
                  run: Iterable[Tuple[int, Sequence[SqlValue]]]) -> None:
        """Write ``(rowid, row)`` pairs, ascending by rowid, as one
        B-tree run (:meth:`TableAccess.insert_raw_run`).

        A rowid past the table's last is a new row: admitted as
        :meth:`insert` admits one (column count, coercion, UNIQUE) and
        entered in every index.  A rowid up to the last overwrites that
        row where it lies and **must keep its indexed columns' values**:
        no index entry is read or moved, which is the caller's contract
        (a view fold changes only columns its index does not cover).
        """
        admitted = []
        for rowid, row in run:
            coerced = self._admit(row)
            if rowid >= self.next_rowid():
                # Entered before the next row is checked, so two new
                # rows of one run cannot share a UNIQUE key.
                for index, values in self._entries_of_new(coerced):
                    index.insert_entry(values, rowid)
                self._next_rowid = rowid + 1
            admitted.append((rowid, coerced))
        self.table.insert_raw_run(admitted)

    def delete(self, rowid: int) -> bool:
        row = self.table.get(rowid)
        if row is None:
            return False
        self.table.delete_raw(rowid)
        for index, values in zip(self.indexes, self._index_values(row)):
            index.delete_entry(values, rowid)
        return True

    def update(self, rowid: int, new_row: Sequence[SqlValue]) -> None:
        """Overwrite row ``rowid`` with ``new_row``.  On a table keyed
        by its rowid, a new key value moves the row: it is deleted and
        reinserted under the new key, after the checks an insert runs."""
        info = self.table.info
        old_row = self.table.get(rowid)
        if old_row is None:
            raise ExecutionError(f"rowid {rowid} vanished during UPDATE")
        coerced = tuple(
            coerce_for_column(v, c.type_name)
            for v, c in zip(new_row, info.columns)
        )
        alias, new_rowid = self._alias, rowid
        if alias is not None and coerced[alias] != rowid:
            new_rowid = self._free_key(coerced[alias])
            coerced = coerced[:alias] + (new_rowid,) + coerced[alias + 1:]
        moved = [
            (index, old, new) for index, old, new in zip(
                self.indexes, self._index_values(old_row),
                self._index_values(coerced))
            if old != new or new_rowid != rowid
        ]
        for index, old, new in moved:
            if old != new:
                self._check_unique(index, new)
        if new_rowid != rowid:
            self.table.delete_raw(rowid)
            self._note_rowid(new_rowid)
        self.table.insert_raw(new_rowid, coerced)
        for index, old, new in moved:
            index.delete_entry(old, rowid)
            index.insert_entry(new, new_rowid)


class EphemeralPageSource:
    """In-memory page source for statement-lifetime structures.

    Used for SQLite-style automatic covering indexes: the planner builds
    a real B+tree (real page serialization costs — that is what makes
    index creation dominate Figure 9) that vanishes with the statement.
    """

    def __init__(self, page_size: int = 4096) -> None:
        self._page_size = page_size
        self._pages: Dict[int, "object"] = {}
        self._next_id = 1

    def fetch(self, page_id: int):
        return self._pages[page_id]

    def allocate_page(self):
        from repro.storage.page import Page

        page = Page(self._next_id, page_size=self._page_size)
        self._pages[self._next_id] = page
        self._next_id += 1
        return page

    def free_page(self, page_id: int) -> None:
        self._pages.pop(page_id, None)

    def mark_dirty(self, page) -> None:
        pass

    def make_writable(self, page):
        return page


class EphemeralIndex:
    """An automatic covering index over one column of a row stream."""

    def __init__(self, page_size: int = 4096) -> None:
        from repro.storage.btree import BTree

        self._source = EphemeralPageSource(page_size)
        self._tree = BTree.create(self._source)
        self._sequence = 0

    def add(self, key_value: SqlValue, row: Row) -> None:
        if key_value is None:
            return
        self._sequence += 1
        self._tree.insert(encode_key((key_value, self._sequence)),
                          encode_record(row))

    def lookup(self, key_value: SqlValue) -> Iterator[Row]:
        if key_value is None:
            return
        prefix = encode_key((key_value,))
        for _, payload in self._tree.scan_prefix(prefix):
            yield decode_record(payload)


class ResultSet:
    """Materialized query result: column names + row tuples."""

    def __init__(self, columns: List[str], rows: List[Row]) -> None:
        self.columns = columns
        self.rows = rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> SqlValue:
        """The single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"expected a 1x1 result, got {len(self.rows)} rows x "
                f"{len(self.columns)} columns"
            )
        return self.rows[0][0]

    def first(self) -> Optional[Row]:
        return self.rows[0] if self.rows else None

    def column(self, name: str) -> List[SqlValue]:
        lowered = name.lower()
        for i, col in enumerate(self.columns):
            if col.lower() == lowered:
                return [row[i] for row in self.rows]
        raise ExecutionError(f"no such result column: {name}")

    def to_dicts(self) -> List[Dict[str, SqlValue]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultSet(columns={self.columns}, rows={len(self.rows)})"
