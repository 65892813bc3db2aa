"""Executor-layer unit tests: ResultSet, EphemeralIndex, IndexAccess."""

import pytest

from repro.errors import BTreeError, ExecutionError
from repro.sql.catalog import Column, IndexInfo, TableInfo
from repro.sql.executor import (
    EphemeralIndex,
    IndexAccess,
    ResultSet,
    TableAccess,
    TableWriter,
)
from repro.storage.btree import BTree
from repro.storage.disk import SimulatedDisk
from repro.storage.engine import StorageEngine


class TestResultSet:
    def test_scalar(self):
        assert ResultSet(["n"], [(5,)]).scalar() == 5

    def test_scalar_rejects_shapes(self):
        with pytest.raises(ExecutionError):
            ResultSet(["n"], []).scalar()
        with pytest.raises(ExecutionError):
            ResultSet(["a", "b"], [(1, 2)]).scalar()
        with pytest.raises(ExecutionError):
            ResultSet(["n"], [(1,), (2,)]).scalar()

    def test_first_and_len(self):
        result = ResultSet(["a"], [(1,), (2,)])
        assert result.first() == (1,)
        assert len(result) == 2
        assert ResultSet(["a"], []).first() is None

    def test_column_access(self):
        result = ResultSet(["a", "B"], [(1, "x"), (2, "y")])
        assert result.column("b") == ["x", "y"]
        with pytest.raises(ExecutionError):
            result.column("nope")

    def test_to_dicts(self):
        result = ResultSet(["a", "b"], [(1, "x")])
        assert result.to_dicts() == [{"a": 1, "b": "x"}]

    def test_iteration(self):
        assert list(ResultSet(["a"], [(1,), (2,)])) == [(1,), (2,)]


class TestEphemeralIndex:
    def test_add_lookup(self):
        index = EphemeralIndex()
        index.add(5, (5, "a"))
        index.add(5, (5, "b"))
        index.add(7, (7, "c"))
        assert sorted(index.lookup(5)) == [(5, "a"), (5, "b")]
        assert list(index.lookup(7)) == [(7, "c")]
        assert list(index.lookup(99)) == []

    def test_null_keys_skipped(self):
        index = EphemeralIndex()
        index.add(None, (None, "x"))
        assert list(index.lookup(None)) == []

    def test_mixed_value_types(self):
        index = EphemeralIndex()
        index.add("key", ("key", 1))
        index.add(2.5, (2.5, 2))
        assert list(index.lookup("key")) == [("key", 1)]
        assert list(index.lookup(2.5)) == [(2.5, 2)]

    def test_many_entries(self):
        index = EphemeralIndex()
        for i in range(2000):
            index.add(i % 50, (i,))
        assert len(list(index.lookup(7))) == 40


@pytest.fixture
def bound_table():
    engine = StorageEngine(SimulatedDisk(4096))
    txn = engine.begin()
    source = engine.page_source(txn)
    table_tree = BTree.create(source)
    index_tree = BTree.create(source)
    info = TableInfo(
        name="t", root_id=table_tree.root_id,
        columns=[Column("a", "INTEGER"), Column("b", "TEXT")],
    )
    index_info = IndexInfo(
        name="t_a", table="t", root_id=index_tree.root_id, columns=["a"],
    )
    table = TableAccess(info, source)
    index = IndexAccess(index_info, source)
    return table, index, TableWriter(table, [index])


class TestTableWriterUnits:
    def test_rowids_monotonic(self, bound_table):
        table, _, writer = bound_table
        first = writer.insert((1, "x"))
        second = writer.insert((2, "y"))
        assert second == first + 1
        assert table.get(first) == (1, "x")

    def test_delete_maintains_index(self, bound_table):
        table, index, writer = bound_table
        rowid = writer.insert((5, "z"))
        writer.insert((5, "other"))
        assert len(list(index.lookup_equal([5]))) == 2
        writer.delete(rowid)
        remaining = list(index.lookup_equal([5]))
        assert len(remaining) == 1
        assert table.get(remaining[0]) == (5, "other")

    def test_delete_missing_returns_false(self, bound_table):
        _, _, writer = bound_table
        assert writer.delete(999) is False

    def test_update_moves_index_entry(self, bound_table):
        table, index, writer = bound_table
        rowid = writer.insert((1, "x"))
        writer.update(rowid, (2, "x"))
        assert list(index.lookup_equal([1])) == []
        assert list(index.lookup_equal([2])) == [rowid]

    def test_index_range_lookup(self, bound_table):
        _, index, writer = bound_table
        for i in range(10):
            writer.insert((i, "v"))
        between = list(index.lookup_range([3], [6]))
        assert len(between) == 4  # 3, 4, 5, 6 inclusive
        below = list(index.lookup_range(None, [2]))
        assert len(below) == 3

    def test_arity_check(self, bound_table):
        _, _, writer = bound_table
        with pytest.raises(ExecutionError):
            writer.insert((1,))

    # -- the run verb: overwrite in place + append, as one B-tree run ------

    def test_write_run_overwrites_in_place_and_enters_new_rows(
            self, bound_table):
        table, index, writer = bound_table
        for n in range(1, 4):
            writer.insert((n, "old"))
        writer.write_run([(2, (2, "new")), (4, ("7", "added")),
                          (9, (8, "gap"))])
        assert list(table.scan()) == [
            (1, (1, "old")), (2, (2, "new")), (3, (3, "old")),
            (4, (7, "added")),  # coerced to the column's affinity
            (9, (8, "gap")),
        ]
        # Index entries for the new rows only; the overwritten row's
        # entry was neither read nor moved.
        assert list(index.scan_all()) == [1, 2, 3, 4, 9]
        assert list(index.lookup_equal([7])) == [4]
        assert writer.insert((0, "next")) == 10

    def test_write_run_checks_what_insert_checks(self, bound_table):
        table, index, _ = bound_table
        unique = IndexAccess(
            IndexInfo(name="t_u", table="t", root_id=index.info.root_id,
                      columns=["a"], unique=True),
            index.tree.source)
        writer = TableWriter(table, [unique])
        writer.insert((1, "x"))
        with pytest.raises(ExecutionError, match="columns"):
            writer.write_run([(2, (5,))])
        with pytest.raises(ExecutionError, match="UNIQUE"):
            writer.write_run([(2, (1, "taken"))])
        with pytest.raises(ExecutionError, match="UNIQUE"):
            writer.write_run([(2, (6, "a")), (3, (6, "twice in one run"))])
        # An overwrite keeps its key: not a new row, so no UNIQUE check.
        writer.write_run([(1, (1, "rewritten"))])
        assert table.get(1) == (1, "rewritten")

    def test_write_run_must_ascend(self, bound_table):
        _, _, writer = bound_table
        with pytest.raises(BTreeError, match="ascend"):
            writer.write_run([(2, (2, "b")), (1, (1, "a"))])
