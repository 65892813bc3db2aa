"""AS OF queries, schema time-travel, UDFs, and the cursor/streaming API."""

import pytest

from repro.errors import PlanError, UnknownSnapshotError
from repro.sql.database import Database


@pytest.fixture
def versioned(db):
    """Three snapshots over a small table."""
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
    db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    db.executescript("BEGIN; COMMIT WITH SNAPSHOT;")  # S1
    db.execute("BEGIN")
    db.execute("DELETE FROM t WHERE k = 2")
    db.execute("COMMIT WITH SNAPSHOT")  # S2
    db.execute("BEGIN")
    db.execute("UPDATE t SET v = 'A' WHERE k = 1")
    db.execute("INSERT INTO t VALUES (4, 'd')")
    db.execute("COMMIT WITH SNAPSHOT")  # S3
    return db


class TestAsOf:
    def test_each_snapshot_consistent(self, versioned):
        db = versioned
        assert sorted(db.execute("SELECT AS OF 1 k FROM t").column("k")) \
            == [1, 2, 3]
        assert sorted(db.execute("SELECT AS OF 2 k FROM t").column("k")) \
            == [1, 3]
        assert sorted(db.execute("SELECT AS OF 3 k FROM t").column("k")) \
            == [1, 3, 4]

    def test_as_of_sees_old_values(self, versioned):
        db = versioned
        assert db.execute(
            "SELECT AS OF 2 v FROM t WHERE k = 1").scalar() == "a"
        assert db.execute(
            "SELECT AS OF 3 v FROM t WHERE k = 1").scalar() == "A"
        assert db.execute("SELECT v FROM t WHERE k = 1").scalar() == "A"

    def test_as_of_uses_index_in_snapshot(self, versioned):
        # PK index lookups run inside the snapshot.
        assert versioned.execute(
            "SELECT AS OF 1 v FROM t WHERE k = 2").scalar() == "b"
        assert versioned.execute(
            "SELECT COUNT(*) FROM t WHERE k = 2").scalar() == 0

    def test_unknown_snapshot(self, versioned):
        with pytest.raises(UnknownSnapshotError):
            versioned.execute("SELECT AS OF 99 * FROM t")

    def test_as_of_aggregates_and_joins(self, versioned):
        db = versioned
        db.execute("CREATE TABLE names (k INTEGER, label TEXT)")
        db.execute("INSERT INTO names VALUES (1, 'one'), (2, 'two')")
        # The join runs entirely as of S1 (names existed? it did not!).
        # names was created after S3... so AS OF 1 must NOT see it.
        with pytest.raises(PlanError):
            db.execute("SELECT AS OF 1 * FROM names")

    def test_schema_time_travel_for_tables(self, versioned):
        """A table dropped later is still queryable AS OF an older
        snapshot (the catalog lives in snapshotted pages)."""
        db = versioned
        db.execute("CREATE TABLE doomed (x INTEGER)")
        db.execute("INSERT INTO doomed VALUES (42)")
        db.execute("BEGIN")
        sid = int(db.execute("COMMIT WITH SNAPSHOT").scalar())
        db.execute("DROP TABLE doomed")
        with pytest.raises(PlanError):
            db.execute("SELECT * FROM doomed")
        assert db.execute(
            f"SELECT AS OF {sid} x FROM doomed").scalar() == 42

    def test_index_time_travel(self, versioned):
        """An index created after a snapshot is invisible AS OF it —
        the ad-hoc vs native index distinction of Figure 9."""
        from repro.sql.catalog import Catalog

        db = versioned
        db.execute("CREATE INDEX t_v ON t (v)")
        db.execute("BEGIN")
        sid_with = int(db.execute("COMMIT WITH SNAPSHOT").scalar())
        engine = db.engine
        ctx = engine.begin_read()
        old_catalog = Catalog(engine.snapshot_source(1, ctx),
                              engine.pager.get_root("catalog"))
        new_catalog = Catalog(engine.snapshot_source(sid_with, ctx),
                              engine.pager.get_root("catalog"))
        assert old_catalog.get_index("t_v") is None
        assert new_catalog.get_index("t_v") is not None
        ctx.close()

    def test_insert_select_as_of(self, versioned):
        db = versioned
        db.execute("CREATE TEMP TABLE result (k INTEGER, v TEXT)")
        db.execute("INSERT INTO result SELECT AS OF 1 k, v FROM t")
        assert db.execute("SELECT COUNT(*) FROM result").scalar() == 3

    def test_create_table_as_select_as_of(self, versioned):
        db = versioned
        db.execute("CREATE TEMP TABLE old_t AS SELECT AS OF 2 * FROM t")
        assert db.execute("SELECT COUNT(*) FROM old_t").scalar() == 2


class TestUdf:
    def test_scalar_udf(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        db.register_function("double", lambda v: v * 2)
        result = db.execute("SELECT double(a) FROM t ORDER BY 1")
        assert [r[0] for r in result.rows] == [2, 4, 6]

    def test_udf_invoked_per_row(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        calls = []
        db.register_function("probe", lambda v: calls.append(v) or v)
        db.execute("SELECT probe(a) FROM t")
        assert sorted(calls) == [1, 2, 3]

    def test_udf_in_where(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2), (3), (4)")
        db.register_function("is_even", lambda v: 1 if v % 2 == 0 else 0)
        assert db.execute(
            "SELECT COUNT(*) FROM t WHERE is_even(a)").scalar() == 2

    def test_unknown_function(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(PlanError):
            db.execute("SELECT nosuch(a) FROM t")

    def test_udf_reentrancy(self, db):
        """A UDF may issue statements against the same database — the
        shape RQL's loop body depends on."""
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("CREATE TEMP TABLE log (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (2)")

        def record(v):
            db.execute(f"INSERT INTO log VALUES ({v})")
            return v

        db.register_function("record", record)
        db.execute("SELECT record(a) FROM t")
        assert db.execute("SELECT COUNT(*) FROM log").scalar() == 2

    def test_builtin_scalars(self, db):
        assert db.execute("SELECT abs(-4)").scalar() == 4
        assert db.execute("SELECT length('abc')").scalar() == 3
        assert db.execute("SELECT upper('ab') || lower('CD')").scalar() \
            == "ABcd"
        assert db.execute("SELECT coalesce(NULL, NULL, 7)").scalar() == 7
        assert db.execute("SELECT ifnull(NULL, 3)").scalar() == 3
        assert db.execute("SELECT nullif(2, 2)").scalar() is None
        assert db.execute("SELECT round(2.567, 1)").scalar() == 2.6
        assert db.execute("SELECT substr('hello', 2, 3)").scalar() == "ell"


class TestCursorStreaming:
    def test_execute_cursor_columns_before_rows(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'x')")
        columns, rows = db.execute_cursor("SELECT a, b AS bee FROM t")
        assert columns == ["a", "bee"]
        assert list(rows) == [(1, "x")]
