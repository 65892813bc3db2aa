"""INSERT / UPDATE / DELETE / DDL / transaction statement tests."""

import sqlite3

import pytest

from repro.errors import (
    CatalogError,
    ExecutionError,
    TransactionError,
)
from repro.sql.database import Database


class TestInsert:
    def test_insert_values_and_count(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        result = db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert result.rowcount == 2
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_insert_column_subset_fills_null(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b TEXT, c REAL)")
        db.execute("INSERT INTO t (b) VALUES ('only-b')")
        assert db.execute("SELECT a, b, c FROM t").rows == [
            (None, "only-b", None),
        ]

    def test_insert_reordered_columns(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        db.execute("INSERT INTO t (b, a) VALUES ('x', 7)")
        assert db.execute("SELECT a, b FROM t").rows == [(7, "x")]

    def test_insert_select(self, db):
        db.execute("CREATE TABLE src (a INTEGER)")
        db.execute("CREATE TABLE dst (a INTEGER)")
        db.execute("INSERT INTO src VALUES (1), (2), (3)")
        result = db.execute("INSERT INTO dst SELECT a * 10 FROM src")
        assert result.rowcount == 3
        assert db.execute("SELECT SUM(a) FROM dst").scalar() == 60

    def test_type_coercion(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b REAL, c TEXT)")
        db.execute("INSERT INTO t VALUES ('5', 2, 3)")
        assert db.execute("SELECT a, b, c FROM t").rows == [(5, 2.0, "3")]

    def test_arity_mismatch(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO t VALUES (1)")

    def test_pk_uniqueness(self, db):
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'x')")
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO t VALUES (1, 'y')")
        # Failed statement must not leave partial state.
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 1

    def test_composite_pk(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER, PRIMARY KEY (a, b))")
        db.execute("INSERT INTO t VALUES (1, 1), (1, 2)")
        with pytest.raises(ExecutionError):
            db.execute("INSERT INTO t VALUES (1, 2)")


class TestDeleteUpdate:
    @pytest.fixture
    def filled(self, db):
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, grp TEXT, n INTEGER)")
        db.execute(
            "INSERT INTO t VALUES " + ", ".join(
                f"({i}, 'g{i % 3}', {i * 10})" for i in range(30)
            )
        )
        return db

    def test_delete_by_pk(self, filled):
        result = filled.execute("DELETE FROM t WHERE k = 5")
        assert result.rowcount == 1
        assert filled.execute("SELECT COUNT(*) FROM t").scalar() == 29

    def test_delete_with_predicate(self, filled):
        result = filled.execute("DELETE FROM t WHERE grp = 'g1'")
        assert result.rowcount == 10
        assert filled.execute(
            "SELECT COUNT(*) FROM t WHERE grp = 'g1'").scalar() == 0

    def test_delete_all(self, filled):
        assert filled.execute("DELETE FROM t").rowcount == 30
        assert filled.execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_update_expression(self, filled):
        filled.execute("UPDATE t SET n = n + 1 WHERE k < 3")
        assert filled.execute(
            "SELECT n FROM t WHERE k = 0").scalar() == 1
        assert filled.execute(
            "SELECT n FROM t WHERE k = 2").scalar() == 21
        assert filled.execute(
            "SELECT n FROM t WHERE k = 3").scalar() == 30

    def test_update_pk_column_maintains_index(self, filled):
        filled.execute("UPDATE t SET k = 1000 WHERE k = 7")
        assert filled.execute(
            "SELECT COUNT(*) FROM t WHERE k = 7").scalar() == 0
        assert filled.execute(
            "SELECT n FROM t WHERE k = 1000").scalar() == 70

    def test_update_pk_conflict(self, filled):
        with pytest.raises(ExecutionError):
            filled.execute("UPDATE t SET k = 1 WHERE k = 2")

    def test_delete_uses_index_after_secondary_created(self, filled):
        filled.execute("CREATE INDEX t_grp ON t (grp)")
        result = filled.execute("DELETE FROM t WHERE grp = 'g0'")
        assert result.rowcount == 10
        # Index stays consistent after deletions through it.
        assert filled.execute(
            "SELECT COUNT(*) FROM t WHERE grp = 'g2'").scalar() == 10

    @pytest.mark.parametrize("indexed", [False, True],
                             ids=["unindexed", "indexed"])
    @pytest.mark.parametrize("pred,wrapped", [
        ("n = abs(-50)", "n + 0 = abs(-50)"),
        ("n < length('abc') * 10", "n + 0 < length('abc') * 10"),
        ("n BETWEEN abs(-20) AND 40", "n + 0 BETWEEN abs(-20) AND 40"),
        ("n = fifty()", "n + 0 = fifty()"),
    ])
    def test_function_call_on_the_constant_side(self, filled, pred, wrapped,
                                                indexed):
        # The planner folds built-ins only and never fails the statement
        # over a constant it cannot fold: each form touches exactly the
        # rows the same predicate selects with the column wrapped.
        filled.register_function("fifty", lambda: 50)
        if indexed:
            filled.execute("CREATE INDEX t_n ON t (n)")
        want = filled.execute(
            f"SELECT k FROM t WHERE {wrapped} ORDER BY k").rows
        assert want
        updated = filled.execute(f"UPDATE t SET grp = 'hit' WHERE {pred}")
        assert updated.rowcount == len(want)
        assert filled.execute(
            "SELECT k FROM t WHERE grp = 'hit' ORDER BY k").rows == want
        deleted = filled.execute(f"DELETE FROM t WHERE {pred}")
        assert deleted.rowcount == len(want)
        assert filled.execute(
            "SELECT COUNT(*) FROM t WHERE grp = 'hit'").scalar() == 0
        assert filled.execute(
            "SELECT COUNT(*) FROM t").scalar() == 30 - len(want)


class TestIndexKeyPrecisionDml:
    """DELETE / UPDATE through an index touch exactly the rows their
    ``k + 0`` twin (a scan) touches, also where index keys collide as
    doubles (beyond +-2**53) or saturate (beyond the double range)."""

    BIG = 2 ** 53
    HUGE = "1" + "0" * 400

    def make(self):
        db = Database()
        db.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
        db.execute("CREATE INDEX t_k ON t(k)")
        for v, k in enumerate([self.BIG, self.BIG + 1, self.BIG + 2, 5]):
            db.execute(f"INSERT INTO t VALUES ({k}, {v})")
        return db

    @pytest.mark.parametrize("statement", [
        "UPDATE t SET v = 100 WHERE k = {big1}",
        "UPDATE t SET v = 100 WHERE k > {big}",
        "DELETE FROM t WHERE k = {big1}",
        "DELETE FROM t WHERE k >= {big1}",
        "DELETE FROM t WHERE k = {huge}",
        "UPDATE t SET v = 100 WHERE k < {huge}",
    ])
    def test_indexed_dml_equals_its_unindexed_twin(self, statement):
        statement = statement.format(big=self.BIG, big1=self.BIG + 1,
                                     huge=self.HUGE)
        indexed, twin = self.make(), self.make()
        a = indexed.execute(statement)
        b = twin.execute(statement.replace("WHERE k", "WHERE k + 0"))
        assert a.rowcount == b.rowcount
        assert (indexed.execute("SELECT k, v FROM t ORDER BY k").rows
                == twin.execute("SELECT k, v FROM t ORDER BY k").rows)

    def test_update_and_delete_touch_one_of_two_colliding_keys(self):
        db = self.make()
        assert db.execute(
            f"UPDATE t SET v = 100 WHERE k = {self.BIG + 1}").rowcount == 1
        assert db.execute(
            f"DELETE FROM t WHERE k = {self.BIG + 1}").rowcount == 1
        assert db.execute("SELECT k, v FROM t ORDER BY k").rows == [
            (5, 3), (self.BIG, 0), (self.BIG + 2, 2)]


class TestDdl:
    def test_create_drop_table(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("DROP TABLE t")
        with pytest.raises(Exception):
            db.execute("SELECT * FROM t")

    def test_create_existing_fails(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("CREATE TABLE IF NOT EXISTS t (a INTEGER)")

    def test_drop_missing(self, db):
        with pytest.raises(CatalogError):
            db.execute("DROP TABLE missing")
        db.execute("DROP TABLE IF EXISTS missing")

    def test_create_table_as_select(self, db):
        db.execute("CREATE TABLE src (a INTEGER, b TEXT)")
        db.execute("INSERT INTO src VALUES (1, 'x'), (2, 'y')")
        result = db.execute(
            "CREATE TABLE dst AS SELECT a, b FROM src WHERE a = 2"
        )
        assert result.rowcount == 1
        assert db.execute("SELECT * FROM dst").rows == [(2, "y")]

    @pytest.mark.parametrize("ddl", [
        "CREATE TABLE d (a, a)",
        "CREATE TABLE d (a INTEGER, b TEXT, A REAL)",
        "CREATE TEMP TABLE d (x, X)",
    ])
    def test_a_repeated_column_name_is_refused(self, db, ddl):
        lite = sqlite3.connect(":memory:")
        with pytest.raises(sqlite3.OperationalError) as theirs:
            lite.execute(ddl)
        lite.close()
        with pytest.raises(CatalogError) as ours:
            db.execute(ddl)
        assert str(ours.value) == str(theirs.value)
        assert str(ours.value).startswith("duplicate column name: ")
        with pytest.raises(Exception, match="no such table"):
            db.execute("SELECT * FROM d")

    def test_create_table_as_refuses_a_repeated_name(self, db):
        # sqlite3 renames the second column to "v:1" (DESIGN.md §3b,
        # declared divergences); here the table is not created.
        db.execute("CREATE TABLE src (a INTEGER, b TEXT)")
        db.execute("INSERT INTO src VALUES (1, 'x')")
        with pytest.raises(CatalogError, match="duplicate column name: V"):
            db.execute("CREATE TABLE dst AS SELECT a AS v, b AS V FROM src")
        with pytest.raises(Exception, match="no such table"):
            db.execute("SELECT * FROM dst")

    def test_temp_table_shadows_main(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("CREATE TEMP TABLE t2 (a INTEGER)")
        db.execute("INSERT INTO t2 VALUES (99)")
        assert db.execute("SELECT a FROM t2").scalar() == 99
        db.execute("DROP TABLE t2")

    def test_create_index_backfills(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (1, 'z')")
        db.execute("CREATE INDEX ix ON t (a)")
        assert db.execute("SELECT COUNT(*) FROM t WHERE a = 1").scalar() == 2

    def test_unique_index_rejects_duplicates(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1), (1)")
        with pytest.raises(ExecutionError):
            db.execute("CREATE UNIQUE INDEX ix ON t (a)")

    def test_drop_index(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("CREATE INDEX ix ON t (a)")
        db.execute("DROP INDEX ix")
        with pytest.raises(CatalogError):
            db.execute("DROP INDEX ix")
        db.execute("DROP INDEX IF EXISTS ix")

    def test_index_on_missing_column(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(Exception):
            db.execute("CREATE INDEX ix ON t (nope)")


class TestTransactions:
    def test_explicit_commit(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("INSERT INTO t VALUES (2)")
        db.execute("COMMIT")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_rollback_discards(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (2)")
        db.execute("ROLLBACK")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 1

    def test_rollback_ddl(self, db):
        db.execute("BEGIN")
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("ROLLBACK")
        with pytest.raises(Exception):
            db.execute("SELECT * FROM t")

    def test_nested_begin_rejected(self, db):
        db.execute("BEGIN")
        with pytest.raises(TransactionError):
            db.execute("BEGIN")
        db.execute("ROLLBACK")

    def test_commit_without_begin(self, db):
        with pytest.raises(TransactionError):
            db.execute("COMMIT")

    def test_commit_with_snapshot_returns_id(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (1)")
        result = db.execute("COMMIT WITH SNAPSHOT")
        assert result.columns == ["snapshot_id"]
        assert result.scalar() == 1

    def test_read_your_writes_in_txn(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES (5)")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 1
        db.execute("ROLLBACK")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_failed_statement_autorollback(self, db):
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        with pytest.raises(ExecutionError):
            db.execute("UPDATE t SET a = 99")  # both rows -> conflict
        assert sorted(r[0] for r in db.execute("SELECT a FROM t").rows) \
            == [1, 2]

    def test_page_allocated_and_freed_in_one_txn_can_be_reused(self):
        """Its id reaches the free list with no committed content; the
        COW capture of its 'pre-state' at reuse must not read past the
        end of the database file."""
        db = Database(page_size=1024)
        create = ("CREATE TABLE t (k INTEGER, pad TEXT)",
                  "CREATE INDEX t_k ON t(k)")
        for statement in create:
            db.execute(statement)
        db.execute("BEGIN")
        db.execute("COMMIT WITH SNAPSHOT")
        db.execute("BEGIN")
        db.execute("INSERT INTO t VALUES " + ", ".join(
            f"({i}, 'padpadpadpad')" for i in range(40)))
        db.execute("DELETE FROM t")
        db.execute("COMMIT")
        db.execute("BEGIN")
        db.execute("DROP TABLE t")
        for statement in create:
            db.execute(statement)
        db.execute("INSERT INTO t VALUES (1, 'x')")
        db.execute("COMMIT")
        assert db.execute("SELECT * FROM t").rows == [(1, "x")]
        assert db.execute("SELECT AS OF 1 COUNT(*) FROM t").scalar() == 0
