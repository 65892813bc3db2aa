"""``INTEGER PRIMARY KEY`` as the rowid, side by side with stdlib ``sqlite3``.

A table whose primary key is one column declared ``INTEGER`` keys its
table tree by that column's value, as SQLite does ("ROWIDs and the
INTEGER PRIMARY KEY"): no ``__pk_`` index sits beside it.  Each case
runs the same statements in both engines and compares what they end
with: the rows, or that both refused the last statement with the same
error.  Composite keys and keys of another declared type (``INT``)
keep their unique index, as SQLite keeps an automatic one.

One case has no SQLite counterpart: the table key is a 9-byte double
(DESIGN.md §3a, "Index keys are doubles"), so a key outside
+-(2^53 - 1) is refused rather than merged with its neighbour.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.errors import SqlError
from repro.sql.database import Database
from repro.storage.record import KEY_EXACT_INT

SETUP = ("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)",
         "INSERT INTO t VALUES (5, 1)")


def _run(statements, query="SELECT k, v FROM t"):
    """(rows or the error text, ...) of ``statements`` then ``query``
    in this engine and in sqlite3: a failing statement ends the script
    and its message is the outcome, the rows of ``query`` otherwise."""
    db, lite = Database(), sqlite3.connect(":memory:")
    outcomes = []
    for execute in (lambda sql: db.execute(sql).rows,
                    lambda sql: lite.execute(sql).fetchall()):
        try:
            for sql in statements:
                execute(sql)
            outcomes.append([tuple(row) for row in execute(query)])
        except (SqlError, sqlite3.Error) as error:
            outcomes.append(str(error))
    lite.close()
    db.close()
    return outcomes


def test_a_null_key_takes_the_largest_plus_one():
    ours, theirs = _run(SETUP + ("INSERT INTO t VALUES (NULL, 2)",))
    assert ours == theirs == [(5, 1), (6, 2)]


def test_a_null_key_in_an_empty_table_is_one():
    ours, theirs = _run(SETUP[:1] + ("INSERT INTO t (v) VALUES (3)",))
    assert ours == theirs == [(1, 3)]


def test_text_that_spells_an_integer_is_coerced():
    ours, theirs = _run(SETUP + ("INSERT INTO t VALUES ('7', 2)",))
    assert ours == theirs == [(5, 1), (7, 2)]
    assert isinstance(ours[1][0], int)


@pytest.mark.parametrize("key", ["'abc'", "7.5", "x'01'"])
def test_a_key_that_is_no_integer_is_a_datatype_mismatch(key):
    ours, theirs = _run(SETUP + (f"INSERT INTO t VALUES ({key}, 2)",))
    assert ours == theirs == "datatype mismatch"


def test_an_explicit_duplicate_fails_the_unique_constraint():
    ours, theirs = _run(SETUP + ("INSERT INTO t VALUES (5, 2)",))
    assert ours.startswith("UNIQUE constraint failed: t")
    assert theirs.startswith("UNIQUE constraint failed: t")


def test_an_update_of_the_key_moves_the_row():
    ours, theirs = _run(SETUP + ("INSERT INTO t VALUES (7, 2)",
                                 "UPDATE t SET k = 9 WHERE k = 5"))
    assert ours == theirs == [(7, 2), (9, 1)]
    ours, theirs = _run(SETUP + ("INSERT INTO t VALUES (7, 2)",
                                 "UPDATE t SET k = 9 WHERE k = 5"),
                        "SELECT v FROM t WHERE k = 9")
    assert ours == theirs == [(1,)]


def test_an_update_onto_an_existing_key_fails_and_keeps_both_rows():
    statements = SETUP + ("INSERT INTO t VALUES (7, 2)",)
    ours, theirs = _run(statements + ("UPDATE t SET k = 7 WHERE k = 5",))
    assert ours.startswith("UNIQUE constraint failed: t")
    assert theirs.startswith("UNIQUE constraint failed: t")
    ours, theirs = _run(statements)
    assert ours == theirs == [(5, 1), (7, 2)]
    db = Database()
    for sql in statements:
        db.execute(sql)
    with pytest.raises(SqlError, match="UNIQUE constraint failed"):
        db.execute("UPDATE t SET k = 7 WHERE k = 5")
    assert db.execute("SELECT k, v FROM t").rows == [(5, 1), (7, 2)]


def test_an_update_to_null_is_a_datatype_mismatch():
    ours, theirs = _run(SETUP + ("UPDATE t SET k = NULL WHERE k = 5",))
    assert ours == theirs == "datatype mismatch"


def test_a_scan_without_order_by_returns_key_order():
    inserts = tuple(f"INSERT INTO t VALUES ({k}, {v})"
                    for v, k in enumerate([40, -3, 7, 12, 0, 1000]))
    ours, theirs = _run(SETUP[:1] + inserts)
    assert ours == theirs == sorted(ours)


def test_deletes_and_seeks_by_key_agree():
    inserts = tuple(f"INSERT INTO t VALUES ({k}, {k * 10})"
                    for k in range(1, 21))
    statements = SETUP[:1] + inserts + (
        "DELETE FROM t WHERE k = 7", "DELETE FROM t WHERE k > 17",
        "UPDATE t SET v = -1 WHERE k BETWEEN 3 AND 4")
    for query in ("SELECT k, v FROM t",
                  "SELECT v FROM t WHERE k = 7",
                  "SELECT v FROM t WHERE k = 8",
                  "SELECT k FROM t WHERE k < 5",
                  "SELECT k FROM t WHERE k >= 15",
                  "SELECT k FROM t WHERE k > 2.5 AND k <= 6",
                  "SELECT k FROM t WHERE k = 9.0",
                  "SELECT k FROM t WHERE k = '9'"):
        ours, theirs = _run(statements, query)
        if query.endswith("'9'"):
            # SQLite applies the column's affinity to the text; this
            # engine compares classes strictly (DESIGN.md, declared
            # divergences), so the text matches no integer key.
            assert ours == []
            continue
        assert ours == theirs, query


@pytest.mark.parametrize("where, detail", [
    ("k = 5", "(rowid=?)"),
    ("k > 5", "(rowid>?)"),
    ("k < 5", "(rowid<?)"),
    ("k BETWEEN 2 AND 5", "(rowid>? AND rowid<?)"),
])
def test_explain_reads_as_sqlites_query_plan(where, detail):
    db, lite = Database(), sqlite3.connect(":memory:")
    db.execute(SETUP[0])
    lite.execute(SETUP[0])
    ours = [row[0] for row in db.execute(
        f"EXPLAIN SELECT v FROM t WHERE {where}").rows]
    theirs = [row[-1] for row in lite.execute(
        f"EXPLAIN QUERY PLAN SELECT v FROM t WHERE {where}").fetchall()]
    assert ours[0] == theirs[0] == \
        f"SEARCH t USING INTEGER PRIMARY KEY {detail}"
    lite.close()
    db.close()


def _key_indexes(ddl):
    """(this engine's index names, sqlite3's) for one CREATE TABLE t."""
    db, lite = Database(), sqlite3.connect(":memory:")
    db.execute(ddl)
    lite.execute(ddl)
    with db.reading() as ctx:
        ours = [ix.info.name
                for ix in ctx.open_indexes(ctx.open_table("t"))]
    theirs = [row[0] for row in lite.execute(
        "SELECT name FROM sqlite_master WHERE type = 'index'")]
    lite.close()
    db.close()
    return ours, theirs


def test_an_integer_primary_key_has_no_index():
    assert _key_indexes(SETUP[0]) == ([], [])
    assert _key_indexes(
        "CREATE TABLE t (k INTEGER, v INTEGER, PRIMARY KEY (k))") == ([], [])


@pytest.mark.parametrize("ddl", [
    "CREATE TABLE t (k INT PRIMARY KEY, v INTEGER)",
    "CREATE TABLE t (k TEXT PRIMARY KEY, v INTEGER)",
    "CREATE TABLE t (a INTEGER, b INTEGER, PRIMARY KEY (a, b))",
])
def test_other_keys_keep_a_unique_index(ddl):
    ours, theirs = _key_indexes(ddl)
    assert ours == ["__pk_t"]
    assert theirs == ["sqlite_autoindex_t_1"]


def test_an_int_key_is_not_the_rowid():
    statements = ("CREATE TABLE t (k INT PRIMARY KEY, v INTEGER)",
                  "INSERT INTO t VALUES (5, 1)",
                  "INSERT INTO t VALUES (NULL, 2)")
    ours, theirs = _run(statements, "SELECT k, v FROM t ORDER BY v")
    assert ours == theirs == [(5, 1), (None, 2)]


@pytest.mark.parametrize("key", [KEY_EXACT_INT + 1, -KEY_EXACT_INT - 1,
                                 2 ** 63 - 1])
def test_a_key_the_double_codec_cannot_hold_is_refused(key):
    db = Database()
    db.execute(SETUP[0])
    db.execute(f"INSERT INTO t VALUES ({KEY_EXACT_INT}, 1)")
    db.execute(f"INSERT INTO t VALUES ({-KEY_EXACT_INT}, 2)")
    with pytest.raises(SqlError, match="out of range"):
        db.execute(f"INSERT INTO t VALUES ({key}, 3)")
    with pytest.raises(SqlError, match="out of range"):
        db.execute(f"UPDATE t SET k = {key} WHERE v = 1")
    assert db.execute("SELECT k, v FROM t").rows == [
        (-KEY_EXACT_INT, 2), (KEY_EXACT_INT, 1)]
    # The largest key leaves no room for a NULL key's next rowid.
    with pytest.raises(SqlError, match="out of range"):
        db.execute("INSERT INTO t VALUES (NULL, 4)")
    db.close()


def test_neighbours_at_the_edge_of_the_exact_range_stay_apart():
    db = Database()
    db.execute(SETUP[0])
    for offset in range(3):
        db.execute(f"INSERT INTO t VALUES ({KEY_EXACT_INT - offset}, "
                   f"{offset})")
    assert db.execute("SELECT COUNT(*) FROM t").scalar() == 3
    assert db.execute(
        f"SELECT v FROM t WHERE k = {KEY_EXACT_INT - 1}").rows == [(1,)]
    db.close()


@pytest.mark.parametrize("statements, query", [
    (("CREATE TABLE t (k INT PRIMARY KEY, v INTEGER)",
      "INSERT INTO t VALUES (NULL, 1)",
      "INSERT INTO t VALUES (NULL, 2)"),
     "SELECT k, v FROM t ORDER BY v"),
    (("CREATE TABLE t (a INTEGER, b INTEGER, v INTEGER, PRIMARY KEY (a, b))",
      "INSERT INTO t VALUES (1, NULL, 1)",
      "INSERT INTO t VALUES (1, NULL, 2)"),
     "SELECT a, b, v FROM t ORDER BY v"),
    (("CREATE TABLE t (k INTEGER, v INTEGER)",
      "CREATE UNIQUE INDEX t_k ON t (k)",
      "INSERT INTO t VALUES (NULL, 1)",
      "INSERT INTO t VALUES (NULL, 2)",
      "INSERT INTO t VALUES (3, 3)",
      "UPDATE t SET k = NULL WHERE v = 3"),
     "SELECT k, v FROM t ORDER BY v"),
])
def test_a_unique_key_admits_many_nulls(statements, query):
    """A key holding a NULL equals no other key, so a UNIQUE index (a
    declared one, or the one beside a key that is not the rowid) takes
    it any number of times, on INSERT and on UPDATE."""
    ours, theirs = _run(statements, query)
    assert ours == theirs
    assert isinstance(ours, list)  # both engines stored every row
