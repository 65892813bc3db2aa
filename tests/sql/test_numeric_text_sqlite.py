"""Numeric text under column affinity, side by side with stdlib ``sqlite3``.

One reader, :func:`repro.sql.types.numeric_value`, decides what text
stored into an ``INTEGER`` / ``NUMERIC`` / ``REAL`` column becomes,
what text an ``INTEGER PRIMARY KEY`` accepts as a rowid and what text a
``LIMIT`` reads as a count.  Well-formed numeric text is an INTEGER when
that is lossless and a REAL otherwise; anything else, Python-only
spellings (``'1_000'``, ``'inf'``) included, stays text.  Each case runs
in both engines and compares the stored values with their Python types
(SQLite's storage classes), or the error that refused the statement.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.errors import SqlError
from repro.sql.database import Database

TEXTS = ["7", "7.0", "1e2", "3.0e0", "1_000", "3", "inf", "nan",
         "Infinity", " 7 ", "\t3\n", "+5", "-5", ".5", "5.", "1.e3",
         "0.1e1", "0x10", "1.5", "00012", "-0", "-0.0", "1e", "e5", "5x",
         "", "  ", "1.0000000000000001", "9007199254740993",
         "9007199254740993.0", "1e18", "1e19", "9223372036854775807",
         "9223372036854775808", "-9223372036854775808", "1e400"]


def _both(statements, query):
    """What ``query`` returns after ``statements`` in this engine and in
    sqlite3, each value paired with its type name; or the error text of
    the first statement that failed."""
    db, lite = Database(), sqlite3.connect(":memory:")
    outcomes = []
    for execute in (lambda sql: db.execute(sql).rows,
                    lambda sql: lite.execute(sql).fetchall()):
        try:
            for sql in statements:
                execute(sql)
            outcomes.append([tuple((value, type(value).__name__)
                                   for value in row)
                             for row in execute(query)])
        except (SqlError, sqlite3.Error) as error:
            outcomes.append(str(error))
    lite.close()
    db.close()
    return outcomes


def _quote(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


@pytest.mark.parametrize("text", TEXTS)
def test_text_under_each_affinity(text):
    ours, theirs = _both(
        ["CREATE TABLE t (i INTEGER, n NUMERIC, r REAL, s TEXT)",
         f"INSERT INTO t VALUES ({', '.join([_quote(text)] * 4)})"],
        "SELECT i, n, r, s FROM t")
    assert ours == theirs


@pytest.mark.parametrize("value", ["3.0", "3.5", "1e19", "-7.0"])
def test_reals_under_each_affinity(value):
    """A real with no fraction inside the 64-bit range is the INTEGER
    it equals in an INTEGER or NUMERIC column."""
    ours, theirs = _both(
        ["CREATE TABLE t (i INTEGER, n NUMERIC, r REAL)",
         f"INSERT INTO t VALUES ({value}, {value}, {value})"],
        "SELECT i, n, r FROM t")
    assert ours == theirs


@pytest.mark.parametrize("text", ["7.0", "1e2", " 8 ", "1_000", "9.5",
                                  "inf", "0x10"])
def test_text_as_a_rowid(text):
    ours, theirs = _both(
        ["CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)",
         f"INSERT INTO t VALUES ({_quote(text)}, 1)"],
        "SELECT k, v FROM t")
    assert ours == theirs


@pytest.mark.parametrize("text", ["2", "2.0", "1e1", " 3 ", "1_0", "2.5"])
def test_text_as_a_limit(text):
    ours, theirs = _both(
        ["CREATE TABLE t (v INTEGER)",
         "INSERT INTO t VALUES (1), (2), (3)"],
        f"SELECT v FROM t ORDER BY v LIMIT {_quote(text)}")
    assert ours == theirs


def test_an_update_reads_text_the_same_way():
    ours, theirs = _both(
        ["CREATE TABLE t (i INTEGER, n NUMERIC)",
         "INSERT INTO t VALUES (1, 1)",
         "UPDATE t SET i = '7.0', n = '1_000'"],
        "SELECT i, n FROM t")
    assert ours == theirs
