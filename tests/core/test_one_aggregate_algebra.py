"""Every strategy folds a column with the SQL aggregate of that name.

AggregateDataInTable steps and merges each stored row through the same
accumulator classes SQL's GROUP BY uses (``repro.sql.aggregates``), so
its result is the plain SQL aggregate over the snapshots' Qq rows
(snapshot-reducibility), byte for byte at every worker count and in the
table-backed reference loop.  These cases are the ones a separate
stored-row arithmetic got wrong: numeric text, ``-0.0`` beside NULL,
and AVG over a group seen once.
"""

from __future__ import annotations

import pytest

from repro.core import RQLSession
from repro.errors import AggregateError, TypeMismatchError

QS = "SELECT snap_id FROM SnapIds ORDER BY snap_id"
STRATEGIES = ["workers=1", "workers=2", "workers=3", "reference"]


def _history(*snapshots):
    """A session whose table ``t (g, v)`` (no declared types) holds
    each given row list in one snapshot."""
    session = RQLSession()
    session.execute("CREATE TABLE t (g, v)")
    for rows in snapshots:
        session.execute("DELETE FROM t")
        for g, v in rows:
            session.execute(f"INSERT INTO t VALUES ({g!r}, {v})")
        session.declare_snapshot()
    return session


def _run(session, strategy, mechanism, qq, arg):
    """The result table's stored rows, helpers included, as ``repr``."""
    if strategy == "reference":
        session.run_reference(mechanism, QS, qq, "R", arg)
    else:
        session.run_mechanism(mechanism, QS, qq, "R", arg,
                              workers=int(strategy.split("=")[1]))
    rows = session.execute('SELECT * FROM "R"').rows
    session.execute('DROP TABLE "R"')
    return repr(rows)


def _sql(session, select):
    """``select`` over every snapshot's rows collated into one table."""
    session.collate_data(QS, "SELECT g, v FROM t", "C")
    rows = session.execute(select).rows
    session.execute('DROP TABLE "C"')
    return repr(rows)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sum_reads_numeric_text_as_numbers(strategy):
    session = _history([("a", "'5'")], [("a", "'3'")], [("a", "NULL")])
    got = _run(session, strategy, "AggregateDataInTable",
               "SELECT g, v FROM t", [("v", "sum")])
    assert got == repr([("a", 8)])
    assert got == _sql(session, "SELECT g, SUM(v) FROM C GROUP BY g")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sum_of_text_that_is_no_number_is_a_type_error(strategy):
    session = _history([("a", "'5'")], [("a", "'3'")], [("a", "'a'")])
    with pytest.raises(TypeMismatchError):
        _run(session, strategy, "AggregateDataInTable",
             "SELECT g, v FROM t", [("v", "sum")])


def test_negative_zero_beside_null_is_one_set_of_bytes():
    """Group x sees NULL then -0.0, group y -0.0 then NULL: SUM keeps
    -0.0 (as SQL does), AVG's sum starts at 0.0 (as SQL's does)."""
    session = _history([("x", "NULL"), ("y", "-0.0")],
                       [("x", "-0.0"), ("y", "NULL")],
                       [("x", "NULL"), ("y", "NULL")])
    qq = "SELECT g, v AS s, v AS a FROM t"
    pairs = [("s", "sum"), ("a", "avg")]
    dumps = {strategy: _run(session, strategy, "AggregateDataInTable",
                            qq, pairs)
             for strategy in STRATEGIES}
    expected = repr([("x", -0.0, 0.0, 0.0, 1), ("y", -0.0, 0.0, 0.0, 1)])
    assert dumps == {strategy: expected for strategy in STRATEGIES}
    assert _sql(session, "SELECT g, SUM(v), AVG(v) FROM C GROUP BY g") \
        == repr([("x", -0.0, 0.0), ("y", -0.0, 0.0)])


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_avg_of_a_group_seen_once_is_a_float(strategy):
    session = _history([("a", 4)], [("b", 1)], [("b", 2)])
    got = _run(session, strategy, "AggregateDataInTable",
               "SELECT g, v FROM t", [("v", "avg")])
    assert got == repr([("a", 4.0, 4.0, 1), ("b", 1.5, 3.0, 2)])
    assert _sql(session, "SELECT g, AVG(v) FROM C GROUP BY g") \
        == repr([("a", 4.0), ("b", 1.5)])
    variable = _run(session, strategy, "AggregateDataInVariable",
                    "SELECT v FROM t WHERE g = 'a'", "avg")
    assert variable == repr([(4.0,)])


def test_total_is_always_a_float_and_zero_over_no_rows():
    """SQL TOTAL is SQLite's: a float, 0.0 over no rows (or only NULLs),
    where SUM keeps integers and is NULL over no rows.  It is SQL only:
    a mechanism folds ``sum`` and refuses ``total`` by name."""
    session = RQLSession()
    session.execute("CREATE TABLE t (g TEXT, v INTEGER)")
    both = "SELECT TOTAL(v), SUM(v) FROM t"
    assert repr(session.execute(both).rows) == repr([(0.0, None)])
    session.execute("INSERT INTO t VALUES ('a', 2), ('b', NULL), ('a', 3)")
    assert repr(session.execute(both).rows) == repr([(5.0, 5)])
    assert repr(session.execute(
        "SELECT g, TOTAL(v), SUM(v) FROM t GROUP BY g").rows) \
        == repr([("a", 5.0, 5), ("b", 0.0, None)])
    session.declare_snapshot()
    with pytest.raises(AggregateError) as refused:
        session.aggregate_data_in_variable(
            QS, "SELECT SUM(v) FROM t", "R", "total")
    assert str(refused.value) == ("unknown aggregate 'total'; supported: "
                                  "min, max, sum, count, avg")
