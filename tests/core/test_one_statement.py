"""One statement per run: the snapshot is a parameter of the cursor.

Every snapshot of a run executes the one prepared Qq through a cursor
opened at that snapshot; ``current_snapshot()`` compiles to the
cursor's pin.  Checked here:

* a Hypothesis differential: per run, the product path (at 1 and 4
  workers) and ``RQLSession.run_reference`` store what a loop that runs
  ``parse_one(rewrite_qq(qq, sid))`` per snapshot folds to — over Qq
  with ``current_snapshot()`` in the select list, WHERE (an indexed
  equality and a batchable range), GROUP BY, HAVING, ORDER BY and
  LIMIT, with aliases and ``*``, over a history with ``CREATE INDEX``,
  ``DROP INDEX`` and a table re-created with its columns reordered;
* a pin in WHERE is planned per snapshot: each cursor's access path is
  the one ``EXPLAIN`` shows for the text at that snapshot, it probes
  the index as often, and no plan memoised at another snapshot answers;
* two cursors of one prepared statement, opened at different snapshots
  and consumed interleaved, each return their own id;
* outside a run ``current_snapshot()`` does not exist.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import RQLSession
from repro.core.folds import find_mechanism
from repro.core.rewrite import prepare_qq, rewrite_qq
from repro.errors import PlanError
from repro.sql import planner
from repro.sql.executor import IndexAccess, TableAccess
from repro.sql.parser import parse_one

QS = "SELECT snap_id FROM SnapIds ORDER BY snap_id"
STEPS = 8


@pytest.fixture(scope="module")
def history():
    """Eight snapshots of ``t``: an index on ``v`` appears before
    snapshot 3 and goes before 7; before 5, ``t`` is re-created with
    its columns in another order, so ``*`` reads another layout."""
    session = RQLSession()
    run = session.execute
    run("CREATE TABLE t (k INTEGER PRIMARY KEY, g TEXT, v INTEGER)")
    run("INSERT INTO t VALUES " + ", ".join(
        f"({k}, '{'abc'[k % 3]}', {k % 6})" for k in range(1, 31)))
    for step in range(1, STEPS + 1):
        if step == 3:
            run("CREATE INDEX t_v ON t (v)")
        if step == 5:
            run("CREATE TABLE t2 (k INTEGER PRIMARY KEY, v INTEGER, g TEXT)")
            run("INSERT INTO t2 SELECT k, v, g FROM t")
            run("DROP TABLE t")
            run("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER, g TEXT)")
            run("INSERT INTO t SELECT k, v, g FROM t2")
            run("DROP TABLE t2")
            run("CREATE INDEX t_v ON t (v)")
        if step == 7:
            run("DROP INDEX t_v")
        run(f"UPDATE t SET v = v + 1 WHERE k % 4 = {step % 4}")
        run(f"DELETE FROM t WHERE k = {step + 10}")
        run(f"INSERT INTO t VALUES ({100 + step}, {step % 5}, 'b')"
            if step >= 5 else
            f"INSERT INTO t VALUES ({100 + step}, 'b', {step % 5})")
        assert session.declare_snapshot() == step
    yield session
    session.close()


def text_fold(session, mechanism, arg, qq):
    """The oracle: per snapshot of Qs, the rewritten text through
    ``Database.execute``, folded by the mechanism's fold."""
    fold = find_mechanism(mechanism).fold(arg)
    for (sid,) in session.execute(QS).rows:
        result = session.db.execute(rewrite_qq(qq, sid))
        fold.step(sid, list(result.columns),
                  [tuple(row) for row in result.rows])
    return fold.result()


def stored(session, table):
    result = session.execute(f'SELECT * FROM "{table}"')
    return list(result.columns), [tuple(row) for row in result.rows]


# -- generated Qq -------------------------------------------------------------

_plain_items = st.lists(st.sampled_from([
    "k", "v", "g", "current_snapshot()", "current_snapshot() AS sid",
    "v + current_snapshot() AS vs", "k * 2 AS x", "*",
]), min_size=1, max_size=3, unique=True)
_where = st.sampled_from([
    "", "WHERE k = current_snapshot()",            # indexed equality
    "WHERE k = current_snapshot() + 100",
    "WHERE v >= current_snapshot() - 3",           # a batchable range
    "WHERE v BETWEEN 1 AND current_snapshot()",
    "WHERE v < 3 AND g <> 'c'",
    "WHERE x > 20",                                # a select-list alias
])
_order = st.sampled_from(["", "ORDER BY k", "ORDER BY v DESC, k",
                          "ORDER BY 1"])
_limit = st.sampled_from(["", "LIMIT 3", "LIMIT current_snapshot()",
                          "LIMIT 2 OFFSET current_snapshot() - 1"])


@st.composite
def plain_qq(draw):
    items = draw(_plain_items)
    if "*" in items:
        # A result table takes Qq's column names; keep them distinct.
        items = [item for item in items if item not in ("k", "v", "g")]
    where = draw(_where)
    if "x" in where and "k * 2 AS x" not in items:
        items = items + ["k * 2 AS x"]
    order = draw(_order)
    limit = draw(_limit) if order else ""
    return " ".join(part for part in (
        "SELECT", ", ".join(items), "FROM t", where, order, limit) if part)


@st.composite
def grouped_qq(draw):
    key = draw(st.sampled_from(["g", "v", "g, current_snapshot()"]))
    items = [key.split(",")[0], "COUNT(*) AS c"] + draw(st.lists(
        st.sampled_from(["SUM(v) + current_snapshot() AS s",
                         "MAX(k) AS hi", "current_snapshot() AS sid"]),
        max_size=2, unique=True))
    where = draw(st.sampled_from(["", "WHERE v >= current_snapshot() - 4",
                                  "WHERE k < 25"]))
    having = draw(st.sampled_from(["", "HAVING COUNT(*) > 1",
                                   "HAVING COUNT(*) + current_snapshot() > 6",
                                   "HAVING c > 2"]))
    order = draw(st.sampled_from(["ORDER BY 1", "ORDER BY c DESC, 1"]))
    limit = draw(st.sampled_from(["", "LIMIT current_snapshot()"]))
    return " ".join(part for part in (
        "SELECT", ", ".join(items), "FROM t", where, "GROUP BY", key,
        having, order, limit) if part)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(qq=st.one_of(plain_qq(), grouped_qq()),
       workers=st.sampled_from([1, 4]))
def test_runs_match_the_reference_loop_and_the_text(history, qq, workers):
    expected = text_fold(history, "CollateData", None, qq)
    want = (expected.columns, expected.rows)
    history.run_mechanism("CollateData", QS, qq, "R", workers=workers)
    assert stored(history, "R") == want, qq
    history.run_reference("CollateData", QS, qq, "R")
    assert stored(history, "R") == want, qq


@pytest.mark.parametrize("workers", [1, 4])
def test_folds_with_a_pinned_clause_match_the_text(history, workers):
    qq = ("SELECT g, COUNT(*) AS c, SUM(v) AS sv FROM t "
          "WHERE v >= current_snapshot() - 3 GROUP BY g")
    arg = [("c", "max"), ("sv", "sum")]
    expected = text_fold(history, "AggregateDataInTable", arg, qq)
    history.run_mechanism("AggregateDataInTable", QS, qq, "R", arg,
                          workers=workers)
    assert stored(history, "R") == (expected.columns, expected.rows)


# -- a pin in WHERE is planned per snapshot -----------------------------------

def _probes(monkeypatch):
    """Count the index probes and rowid seeks made from here on."""
    counts = {"probes": 0}
    for owner, name in ((IndexAccess, "lookup_equal"),
                        (IndexAccess, "lookup_range"),
                        (TableAccess, "seek"), (TableAccess, "seek_range")):
        real = getattr(owner, name)

        def counting(self, *args, _real=real, **kwargs):
            counts["probes"] += 1
            return _real(self, *args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
    return counts


@pytest.mark.parametrize("qq", [
    "SELECT k, v FROM t WHERE k = current_snapshot() + 100",
    "SELECT k, g FROM t WHERE v > current_snapshot() - 2",
])
def test_a_pinned_where_gets_each_snapshots_own_access_path(
        history, monkeypatch, qq):
    plans = []
    real_plan = planner.PlanMemo.plan

    def memo_plan(memo, *args):
        plans.append(real_plan(memo, *args))
        return plans[-1]
    monkeypatch.setattr(planner.PlanMemo, "plan", memo_plan)
    probes = _probes(monkeypatch)
    db = history.db
    prepared = prepare_qq(qq)
    sids = [sid for (sid,) in history.execute(QS).rows]
    # Backwards and forwards through one memo: the memo's last plan is
    # always another snapshot's.
    for sid in sids[::-1] + sids:
        text = rewrite_qq(qq, sid)
        explain = [line for (line,) in db.execute("EXPLAIN " + text).rows]
        before = probes["probes"]
        want = [tuple(row) for row in db.execute(text).rows]
        text_probes = probes["probes"] - before
        before = probes["probes"]
        with db.run_reader() as reader:
            _, rows = reader.cursor(prepared.statement, sid, prepared.memo)
            got = [tuple(row) for row in rows]
        assert got == want, sid
        assert probes["probes"] - before == text_probes, sid
        notes = plans[-1].access_notes() + plans[-1].cost_notes()
        assert notes == [line for line in explain if line in notes]
        assert len(notes) == len([
            line for line in explain
            if line.startswith(("SCAN", "SEARCH", "COST"))]), sid
        access = plans[-1].steps[0].access
        if access.kind == "eq":
            assert access.value == sid + 100
        elif access.kind == "range":
            assert access.lo == [sid - 2]
    assert any(note.startswith("SEARCH t USING")
               for p in plans for note in p.access_notes())


# -- one statement, many cursors ----------------------------------------------

INTERLEAVED_QQ = [
    "SELECT k, current_snapshot() FROM t",
    "SELECT k, v + current_snapshot() AS vs FROM t "
    "WHERE v >= current_snapshot() - 3 ORDER BY k LIMIT current_snapshot()",
    "SELECT g, COUNT(*) + current_snapshot() FROM t GROUP BY g "
    "HAVING COUNT(*) > current_snapshot() - 8 ORDER BY 1",
]


@pytest.mark.parametrize("qq", INTERLEAVED_QQ)
def test_interleaved_cursors_each_return_their_own_snapshot(history, qq):
    db = history.db
    prepared = prepare_qq(qq)
    first, second = 3, 4  # one catalog: one plan, two pins
    want = {sid: [tuple(row) for row in db.execute(rewrite_qq(qq, sid)).rows]
            for sid in (first, second)}
    assert want[first] != want[second]

    def interleave(one, two):
        got = {first: [], second: []}
        rows = {first: one, second: two}
        while rows:
            for sid in list(rows):
                row = next(rows[sid], None)
                if row is None:
                    del rows[sid]
                else:
                    got[sid].append(tuple(row))
        return got

    with db.run_reader() as reader:
        _, one = reader.cursor(prepared.statement, first, prepared.memo)
        _, two = reader.cursor(prepared.statement, second, prepared.memo)
        assert interleave(one, two) == want
    _, one = db.open_cursor(prepared.statement, second, memo=prepared.memo)
    _, two = db.open_cursor(prepared.statement, first, memo=prepared.memo)
    assert interleave(two, one) == want


# -- outside a run ------------------------------------------------------------

@pytest.mark.parametrize("sql", [
    "SELECT current_snapshot() FROM t",
    "SELECT AS OF 2 current_snapshot() FROM t",
    "SELECT AS OF 2 k FROM t WHERE k = current_snapshot()",
    "SELECT k FROM t ORDER BY k LIMIT current_snapshot()",
    "EXPLAIN SELECT current_snapshot() FROM t",
    "EXPLAIN SELECT AS OF 2 k FROM t WHERE v > current_snapshot()",
])
def test_outside_a_run_current_snapshot_does_not_exist(history, sql):
    with pytest.raises(PlanError, match="no such function: current_snapshot"):
        history.execute(sql)


def test_a_statement_with_as_of_takes_no_snapshot_parameter(history):
    statement = parse_one("SELECT AS OF 2 k FROM t")
    with pytest.raises(PlanError, match="AS OF"):
        history.db.open_cursor(statement, 3)
    with history.db.run_reader() as reader:
        with pytest.raises(PlanError, match="AS OF"):
            reader.cursor(statement, 3)
    with pytest.raises(PlanError, match="no such function"):
        history.db.open_cursor(parse_one("SELECT current_snapshot()"))
