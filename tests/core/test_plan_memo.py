"""The plan memo re-plans exactly when an input of the pure planner changes.

A :class:`~repro.core.rewrite.PreparedQq` carries one
:class:`~repro.sql.planner.PlanMemo`; the snapshot loops hand it over
with every cursor of the one statement (``RunReader.cursor`` in a fold,
``Database.open_cursor`` in the reference loop).  ``plan_from`` is
pure, so the memo may return the last plan whenever the table
descriptions (by value), the predicates (by identity) and each table's
statistics (by value) equal the last call's.  Over one snapshot series
that creates and drops an index, gathers statistics and re-creates the
table with other columns, every iteration must return the rows of the
text ``Qq AS OF S`` and carry the plan a fresh ``plan_from`` makes for
that snapshot — re-planning on precisely the snapshots whose inputs
changed.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import RQLSession
from repro.core.rewrite import prepare_qq, rewrite_qq
from repro.sql import planner

QQ = "SELECT k, a FROM t WHERE a >= 2 AND k < 40"
QQ_CURRENT = "SELECT k, a FROM t WHERE k < current_snapshot() * 5"


def _snapshot(session, name):
    with session.transaction(with_snapshot=True, name=name):
        pass


@pytest.fixture(scope="module")
def history():
    """Eleven snapshots; between them the schema, the indexes and the
    statistics of ``t`` change one at a time, with data-only steps
    between the changes."""
    session = RQLSession()
    run = session.execute
    run("CREATE TABLE t (k INTEGER PRIMARY KEY, a INTEGER, b TEXT)")
    for i in range(60):
        run(f"INSERT INTO t VALUES ({i}, {i % 7}, 'b{i}')")
    # Statements run before each declaration.  ANALYZE stamps its
    # statistics with the latest *declared* snapshot, so they already
    # apply to the snapshot before the one it precedes.
    steps = [
        [],                                         # S1
        ["UPDATE t SET a = a + 1 WHERE k < 10"],    # S2: data only
        ["CREATE INDEX t_a ON t (a)"],              # S3: an index
        ["DELETE FROM t WHERE k = 3"],              # S4: data only...
        ["ANALYZE t"],                              # ...+ stats at S4
        ["UPDATE t SET a = 0 WHERE k = 5"],         # S6: data only
        ["DROP INDEX t_a"],                         # S7: no index
        ["DROP TABLE t",                            # S8: other columns
         "CREATE TABLE t (z TEXT, a INTEGER, k INTEGER)"]
        + [f"INSERT INTO t VALUES ('z{i}', {i % 5}, {i})"
           for i in range(30)],
        ["INSERT INTO t VALUES ('late', 9, 9)"],    # S9: data only
        ["CREATE INDEX t_k ON t (k)"],              # S10: an index...
        ["ANALYZE t"],                              # ...+ stats at S10
    ]
    for number, statements in enumerate(steps, start=1):
        for sql in statements:
            run(sql)
        _snapshot(session, f"s{number}")
    sids = [int(row[0]) for row in
            run("SELECT snap_id FROM SnapIds ORDER BY snap_id").rows]
    assert len(sids) == len(steps)
    yield session, sids
    session.close()


class _Spy:
    """Records every ``plan_from`` call (its inputs, normalised, and its
    plan) and every plan a memo hands out."""

    def __init__(self, monkeypatch):
        self.fresh = []
        self.memo_plans = []
        real_plan_from = planner.plan_from
        real_memo_plan = planner.PlanMemo.plan

        def plan_from(descs, predicates, stats_for):
            plan = real_plan_from(descs, predicates, stats_for)
            inputs = ([(d.binding, d.table, list(d.columns),
                        list(d.indexes)) for d in descs],
                      [stats_for(d.table) for d in descs])
            self.fresh.append((inputs, plan))
            return plan

        def memo_plan(memo, descs, predicates, stats_for, pin=None):
            plan = real_memo_plan(memo, descs, predicates, stats_for, pin)
            self.memo_plans.append(plan)
            return plan

        monkeypatch.setattr(planner, "plan_from", plan_from)
        monkeypatch.setattr(planner.PlanMemo, "plan", memo_plan)


def _notes(plan):
    return plan.access_notes() + plan.cost_notes()


def _step(db, prepared, sid):
    """One loop iteration: the statement at ``sid`` through the memo."""
    _, rows = db.open_cursor(prepared.statement, sid, memo=prepared.memo)
    return [tuple(row) for row in rows]


def _text(db, qq, sid):
    return [tuple(row) for row in db.execute(rewrite_qq(qq, sid)).rows]


def test_memo_replans_exactly_when_an_input_changes(history, monkeypatch):
    session, sids = history
    db = session.db
    spy = _Spy(monkeypatch)
    prepared = prepare_qq(QQ)
    replanned, inputs = [], []
    for sid in sids:
        before = len(spy.fresh)
        rows = _step(db, prepared, sid)
        replanned.append(len(spy.fresh) > before)
        memo_plan = spy.memo_plans[-1]
        memo_calls = len(spy.memo_plans)
        # The text statement plans afresh (text never uses the memo).
        assert _text(db, QQ, sid) == rows, sid
        assert len(spy.memo_plans) == memo_calls
        fresh_inputs, fresh_plan = spy.fresh[-1]
        assert _notes(memo_plan) == _notes(fresh_plan), sid
        inputs.append(fresh_inputs)
    changed = [i == 0 or inputs[i] != inputs[i - 1]
               for i in range(len(inputs))]
    assert replanned == changed
    # The history moves every input the key holds, and also leaves
    # them alone: each kind of step both misses and hits.
    assert changed == [
        True,                 # S1: the first plan
        False,                # S2
        True,                 # S3: CREATE INDEX
        True,                 # S4: ANALYZE
        False, False,         # S5, S6
        True,                 # S7: DROP INDEX
        True,                 # S8: DROP + CREATE TABLE, other columns
        False,                # S9
        True,                 # S10: CREATE INDEX + ANALYZE
        False,                # S11
    ]


def test_leaf_filter_is_reused_exactly_with_the_plan(history, monkeypatch):
    """A scan step's compiled leaf filter rides on the plan node: the
    same object while the memo reuses the plan, a new one after every
    re-plan, so a new plan never finds the previous plan's batches on
    a leaf."""
    session, sids = history
    db = session.db
    spy = _Spy(monkeypatch)
    prepared = prepare_qq(QQ)
    seen = []  # every filter so far, held so no identity is recycled
    previous = None
    scans = 0
    for sid in sids:
        before = len(spy.fresh)
        rows = _step(db, prepared, sid)
        replanned = len(spy.fresh) > before
        assert rows == _text(db, QQ, sid), sid
        step = spy.memo_plans[-1].steps[0]
        if step.access.kind != "scan":
            assert step.leaf_filter is None  # index probes filter per row
            previous = None
            continue
        scans += 1
        leaf_filter, per_row = step.leaf_filter
        assert leaf_filter is not None and per_row == []
        if replanned:
            assert all(leaf_filter is not old for old in seen), sid
        else:
            assert leaf_filter is previous, sid
        seen.append(leaf_filter)
        previous = leaf_filter
    # Both kinds of snapshot occur among the scans: a reused plan and
    # a re-plan (ANALYZE, DROP INDEX, DROP + CREATE TABLE, CREATE INDEX).
    assert scans == 8 and len(seen) == 8
    assert len({id(f) for f in seen}) == 4


def test_memo_never_hits_with_current_snapshot_in_where(history,
                                                        monkeypatch):
    session, sids = history
    db = session.db
    spy = _Spy(monkeypatch)
    prepared = prepare_qq(QQ_CURRENT)
    for sid in sids:
        before = len(spy.fresh)
        rows = _step(db, prepared, sid)
        assert len(spy.fresh) == before + 1  # the pin is in the WHERE
        assert rows == _text(db, QQ_CURRENT, sid)


@pytest.mark.parametrize("qq", [QQ, QQ_CURRENT])
def test_threads_sharing_one_prepared_qq(history, qq):
    """Partition threads racing on one memo at worst plan twice; every
    thread's rows are still its snapshot's."""
    session, sids = history
    db = session.db
    expected = {sid: _text(db, qq, sid) for sid in sids}
    prepared = prepare_qq(qq)
    failures = []

    def worker(order):
        try:
            for _ in range(3):
                # One run reader per thread, as each partition opens.
                with db.run_reader() as reader:
                    for sid in order:
                        _, rows = reader.cursor(prepared.statement, sid,
                                                prepared.memo)
                        got = [tuple(row) for row in rows]
                        if got != expected[sid]:
                            failures.append((sid, got))
        except Exception as exc:  # reported below, on the test thread
            failures.append(exc)

    orders = [sids, sids[::-1], sids[::2] + sids[1::2], sids[5:] + sids[:5]]
    threads = [threading.Thread(target=worker, args=(order,))
               for order in orders]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert failures == []


def test_both_snapshot_loops_plan_through_the_memo(history, monkeypatch):
    """The serial table-backed body and the partition fold both hand
    the memo to every cursor, and their results stay right."""
    session, sids = history
    spy = _Spy(monkeypatch)
    qs = "SELECT snap_id FROM SnapIds WHERE snap_id <= 7"
    for workers in (1, 2):
        before = len(spy.memo_plans)
        session.collate_data(qs, QQ, f"memo_{workers}", workers=workers)
        assert len(spy.memo_plans) - before == 7
        expected = sorted(row for sid in sids[:7]
                          for row in _text(session.db, QQ, sid))
        got = session.execute(f"SELECT * FROM memo_{workers}").rows
        assert sorted(tuple(row) for row in got) == expected
