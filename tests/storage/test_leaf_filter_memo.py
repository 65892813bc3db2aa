"""A leaf's kept batch can never serve stale or foreign rows.

A SELECT scan filters a leaf at a time with its plan's leaf filter and
leaves the passing rows on the cached leaf node, one slot keyed by the
filter's identity (DESIGN.md, "A leaf carries its last filtered batch").
A counting wrapper around every compiled leaf filter pins what is
filtered when:

(a) the next snapshot filters only the leaves it does not share with
    the previous one;
(b) a write drops only the rewritten leaf's batch;
(c) clearing the snapshot cache forces a re-filter;
(d) two prepared Qqs alternating over the same leaves each get their own
    rows: the slot thrashes but stays right;
(e) two partitions racing over shared leaves, switching every few
    bytecodes, write what the reference loop writes.
"""

from __future__ import annotations

import sys
from typing import Optional

import pytest

from repro.core import RQLSession
from repro.core.rewrite import prepare_qq
from repro.sql.database import Database
from repro.sql.expressions import ExpressionCompiler
from repro.sql.parser import parse_one
from repro.sql.planner import PlanMemo
from tests.conftest import full_database_dump
from tests.storage.test_leaf_entry_cache import (
    SMALL_PAGE,
    declare_snapshot,
    table_leaves,
)

ROWS = 60
COUNT_QQ = "SELECT COUNT(*) FROM t WHERE pad = 'padpadpad' AND v < 5"


@pytest.fixture
def filtered(monkeypatch):
    """Entries lists handed to any compiled leaf filter since the last
    reset: one item per leaf filtered, its length the leaf's cells."""
    calls = []
    compile_leaf_filter = ExpressionCompiler.compile_leaf_filter

    def counting(compiler, conjuncts):
        leaf_filter, rest = compile_leaf_filter(compiler, conjuncts)
        if leaf_filter is None:
            return None, rest

        def counted(entries):
            calls.append(len(entries))
            return leaf_filter(entries)
        return counted, rest

    monkeypatch.setattr(ExpressionCompiler, "compile_leaf_filter", counting)
    return calls


@pytest.fixture
def db():
    db = Database(page_size=SMALL_PAGE)
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER, pad TEXT)")
    db.execute("INSERT INTO t VALUES "
               + ", ".join(f"({k}, {k % 3}, 'padpadpad')"
                           for k in range(ROWS)))
    yield db
    db.close()


def run(db, prepared, sid):
    """One snapshot-loop iteration of ``prepared``: through its memo."""
    _, rows = db.open_cursor(prepared.bind(sid), memo=prepared.memo)
    return [tuple(row) for row in rows]


def text(db, qq, sid):
    return [tuple(row) for row in
            db.execute(qq.replace("SELECT", f"SELECT AS OF {sid}", 1)).rows]


def leaf_count(db, sid=None):
    return len(table_leaves(db, sid))


def unshared_leaves(db, before, after):
    seen = {identity for identity, _, _ in table_leaves(db, before)}
    return [cells for identity, _, cells in table_leaves(db, after)
            if identity not in seen]


def test_next_snapshot_filters_only_the_leaves_it_does_not_share(
        db, filtered):
    first = declare_snapshot(db)
    db.execute("UPDATE t SET v = 7 WHERE k = 5")
    second = declare_snapshot(db)
    db.execute("UPDATE t SET v = 2 WHERE k = 50")
    db.engine.retro.cache.clear()
    unshared = unshared_leaves(db, first, second)
    assert 0 < len(unshared) < leaf_count(db, second)
    want = {sid: text(db, COUNT_QQ, sid) for sid in (first, second)}
    assert want[first] != want[second]
    prepared = prepare_qq(COUNT_QQ)
    del filtered[:]
    assert run(db, prepared, first) == want[first]
    assert len(filtered) == leaf_count(db, first)
    del filtered[:]
    assert run(db, prepared, second) == want[second]
    assert filtered == unshared
    del filtered[:]
    assert run(db, prepared, second) == want[second]
    assert run(db, prepared, first) == want[first]
    assert filtered == []


def test_a_write_drops_only_the_rewritten_leafs_batch(db, filtered):
    statement = parse_one("SELECT k FROM t WHERE v = 1")
    memo = PlanMemo()

    def current():
        _, rows = db.open_cursor(statement, memo=memo)
        return [row[0] for row in rows]

    assert current() == [k for k in range(ROWS) if k % 3 == 1]
    assert len(filtered) == leaf_count(db)
    del filtered[:]
    assert current() == [k for k in range(ROWS) if k % 3 == 1]
    assert filtered == []
    before = {identity: node for identity, node, _ in table_leaves(db)}
    db.execute("UPDATE t SET v = 1 WHERE k = 0")
    after = table_leaves(db)
    rewritten = [identity for identity, node, _ in after
                 if node is not before.get(identity)]
    assert len(rewritten) == 1
    for identity, node, _ in after:
        assert (node is None or node.kept is None) \
            == (identity in rewritten)
    del filtered[:]
    assert current() == [k for k in range(ROWS) if k % 3 == 1 or k == 0]
    assert len(filtered) == 1


def test_clearing_the_snapshot_cache_forces_a_refilter(db, filtered):
    sid = declare_snapshot(db)
    # Rewrite every leaf, so the snapshot reads all of them from the
    # Pagelog and shares none with the current state.
    db.execute("UPDATE t SET v = v + 1")
    prepared = prepare_qq(COUNT_QQ)
    want = text(db, COUNT_QQ, sid)
    del filtered[:]
    assert run(db, prepared, sid) == want
    leaves = len(filtered)
    assert leaves == leaf_count(db, sid) > 1
    del filtered[:]
    assert run(db, prepared, sid) == want
    assert filtered == []
    db.engine.retro.cache.clear()
    assert run(db, prepared, sid) == want
    assert len(filtered) == leaves


def test_two_prepared_qqs_alternating_over_the_same_leaves(db, filtered):
    first = declare_snapshot(db)
    db.execute("UPDATE t SET v = 9 WHERE k = 30")
    second = declare_snapshot(db)
    unshared = unshared_leaves(db, first, second)
    qqs = ["SELECT k FROM t WHERE v = 0", "SELECT k FROM t WHERE v != 0"]
    # The oracle is the model (v = k % 3, then 9 at k = 30), not a text
    # statement: those go through the same leaves and slots.
    v_at = {first: lambda k: k % 3,
            second: lambda k: 9 if k == 30 else k % 3}
    want = {}
    for sid, v in v_at.items():
        want[(qqs[0], sid)] = [(k,) for k in range(ROWS) if v(k) == 0]
        want[(qqs[1], sid)] = [(k,) for k in range(ROWS) if v(k) != 0]
    prepared = [prepare_qq(qq) for qq in qqs]
    del filtered[:]
    for _ in range(3):
        for qq, statement in zip(qqs, prepared):
            for sid in (first, second):
                assert run(db, statement, sid) == want[(qq, sid)]
    # Each statement's first snapshot finds every leaf's slot taken by
    # the other statement and filters it again; its second snapshot
    # filters only what the two snapshots do not share.
    assert len(filtered) \
        == 3 * 2 * (leaf_count(db, first) + len(unshared))


FIXED_CLOCK = lambda: "2026-01-01 00:00:00"  # noqa: E731


def _history() -> RQLSession:
    rql = RQLSession(db=Database(page_size=SMALL_PAGE), clock=FIXED_CLOCK,
                     workers=1)
    rql.execute("CREATE TABLE events (grp INTEGER, val INTEGER, pad TEXT)")
    rql.execute("INSERT INTO events VALUES " + ", ".join(
        f"({i % 11}, {i}, 'pad')" for i in range(200)))
    for sid in range(1, 13):
        with rql.transaction(with_snapshot=True):
            rql.execute(f"UPDATE events SET val = val + 1 "
                        f"WHERE grp = {sid % 11}")
            rql.execute("INSERT INTO events VALUES " + ", ".join(
                f"({(sid + i) % 11}, {sid * 1000 + i}, 'new')"
                for i in range(6)))
    return rql


def _run_all(rql: RQLSession, workers: Optional[int]):
    """Three mechanisms over every snapshot; ``workers=None`` runs the
    reference loop."""
    qs = "SELECT snap_id FROM SnapIds"
    for name, qq, table, arg in (
            ("CollateData", "SELECT grp, val, current_snapshot() "
             "FROM events WHERE grp IN (1, 2, 3) AND pad = 'pad'",
             "r_collate", None),
            ("AggregateDataInVariable", "SELECT COUNT(*) FROM events "
             "WHERE grp BETWEEN 2 AND 7", "r_var", "sum"),
            ("AggregateDataInTable", "SELECT grp, val FROM events "
             "WHERE pad = 'new' OR val < 50", "r_table",
             [("val", "max"), ("val", "sum")])):
        if workers is None:
            rql.run_reference(name, qs, qq, table, arg)
        else:
            rql.run_mechanism(name, qs, qq, table, arg, workers=workers)
    return full_database_dump(rql.db)


def test_two_partitions_racing_over_shared_leaves_equal_the_serial_run(
        filtered):
    serial, parallel = _history(), _history()
    interval = sys.getswitchinterval()
    try:
        want = _run_all(serial, workers=None)
        assert filtered
        sys.setswitchinterval(1e-5)
        # More partitions than cores: every one binds the same prepared
        # Qq, so all of them share its memo and its leaf filter.
        for workers in (2, 3, 4):
            parallel.db.engine.retro.cache.clear()
            assert _run_all(parallel, workers=workers) == want
    finally:
        sys.setswitchinterval(interval)
        serial.close()
        parallel.close()
