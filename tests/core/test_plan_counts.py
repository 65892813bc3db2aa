"""How often a run plans: once per catalog, whatever the Qq's clauses.

Every snapshot executes the one prepared statement, and the plan memo
compares predicates by identity, so a run over an unchanged catalog
calls ``planner.plan_from`` once for its Qq — also when the WHERE names
a select-list alias, which is resolved once per catalog rather than
per snapshot, and when the select list calls ``current_snapshot()``.
"""

from __future__ import annotations

import pytest

from repro.core import RQLSession
from repro.sql import planner

QS = "SELECT snap_id FROM SnapIds ORDER BY snap_id"


@pytest.fixture
def plans(monkeypatch):
    """The table names of every ``plan_from`` call from here on."""
    calls = []
    real = planner.plan_from

    def counting(descs, predicates, stats_for):
        calls.append(tuple(desc.table for desc in descs))
        return real(descs, predicates, stats_for)
    monkeypatch.setattr(planner, "plan_from", counting)
    return calls


def _session(snapshots):
    session = RQLSession()
    session.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
    session.execute("INSERT INTO t VALUES " + ", ".join(
        f"({i}, {i % 5})" for i in range(40)))
    for step in range(snapshots):
        session.execute(f"UPDATE t SET b = b + 1 WHERE a % 6 = {step}")
        session.declare_snapshot()
    return session


@pytest.mark.parametrize("workers", [1, 4])
def test_a_where_alias_plans_as_often_as_its_column(plans, workers):
    session = _session(6)
    counts = {}
    for qq in ("SELECT COUNT(*) FROM t WHERE b > 2",
               "SELECT COUNT(*), b AS x FROM t WHERE x > 2 GROUP BY b"):
        del plans[:]
        session.collate_data(QS, qq, "R", workers=workers)
        counts[qq] = len(plans)
        assert plans.count(("t",)) == 1, qq
    assert len(set(counts.values())) == 1, counts
    # The reference loop shares the statement the same way.
    del plans[:]
    session.run_reference(
        "CollateData", QS,
        "SELECT COUNT(*), b AS x FROM t WHERE x > 2 GROUP BY b", "R")
    assert plans.count(("t",)) == 1


def test_point_history_plans_once_per_run(plans):
    """The ``point_history`` ledger workload's Qq over an unchanged
    catalog: one primary-key probe per snapshot, one plan per run."""
    session = RQLSession()
    session.execute("CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, "
                    "o_totalprice REAL)")
    session.execute("INSERT INTO orders VALUES " + ", ".join(
        f"({k}, {k * 1.5})" for k in range(1, 50)))
    for step in range(1, 11):
        session.execute(f"UPDATE orders SET o_totalprice = {step} "
                        f"WHERE o_orderkey = 7")
        session.declare_snapshot()
    qq = ("SELECT o_totalprice, current_snapshot() FROM orders "
          "WHERE o_orderkey = 7")
    for workers in (1, 2):
        del plans[:]
        session.collate_data(QS, qq, "R", workers=workers)
        assert plans.count(("orders",)) == 1
        assert session.execute('SELECT * FROM "R"').rows \
            == [(float(sid), sid) for sid in range(1, 11)]
