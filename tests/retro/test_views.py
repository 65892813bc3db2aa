"""Materialized-view unit tests: SQL surface, EXPLAIN, errors, refresh
decision ladder, dependency cascade, bare-Database refusal.

The heavy equivalence guarantees live in the differential suites
(``test_view_equivalence``, ``test_view_delta_props``,
``test_view_crash``); this file pins the API contract.
"""

from __future__ import annotations

import pytest

from repro.core import RQLSession
from repro.errors import ParseError, SqlError, ViewError
from repro.sql.database import Database

FIXED_CLOCK = lambda: "2026-01-01 00:00:00"  # noqa: E731


@pytest.fixture
def rql():
    session = RQLSession(clock=FIXED_CLOCK, workers=1)
    session.execute("CREATE TABLE events (grp INTEGER, val INTEGER)")
    yield session
    session.close()


def _snap(session, inserts):
    for grp, val in inserts:
        session.execute(f"INSERT INTO events VALUES ({grp}, {val})")
    return session.declare_snapshot()


# ---------------------------------------------------------------------------
# SQL surface
# ---------------------------------------------------------------------------


def test_create_refresh_drop_roundtrip(rql):
    _snap(rql, [(1, 10)])
    result = rql.execute(
        "CREATE MATERIALIZED VIEW v AS "
        "CollateData('SELECT grp, current_snapshot() FROM events')"
    )
    assert result.columns == ["view", "merge_class", "built_from"]
    assert result.rows == [("v", "concat", 1)]
    assert rql.execute("SELECT * FROM v").rows == [(1, 1)]

    _snap(rql, [(2, 20)])
    refreshed = rql.execute("REFRESH MATERIALIZED VIEW v")
    assert refreshed.columns[:2] == ["view", "mode"]
    (row,) = refreshed.rows
    assert row[0] == "v" and row[1] == "delta"
    assert rql.execute("SELECT * FROM v").rows == [
        (1, 1), (1, 2), (2, 2),
    ]

    rql.execute("DROP MATERIALIZED VIEW v")
    with pytest.raises(SqlError):
        rql.execute("SELECT * FROM v")
    # IF EXISTS after the drop is a no-op; a plain drop raises.
    rql.execute("DROP MATERIALIZED VIEW IF EXISTS v")
    with pytest.raises(ViewError):
        rql.execute("DROP MATERIALIZED VIEW v")


def test_create_if_not_exists_and_duplicate(rql):
    _snap(rql, [(1, 10)])
    rql.execute(
        "CREATE MATERIALIZED VIEW v AS "
        "CollateData('SELECT grp FROM events')"
    )
    with pytest.raises(ViewError):
        rql.execute(
            "CREATE MATERIALIZED VIEW v AS "
            "CollateData('SELECT val FROM events')"
        )
    rql.execute(
        "CREATE MATERIALIZED VIEW IF NOT EXISTS v AS "
        "CollateData('SELECT val FROM events')"
    )
    # The original definition survived.
    assert rql.views.list_views()[0].qq == "SELECT grp FROM events"


def test_parse_errors():
    with pytest.raises(ParseError):
        Database().execute("CREATE MATERIALIZED VIEW v AS SELECT 1")
    with pytest.raises(ParseError):
        Database().execute("CREATE MATERIALIZED TABLE t (a)")
    with pytest.raises(ParseError):
        Database().execute("REFRESH TABLE t")
    with pytest.raises(ParseError):
        Database().execute(
            "CREATE MATERIALIZED VIEW v AS CollateData(SELECT_1)")


def test_bare_database_refuses_view_statements():
    db = Database()
    with pytest.raises(SqlError, match="RQL session"):
        db.execute(
            "CREATE MATERIALIZED VIEW v AS CollateData('SELECT 1')")
    db.close()


def test_refresh_full_and_explain(rql):
    _snap(rql, [(1, 10)])
    rql.execute(
        "CREATE MATERIALIZED VIEW v AS "
        "CollateData('SELECT grp FROM events')"
    )
    _snap(rql, [(2, 20)])
    lines = rql.views.explain_refresh("v")
    text = "\n".join(lines)
    assert "built_from 1, target 2" in text
    assert "decision: delta" in text
    assert "merge class concat" in text
    # EXPLAIN through SQL returns the same plan lines.
    sql_lines = [r[0] for r in
                 rql.execute("EXPLAIN REFRESH MATERIALIZED VIEW v").rows]
    assert sql_lines[:4] == lines[:4]
    # FULL forces a rebuild even with a clean delta plan.
    report = rql.execute("REFRESH MATERIALIZED VIEW v FULL")
    (row,) = report.rows
    assert row[1] == "full"
    assert rql.views.last_reports["v"].reason == "explicit FULL refresh"


def test_view_errors(rql):
    _snap(rql, [(1, 10)])
    with pytest.raises(ViewError):  # unknown mechanism
        rql.create_materialized_view("v", "Nope", "SELECT grp FROM events")
    with pytest.raises(ViewError):  # missing aggregate argument
        rql.create_materialized_view(
            "v", "AggregateDataInVariable", "SELECT COUNT(*) FROM events")
    with pytest.raises(ViewError):  # argument where none belongs
        rql.create_materialized_view(
            "v", "CollateData", "SELECT grp FROM events", arg="sum")
    with pytest.raises(ViewError):  # name collides with a table
        rql.create_materialized_view(
            "events", "CollateData", "SELECT grp FROM events")
    with pytest.raises(ViewError):
        rql.refresh_view("missing")
    rql.execute("BEGIN")
    with pytest.raises(ViewError):  # no view DDL inside an open txn
        rql.execute(
            "CREATE MATERIALIZED VIEW v AS "
            "CollateData('SELECT grp FROM events')"
        )
    rql.execute("ROLLBACK")


def test_refresh_is_noop_at_latest_snapshot(rql):
    _snap(rql, [(1, 10)])
    rql.create_materialized_view(
        "v", "CollateData", "SELECT grp FROM events")
    report = rql.refresh_view("v")
    assert report.mode == "noop"
    assert report.evaluated_snapshots == 0
    assert report.pagelog_reads == 0


def test_unrelated_snapshots_take_the_delta_skip_path(rql):
    # The noise table must exist before built_from: creating it later
    # would touch the catalog, which is (soundly) part of every view's
    # affected-page check because DDL like DROP+recreate of a read
    # table need not touch the table's own pages.
    rql.execute("CREATE TABLE other (x INTEGER)")
    _snap(rql, [(1, 10)])
    rql.create_materialized_view(
        "v", "CollateData", "SELECT grp FROM events")
    rql.execute("INSERT INTO other VALUES (1)")
    rql.declare_snapshot()
    report = rql.refresh_view("v")
    assert report.mode == "delta-skip"
    assert report.evaluated_snapshots == 1  # one eval, replayed
    assert report.pagelog_reads == 0  # read entirely at the target
    assert rql.execute("SELECT * FROM v").rows == [(1,), (1,)]


def test_current_snapshot_qq_disables_delta_skip(rql):
    rql.execute("CREATE TABLE other (x INTEGER)")
    _snap(rql, [(1, 10)])
    rql.create_materialized_view(
        "v", "CollateData",
        "SELECT grp, current_snapshot() FROM events")
    rql.execute("INSERT INTO other VALUES (1)")
    rql.declare_snapshot()
    report = rql.refresh_view("v")
    assert report.mode == "delta"
    assert "current_snapshot" in report.reason
    assert rql.execute("SELECT * FROM v").rows == [(1, 1), (1, 2)]


def test_serial_only_certificate_falls_back_to_full(rql):
    # A stateful function in Qq makes the certificate serial-only; the
    # view still works, every refresh is a logged full recompute.
    _snap(rql, [(1, 10)])
    rql.create_materialized_view(
        "v", "CollateData", "SELECT grp, rql_workers() FROM events")
    meta = rql.views.list_views()[0]
    assert meta.merge_class == "serial-only"
    _snap(rql, [(2, 20)])
    report = rql.refresh_view("v")
    assert report.mode == "full"
    assert "serial-only" in report.reason
    assert report.evaluated_snapshots == 2
    assert rql.execute("SELECT grp FROM v").rows == [(1,), (1,), (2,)]


def test_dependent_views_cascade_to_one_target(rql):
    _snap(rql, [(1, 10), (2, 20)])
    rql.create_materialized_view(
        "base", "AggregateDataInTable", "SELECT grp, val FROM events",
        arg="(val, sum)")
    rql.create_materialized_view(
        "toplevel", "CollateData", "SELECT grp, val FROM base")
    _snap(rql, [(1, 5)])
    report = rql.refresh_view("toplevel")
    assert report.cascaded == ["base"]
    # Both views advanced to the same pinned target.
    by_name = {v.name: v for v in rql.views.list_views()}
    assert by_name["base"].built_from == 2
    assert by_name["toplevel"].built_from == 2
    # A view over another view reads a non-snapshotable source: full.
    assert report.mode == "full"
    assert "non-snapshotable" in report.reason
    # The dependency also blocks dropping the base first.
    with pytest.raises(ViewError):
        rql.drop_view("base")
    rql.drop_view("toplevel")
    rql.drop_view("base")


def test_self_reference_is_rejected(rql):
    _snap(rql, [(1, 10)])
    with pytest.raises(ViewError):
        rql.create_materialized_view(
            "v", "CollateData", "SELECT grp FROM v")


def test_monoid_state_round_trips_for_every_aggregate(rql):
    _snap(rql, [(1, 10)])
    for func in ("min", "max", "sum", "count", "avg"):
        rql.create_materialized_view(
            f"agg_{func}", "AggregateDataInVariable",
            "SELECT SUM(val) FROM events", arg=func)
    _snap(rql, [(2, 30)])
    for func in ("min", "max", "sum", "count", "avg"):
        report = rql.refresh_view(f"agg_{func}")
        assert report.mode == "delta", func
    assert rql.execute("SELECT * FROM agg_min").scalar() == 10
    assert rql.execute("SELECT * FROM agg_max").scalar() == 40
    assert rql.execute("SELECT * FROM agg_sum").scalar() == 50
    assert rql.execute("SELECT * FROM agg_count").scalar() == 2
    assert rql.execute("SELECT * FROM agg_avg").scalar() == 25


def test_views_survive_in_shared_store_sessions():
    from repro.server import SessionRegistry, SharedStore

    store = SharedStore(gate_timeout=30.0, clock=FIXED_CLOCK)
    registry = SessionRegistry(store)
    alice = registry.open("alice")
    alice.execute("CREATE TABLE t (a INTEGER)")
    alice.execute("INSERT INTO t VALUES (1)")
    alice.declare_snapshot()
    alice.execute(
        "CREATE MATERIALIZED VIEW v AS CollateData('SELECT a FROM t')")
    registry.close("alice")
    # A later session sees the same view metadata and can refresh it.
    bob = registry.open("bob")
    bob.execute("INSERT INTO t VALUES (2)")
    bob.declare_snapshot()
    report = bob.refresh_view("v")
    assert report.mode == "delta"
    assert bob.execute("SELECT * FROM v").rows == [(1,), (1,), (2,)]
    registry.close("bob")
    assert registry.leak_report() == {
        "sessions": 0, "read_contexts": 0, "gate_held": False,
    }
    store.close()


@pytest.mark.parametrize("func,helpers", [
    ("sum", []), ("avg", ["__avg_sum_1", "__avg_cnt_1"])])
def test_delta_refresh_with_a_helper_lookalike_group_column(rql, func,
                                                            helpers):
    """A grouping column *named* like an AVG helper is ordinary Qq
    output: restoring the stored-row fold must not strip it (it used to,
    leaving "needs at least one grouping column" on the next delta)."""
    _snap(rql, [(1, 10), (2, 5)])
    rql.execute(
        "CREATE MATERIALIZED VIEW v AS AggregateDataInTable("
        f"'SELECT grp AS __avg_g, val FROM events', '(val,{func})')"
    )
    _snap(rql, [(1, 7)])
    report = rql.refresh_view("v")
    assert report.mode == "delta"
    delta = rql.execute("SELECT * FROM v")
    rql.refresh_view("v", full=True)
    full = rql.execute("SELECT * FROM v")
    assert delta.columns == full.columns == ["__avg_g", "val"] + helpers
    assert delta.rows == full.rows
