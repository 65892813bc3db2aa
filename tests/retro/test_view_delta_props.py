"""Per-merge-class delta-fold properties.

For every merge class the incremental invariant is
``fold(base, delta) == rebuild``: a view built at snapshot K and
delta-refreshed to N must equal the *serial mechanism* run over
``1..N`` — across randomized histories whose Maplog diffs mix
view-relevant pages, unrelated-table pages and empty epochs.

Also pinned here:

* the AVG decomposition: the stored-row class folds AVG through hidden
  ``__avg_sum_i``/``__avg_cnt_i`` columns and the visible column always
  equals their quotient;
* the empty-diff no-op: refreshing a view already at the target touches
  nothing — zero Pagelog/cache/db page reads, zero evaluations, and a
  byte-identical database dump;
* the delta-skip path: snapshots that never touch the view's read
  tables are folded without a single Pagelog read;
* the write plan: a delta refresh overwrites exactly the stored rows
  its fold changed, under the rowids they were read by, adds exactly
  the new ones, runs no DDL, and writes no page at all when nothing
  moved — counted by the report and checked against before / after
  dumps and page images, so O(delta) is pinned without a timer.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import RQLSession
from tests.conftest import full_database_dump

FIXED_CLOCK = lambda: "2026-01-01 00:00:00"  # noqa: E731

PROP_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large,
                           HealthCheck.filter_too_much],
)

#: (id, mechanism, session method, qq, arg)
CLASSES = [
    ("concat", "CollateData", "collate_data",
     "SELECT grp, val, current_snapshot() FROM events", None),
    ("monoid", "AggregateDataInVariable", "aggregate_data_in_variable",
     "SELECT SUM(val) FROM events", "sum"),
    ("stored_row", "AggregateDataInTable", "aggregate_data_in_table",
     "SELECT grp, val FROM events", "(val, avg):(val, min):(val, count)"),
    ("interval_stitch", "CollateDataIntoIntervals",
     "collate_data_into_intervals",
     "SELECT DISTINCT grp FROM events", None),
]

_groups = st.integers(min_value=0, max_value=3)
_values = st.integers(min_value=-40, max_value=90)

#: one snapshot's worth of updates; empty = an events-untouched epoch
#: (the randomized Maplog diff mixes relevant, noise-only and empty
#: epochs)
_epoch = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _groups, _values),
        st.tuples(st.just("update"), _groups,
                  st.integers(min_value=1, max_value=9)),
        st.tuples(st.just("delete"), _groups),
        st.tuples(st.just("noise"), _values),
    ),
    min_size=0, max_size=3,
)

#: (history epochs, where in the history the view is created)
_history = st.tuples(
    st.lists(_epoch, min_size=1, max_size=7),
    st.integers(min_value=0, max_value=7),
)


def _apply(session, op) -> None:
    if op[0] == "insert":
        session.execute(f"INSERT INTO events VALUES ({op[1]}, {op[2]})")
    elif op[0] == "update":
        session.execute(f"UPDATE events SET val = val + {op[2]} "
                        f"WHERE grp = {op[1]}")
    elif op[0] == "noise":
        session.execute(f"INSERT INTO noise VALUES ({op[1]})")
    else:
        session.execute(f"DELETE FROM events WHERE grp = {op[1]}")


def _fresh_session() -> RQLSession:
    session = RQLSession(clock=FIXED_CLOCK, workers=1)
    session.execute("CREATE TABLE events (grp INTEGER, val INTEGER)")
    session.execute("CREATE TABLE noise (x INTEGER)")
    session.execute("INSERT INTO events VALUES (0, 1)")
    session.declare_snapshot()
    return session


def _table_rows(session, table):
    result = session.execute(f'SELECT * FROM "{table}"')
    return list(result.columns), [tuple(r) for r in result.rows]


@pytest.mark.parametrize(
    "mechanism,method,qq,arg",
    [c[1:] for c in CLASSES], ids=[c[0] for c in CLASSES])
@PROP_SETTINGS
@given(history=_history)
def test_fold_base_delta_equals_serial_rebuild(history, mechanism,
                                               method, qq, arg):
    epochs, create_at = history
    create_at = min(create_at, len(epochs))
    session = _fresh_session()
    try:
        for n, epoch in enumerate(epochs):
            if n == create_at:
                session.create_materialized_view("v", mechanism, qq,
                                                 arg=arg)
            for op in epoch:
                _apply(session, op)
            session.declare_snapshot()
        if create_at >= len(epochs):
            session.create_materialized_view("v", mechanism, qq, arg=arg)
        session.refresh_view("v")

        # Golden: the serial mechanism over the full snapshot set.
        qs = "SELECT snap_id FROM SnapIds ORDER BY snap_id"
        call = getattr(session, method)
        if arg is None:
            call(qs, qq, "golden", workers=1)
        else:
            call(qs, qq, "golden", arg, workers=1)
        view_columns, view_rows = _table_rows(session, "v")
        gold_columns, gold_rows = _table_rows(session, "golden")
        assert view_columns == gold_columns
        assert view_rows == gold_rows
    finally:
        session.close()


@PROP_SETTINGS
@given(history=_history)
def test_avg_decomposition_through_hidden_columns(history):
    """The visible AVG column always equals hidden sum / hidden count,
    and the fold reproduces the serial AVG exactly on integer data."""
    epochs, create_at = history
    create_at = min(create_at, len(epochs))
    session = _fresh_session()
    try:
        for n, epoch in enumerate(epochs):
            if n == create_at:
                session.create_materialized_view(
                    "v", "AggregateDataInTable",
                    "SELECT grp, val FROM events", arg="(val, avg)")
            for op in epoch:
                _apply(session, op)
            session.declare_snapshot()
        if create_at >= len(epochs):
            session.create_materialized_view(
                "v", "AggregateDataInTable",
                "SELECT grp, val FROM events", arg="(val, avg)")
        session.refresh_view("v")
        columns, rows = _table_rows(session, "v")
        assert columns == ["grp", "val", "__avg_sum_1", "__avg_cnt_1"]
        for grp, avg, total, count in rows:
            assert count >= 1
            assert avg == total / count
    finally:
        session.close()


@pytest.mark.parametrize(
    "mechanism,method,qq,arg",
    [c[1:] for c in CLASSES], ids=[c[0] for c in CLASSES])
def test_empty_diff_refresh_is_a_no_op(mechanism, method, qq, arg):
    session = _fresh_session()
    try:
        session.execute("INSERT INTO events VALUES (1, 10)")
        session.declare_snapshot()
        session.create_materialized_view("v", mechanism, qq, arg=arg)
        before = full_database_dump(session.db)
        report = session.refresh_view("v")
        assert report.mode == "noop"
        assert report.evaluated_snapshots == 0
        # Zero page traffic of any kind — the Pagelog read counters
        # prove the refresh never touched snapshot storage.
        assert report.pagelog_reads == 0
        assert report.cache_hits == 0
        assert report.db_reads == 0
        assert full_database_dump(session.db) == before
    finally:
        session.close()


@pytest.mark.parametrize(
    "mechanism,method,qq,arg",
    [c[1:] for c in CLASSES], ids=[c[0] for c in CLASSES])
def test_sparse_updates_fold_without_pagelog_reads(mechanism, method,
                                                   qq, arg):
    """Snapshots that never touch the read tables are folded via the
    delta-skip path: one evaluation at the target, zero Pagelog reads
    (nothing newer than the target is archived)."""
    if "current_snapshot" in qq:
        # current_snapshot() makes per-snapshot results differ even on
        # identical data, so the planner (correctly) refuses to skip.
        qq = "SELECT grp, val FROM events"
    session = _fresh_session()
    try:
        session.execute("INSERT INTO events VALUES (1, 10)")
        session.declare_snapshot()
        session.create_materialized_view("v", mechanism, qq, arg=arg)
        for n in range(4):
            session.execute(f"INSERT INTO noise VALUES ({n})")
            session.declare_snapshot()
        report = session.refresh_view("v")
        assert report.mode == "delta-skip"
        assert report.evaluated_snapshots == 1  # once, replayed x4
        assert report.pagelog_reads == 0
        # The fold still accounted all four snapshots: the golden serial
        # rebuild agrees.
        qs = "SELECT snap_id FROM SnapIds ORDER BY snap_id"
        call = getattr(session, method)
        if arg is None:
            call(qs, qq, "golden", workers=1)
        else:
            call(qs, qq, "golden", arg, workers=1)
        assert _table_rows(session, "v")[1] == \
            _table_rows(session, "golden")[1]
    finally:
        session.close()


# ---------------------------------------------------------------------------
# The write plan: persist the delta, not the view
# ---------------------------------------------------------------------------

def _view_dump(session, view="v"):
    """{rowid: repr(row)} of a view's table (repr keeps 1 / 1.0 apart)."""
    _columns, rows = full_database_dump(session.db)[("aux", view)]
    return {rowid: repr(row) for rowid, row in rows}


def _assert_index_covers_table(session, view="v"):
    """Every index of ``view`` holds exactly one entry per stored row,
    under that row's values and rowid, in key order."""
    dump = full_database_dump(session.db)
    columns, rows = dump[("aux", view)]
    for _name, table, indexed, entries in dump[("aux", "__indexes__")]:
        if table != view:
            continue
        positions = [columns.index(c) for c in indexed]
        assert entries == sorted(
            tuple(row[p] for p in positions) + (rowid,)
            for rowid, row in rows)


@pytest.mark.parametrize(
    "mechanism,method,qq,arg",
    [c[1:] for c in CLASSES], ids=[c[0] for c in CLASSES])
@PROP_SETTINGS
@given(history=_history)
def test_refresh_writes_exactly_the_rows_that_moved(history, mechanism,
                                                    method, qq, arg):
    """``rows_changed`` is the number of rowids whose row differs across
    the refresh and ``rows_appended`` the number of new rowids: no
    unchanged row rewritten, no changed row missed — and the table and
    index it leaves equal a full rebuild's."""
    epochs, create_at = history
    create_at = min(create_at, len(epochs) - 1)
    session = _fresh_session()
    try:
        for n, epoch in enumerate(epochs):
            if n == create_at:
                session.create_materialized_view("v", mechanism, qq,
                                                 arg=arg)
            for op in epoch:
                _apply(session, op)
            session.declare_snapshot()
        before = _view_dump(session)
        report = session.refresh_view("v")
        after = _view_dump(session)

        if report.mode == "full":  # e.g. a monoid state JSON cannot hold
            assert (report.rows_changed, report.rows_appended) \
                == (0, len(after))
        else:
            assert report.mode in ("delta", "delta-skip")
            assert set(before) <= set(after)  # nothing dropped or moved
            assert report.rows_changed == sum(
                1 for rowid in before if before[rowid] != after[rowid])
            assert report.rows_appended == len(set(after) - set(before))
            assert report.table_written == (before != after)
            assert report.rows_total == len(after) \
                or not report.table_written
        _assert_index_covers_table(session)

        maintained = full_database_dump(session.db)
        assert session.refresh_view("v", full=True).mode == "full"
        assert full_database_dump(session.db) == maintained
    finally:
        session.close()


def _view_storage(session, view="v"):
    """A view's catalog entries (root ids included) and the page images
    of the aux catalog, its table and its indexes."""
    with session.db.reading() as ctx:
        table = ctx.open_table(view)
        indexes = ctx.open_indexes(table)
        aux_catalog, _main_catalog = ctx.catalogs()
        source = table.tree.source

        def images(page_ids):
            return {pid: bytes(source.fetch(pid).data) for pid in page_ids}

        return {
            "entries": (table.info, [index.info for index in indexes]),
            "catalog": images(aux_catalog.page_ids()),
            "table": images(table.tree.page_ids()),
            "indexes": [images(index.tree.page_ids())
                        for index in indexes],
        }


@pytest.mark.parametrize("mode", ("delta", "delta-skip"))
@pytest.mark.parametrize(
    "mechanism,method,qq,arg",
    [c[1:] for c in CLASSES], ids=[c[0] for c in CLASSES])
def test_delta_refresh_runs_no_ddl(mechanism, method, qq, arg, mode):
    """No DROP TABLE / CREATE TABLE / CREATE INDEX on a delta refresh:
    the table's and the index's catalog entries keep their root ids,
    and — since freed-page reuse could hand a rebuilt tree its old root
    back — not one byte of the aux catalog moves."""
    if mode == "delta-skip":
        qq = qq.replace(", current_snapshot()", "")
    session = _fresh_session()
    try:
        for grp in range(1, 30):
            session.execute(f"INSERT INTO events VALUES ({grp}, {grp})")
        session.declare_snapshot()
        session.create_materialized_view("v", mechanism, qq, arg=arg)
        before = _view_storage(session)
        if mode == "delta":
            session.execute("UPDATE events SET val = val + 1 WHERE grp < 9")
            session.execute("INSERT INTO events VALUES (77, 7)")
        else:
            session.execute("INSERT INTO noise VALUES (1)")
        session.declare_snapshot()
        report = session.refresh_view("v")
        assert report.mode == mode
        assert report.table_written
        after = _view_storage(session)
        assert after["entries"] == before["entries"]
        assert after["catalog"] == before["catalog"]
        assert after["table"] != before["table"]
        _assert_index_covers_table(session)
    finally:
        session.close()


def test_refresh_that_moves_no_maximum_writes_no_page():
    """A (val, max) view over an update that raises no group's maximum:
    the plan is empty, so the table and its index keep every byte and
    only the ``__rql_views`` row moves."""
    session = _fresh_session()
    try:
        for grp in range(1, 5):
            session.execute(f"INSERT INTO events VALUES ({grp}, 50)")
        session.declare_snapshot()
        session.create_materialized_view(
            "v", "AggregateDataInTable", "SELECT grp, val FROM events",
            arg="(val, max)")
        before = _view_storage(session)
        session.execute("UPDATE events SET val = val - 10 WHERE grp > 2")
        session.declare_snapshot()
        report = session.refresh_view("v")
        assert report.mode == "delta"
        assert report.qq_rows == 5  # the delta was evaluated and folded
        assert not report.table_written
        assert (report.rows_changed, report.rows_appended) == (0, 0)
        assert _view_storage(session) == before
        (meta,) = session.views.list_views()
        assert meta.built_from == session.latest_snapshot_id == 3
        assert "wrote no rows" in "\n".join(report.summary_lines())

        # A maximum that does move is written, alone.
        session.execute("UPDATE events SET val = 90 WHERE grp = 2")
        session.declare_snapshot()
        report = session.refresh_view("v")
        assert (report.table_written, report.rows_changed,
                report.rows_appended, report.rows_total) == (True, 1, 0, 5)
        assert "wrote 1 changed + 0 appended of 5 rows" \
            in report.summary_lines()
    finally:
        session.close()


@pytest.mark.parametrize("shape", ("stored_row", "interval_stitch"))
def test_refresh_after_a_user_delete_addresses_rows_by_rowid(shape):
    """Nothing stops a user from deleting rows of a view's table.  The
    next refresh still writes every surviving row under the rowid it
    was read by (not its position in the scan), adds the group it no
    longer finds as a new row, and keeps the index in step."""
    _id, mechanism, _method, qq, arg = next(
        c for c in CLASSES if c[0] == shape)
    if shape == "stored_row":
        arg = "(val, sum)"
    session = _fresh_session()
    try:
        for grp in range(1, 6):
            session.execute(f"INSERT INTO events VALUES ({grp}, {grp})")
        session.declare_snapshot()
        session.create_materialized_view("v", mechanism, qq, arg=arg)
        stored = dict(full_database_dump(session.db)[("aux", "v")][1])
        assert sorted(stored) == [1, 2, 3, 4, 5, 6]  # groups 0..5
        session.execute("DELETE FROM v WHERE grp = 1 OR grp = 3")
        session.execute("DELETE FROM events WHERE grp = 4")
        session.declare_snapshot()

        report = session.refresh_view("v")
        assert report.mode == "delta"
        rows = dict(full_database_dump(session.db)[("aux", "v")][1])
        assert sorted(rows) == [1, 3, 5, 6, 7, 8]
        if shape == "stored_row":
            # (grp, sum of val over the snapshots the group is in)
            assert rows == {1: (0, 3), 3: (2, 4), 5: (4, 4), 6: (5, 10),
                            7: (1, 1), 8: (3, 3)}
            assert (report.rows_changed, report.rows_appended) == (3, 2)
        else:
            # (grp, first snapshot, last snapshot)
            assert rows == {1: (0, 1, 3), 3: (2, 2, 3), 5: (4, 2, 2),
                            6: (5, 2, 3), 7: (1, 3, 3), 8: (3, 3, 3)}
            assert (report.rows_changed, report.rows_appended) == (3, 2)
        _assert_index_covers_table(session)
    finally:
        session.close()
