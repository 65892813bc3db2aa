"""Crash atomicity for materialized-view refresh.

A refresh commits the new result rows, the index, and the
``__rql_views`` metadata row in one aux-engine transaction, so a
power-loss at ANY write during the refresh must leave the view either
fully old (metadata still at the previous ``built_from``, table
byte-identical to the pre-refresh build) or fully new — never torn.
The sweep below schedules a :class:`~repro.errors.SimulatedCrash` at
every write ordinal until the refresh survives, reopening the database
from the same disks each time and comparing against golden builds from
clean shadow sessions.

Degraded mode rides along: when the refresh needs snapshots that the
retro manager has marked unavailable, it must raise
:class:`~repro.errors.SnapshotUnavailableError` *before* touching the
write path, leaving metadata and table bit-for-bit unchanged.
"""

from __future__ import annotations

import pytest

from repro.core import RQLSession
from repro.errors import ReproError, SnapshotUnavailableError
from repro.sql.database import Database
from repro.storage.chaosdisk import ChaosDisk
from tests.conftest import full_database_dump

FIXED_CLOCK = lambda: "2026-01-01 00:00:00"  # noqa: E731

SNAPSHOTS = 5
CREATE_AT = 2  # the view is created (built) right after this snapshot

#: (id, mechanism, qq, arg) — a rewrite-on-refresh shape and an
#: index-carrying fold shape, so the sweep covers both write patterns
SHAPES = [
    ("concat", "CollateData", "SELECT grp, val FROM events", None),
    ("stored_row", "AggregateDataInTable",
     "SELECT grp, val FROM events", "(val, sum)"),
]


def _build_history(session, mechanism, qq, arg):
    session.execute("CREATE TABLE events (grp INTEGER, val INTEGER)")
    for sid in range(1, SNAPSHOTS + 1):
        session.execute(f"INSERT INTO events VALUES ({sid}, {sid * 10})")
        session.declare_snapshot()
        if sid == CREATE_AT:
            session.create_materialized_view("v", mechanism, qq, arg=arg)
    return session


def _view_state(session):
    (meta,) = session.views.list_views()
    rows = [tuple(r) for r in session.execute("SELECT * FROM v").rows]
    return meta.built_from, meta.merge_class, meta.state, rows


def _goldens(mechanism, qq, arg):
    """(state at built_from=CREATE_AT, state at built_from=SNAPSHOTS)
    from a clean, never-crashed session."""
    session = _build_history(RQLSession(clock=FIXED_CLOCK, workers=1),
                             mechanism, qq, arg)
    try:
        old = _view_state(session)
        session.refresh_view("v", full=True)
        new = _view_state(session)
    finally:
        session.close()
    return old, new


@pytest.mark.parametrize("mechanism,qq,arg",
                         [s[1:] for s in SHAPES],
                         ids=[s[0] for s in SHAPES])
def test_crash_mid_refresh_is_never_torn(mechanism, qq, arg):
    golden_old, golden_new = _goldens(mechanism, qq, arg)
    assert golden_old != golden_new  # the sweep must distinguish them

    crashed = survived = 0
    at_write = 1
    while True:
        disk = ChaosDisk(4096, seed=at_write)
        aux = ChaosDisk(4096, controller=disk.chaos)
        session = _build_history(
            RQLSession(db=Database(disk=disk, aux_disk=aux),
                       clock=FIXED_CLOCK),
            mechanism, qq, arg)
        # Tear the interrupted page image on every other ordinal so WAL
        # recovery has to discard a half-written frame too.
        disk.schedule_crash(at_write=at_write, tear=at_write % 2 == 0)
        try:
            session.refresh_view("v")
        except ReproError:
            pass
        if not disk.chaos.powered_off:
            # The refresh needed fewer writes than this ordinal: it
            # committed, the sweep has covered every boundary.  Disarm
            # the pending crash so close()'s checkpoint can run.
            disk.chaos.crash_at = None
            assert _view_state(session) == golden_new
            session.close()
            survived += 1
            break
        crashed += 1
        # The crashed session is abandoned un-closed, like a real power
        # loss (close() would need the dead disk for its checkpoint).
        disk.power_on()
        recovered = RQLSession(db=Database(disk=disk, aux_disk=aux))
        try:
            state = _view_state(recovered)
            assert state in (golden_old, golden_new), (
                f"torn view after crash at write {at_write}: {state}")
            # Metadata must still be refreshable after recovery.
            report = recovered.refresh_view("v")
            assert _view_state(recovered) == golden_new, report.mode
        finally:
            recovered.close()
        at_write += 1
        assert at_write < 200, "refresh never completed under the sweep"
    assert crashed > 0, "the sweep never crashed a refresh"
    assert survived == 1


def test_degraded_mode_refresh_leaves_view_untouched():
    session = _build_history(RQLSession(clock=FIXED_CLOCK, workers=1),
                             "CollateData", "SELECT grp, val FROM events",
                             None)
    try:
        before_state = _view_state(session)
        before_dump = full_database_dump(session.db)
        # Snapshots the delta needs are gone: the refresh must fail
        # cleanly before its write transaction ever begins.
        session.db.engine.retro.mark_unavailable(CREATE_AT + 1,
                                                 CREATE_AT + 1)
        with pytest.raises(SnapshotUnavailableError):
            session.refresh_view("v")
        assert _view_state(session) == before_state
        assert full_database_dump(session.db) == before_dump
        # A FULL refresh needs the older snapshots too — same guarantee.
        with pytest.raises(SnapshotUnavailableError):
            session.refresh_view("v", full=True)
        assert _view_state(session) == before_state
        assert full_database_dump(session.db) == before_dump
    finally:
        session.close()
