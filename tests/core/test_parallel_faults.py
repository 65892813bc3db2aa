"""Fault injection for the parallel executor.

A worker raising mid-partition must abort the whole run: the first
error (in partition order) propagates, every read context is closed
(reader counts return to zero on both engines) and the aux database
holds no partial result table.  Whatever the outcome, no partition
thread outlives its run — embedded or behind :class:`RQLServer`.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import RQLSession
from repro.core.parallel import ParallelExecutor
from repro.errors import QueryCancelled, ReproError
from repro.retro.manager import RetroManager
from repro.server import RQLServer
from tests.conftest import full_database_dump
from tests.storage.test_resource_lifecycle import FailingSource

QS = "SELECT snap_id FROM SnapIds ORDER BY snap_id"

#: SnapIds.snap_ts is in every database dump: two sessions built one
#: after the other must not read the wall clock, or their dumps differ
#: whenever the builds straddle a second boundary.
FIXED_CLOCK = lambda: "2026-01-01 00:00:00"  # noqa: E731


def _history_session(session: RQLSession = None) -> RQLSession:
    if session is None:
        session = RQLSession(clock=FIXED_CLOCK)
    session.execute("CREATE TABLE events (grp, val)")
    for i in range(8):
        session.execute(f"INSERT INTO events VALUES ({i % 3}, {i})")
        session.declare_snapshot()
        # Mutate after each snapshot so snapshots genuinely diverge from
        # the current state (pre-states land in the Pagelog).
        session.execute(f"UPDATE events SET val = val + 1 "
                        f"WHERE grp = {i % 3}")
    return session


def _reader_counts(session: RQLSession):
    return (session.db.engine._versions.active_reader_count,
            session.db.aux_engine._versions.active_reader_count)


def _result_tables(session: RQLSession):
    return [key for key in full_database_dump(session.db)
            if key[1] == "R"]


#: (mechanism, extra args, faulting Qq, clean Qq) — the faulting Qq
#: calls boom() per scanned row; current_snapshot() is inlined to the
#: iteration's snapshot id by the rewriter.
FAULTING = "boom(val, current_snapshot()) >= -1000"
MECHANISM_CALLS = [
    ("collate_data", (),
     f"SELECT grp, val FROM events WHERE {FAULTING}",
     "SELECT grp, val FROM events"),
    ("aggregate_data_in_variable", ("sum",),
     f"SELECT COUNT(*) AS c FROM events WHERE {FAULTING}",
     "SELECT COUNT(*) AS c FROM events"),
    ("aggregate_data_in_table", ([("val", "sum")],),
     f"SELECT grp, val FROM events WHERE {FAULTING}",
     "SELECT grp, val FROM events"),
    ("collate_data_into_intervals", (),
     f"SELECT grp, val FROM events WHERE {FAULTING}",
     "SELECT grp, val FROM events"),
]


@pytest.mark.parametrize("mechanism,extra,qq,good_qq",
                         MECHANISM_CALLS,
                         ids=[m for m, _, _, _ in MECHANISM_CALLS])
def test_udf_fault_mid_partition_aborts_cleanly(mechanism, extra, qq,
                                                good_qq):
    session = _history_session()

    def boom(value, snapshot_id):
        if int(snapshot_id) == 6:  # mid second partition at workers=3
            raise ReproError("injected UDF failure")
        return value

    session.db.register_function("boom", boom)
    executor = ParallelExecutor(session.db, workers=3)
    with pytest.raises(ReproError, match="injected"):
        executor.run(mechanism, QS, qq, "R", *extra)

    assert _reader_counts(session) == (0, 0)
    assert _result_tables(session) == [], \
        "aborted run left a partial result table"
    # The session is fully usable afterwards: the same computation
    # without the fault matches the reference loop.
    getattr(session, mechanism)(QS, good_qq, "R", *extra, workers=3)
    parallel_rows = session.execute('SELECT * FROM "R"').rows
    session.run_reference(mechanism, QS, good_qq, "R", *extra)
    assert session.execute('SELECT * FROM "R"').rows == parallel_rows


def test_page_source_fault_releases_every_snapshot_page(monkeypatch):
    session = _history_session()
    original = RetroManager.snapshot_source
    wrappers = []

    def patched(self, snapshot_id, read_current, page_size,
                use_skippy=True, metrics=None):
        source = original(self, snapshot_id, read_current, page_size,
                          use_skippy=use_skippy, metrics=metrics)
        wrapper = FailingSource(source)
        if snapshot_id == 5:
            wrapper.fail_fetch_at = 2  # mid-iteration
        wrappers.append(wrapper)
        return wrapper

    monkeypatch.setattr(RetroManager, "snapshot_source", patched)
    executor = ParallelExecutor(session.db, workers=4)
    with pytest.raises(ReproError, match="injected"):
        executor.run("CollateData", QS, "SELECT grp, val FROM events",
                     "R")

    assert any(w.fail_fetch_at and w.fetches >= w.fail_fetch_at
               for w in wrappers), "fault never reached a snapshot source"
    assert _reader_counts(session) == (0, 0)
    assert _result_tables(session) == []


def test_crash_during_parallel_run_recovers_and_matches_serial():
    """Power loss mid-parallel-run: recover, re-run, compare.

    The crash fires during the workers=4 merge writes.  The crashed
    session must not leak readers; after recovery the store
    replays its history exactly and a ``workers=1`` re-run of the same
    mechanism produces a database dump identical to a never-crashed
    reference-loop run.
    """
    from repro.sql.database import Database
    from repro.storage.chaosdisk import ChaosDisk

    reference = _history_session()
    reference.run_reference("CollateData", QS,
                            "SELECT grp, val FROM events", "R")
    golden = full_database_dump(reference.db)

    disk = ChaosDisk(4096, seed=11)
    aux = ChaosDisk(4096, controller=disk.chaos)
    session = _history_session(
        RQLSession(db=Database(disk=disk, aux_disk=aux), clock=FIXED_CLOCK))
    disk.schedule_crash(at_write=3, tear=True)
    with pytest.raises(ReproError):
        session.collate_data(QS, "SELECT grp, val FROM events", "R",
                             workers=4)
    assert disk.chaos.powered_off, "crash never fired during the run"
    assert _reader_counts(session) == (0, 0)

    disk.power_on()
    recovered = RQLSession(db=Database(disk=disk, aux_disk=aux))
    recovered.collate_data(QS, "SELECT grp, val FROM events", "R",
                           workers=1)
    assert full_database_dump(recovered.db) == golden
    assert _reader_counts(recovered) == (0, 0)


def test_first_error_in_partition_order_wins():
    """Partition 2 fails first in time, partition 0 first in partition
    order: partition 0's error is the one raised."""
    session = _history_session()
    failed = []
    reached_2 = threading.Event()

    def boom(value, snapshot_id):
        sid = int(snapshot_id)
        if sid in (2, 7):  # partition 0 and partition 2 at workers=3
            if sid == 2:
                reached_2.set()
            else:
                # Fail only once partition 0 is committed to failing
                # too: its error must win though it is recorded later.
                assert reached_2.wait(timeout=30.0)
            failed.append(sid)
            raise ReproError(f"injected at {sid}")
        return value

    session.db.register_function("boom", boom)
    qq = "SELECT grp, boom(val, current_snapshot()) AS val FROM events"
    executor = ParallelExecutor(session.db, workers=3)
    with pytest.raises(ReproError, match="injected at 2"):
        executor.run("CollateData", QS, qq, "R")
    assert 2 in failed


# -- thread lifetime ----------------------------------------------------------


def _live_threads(prefix: str):
    return sorted(t.name for t in threading.enumerate()
                  if t.name.startswith(prefix))


@pytest.mark.parametrize("outcome", ["ok", "fault", "cancel"])
@pytest.mark.parametrize("surface", ["embedded", "server"])
def test_no_worker_thread_outlives_its_run(surface, outcome):
    """Successful, failing in partition 2 of 3, or cancelled: at most
    ``workers`` partition threads run, and all are gone on return."""
    server = RQLServer(gate_timeout=30.0) if surface == "server" else None
    client = server.connect("alice") if server else None
    session = _history_session(client.session if client else None)
    seen = set()
    cancel = threading.Event()  # what an embedded run polls

    def probe(value, snapshot_id):
        seen.update(_live_threads("rql-worker-"))
        if int(snapshot_id) == 6:  # last of partition 2 at workers=3
            if outcome == "fault":
                raise ReproError("injected UDF failure")
            if outcome == "cancel":
                cancel.set()
                if server is not None:
                    server.scheduler.cancel_session("alice", wait=False)
        return value

    session.db.register_function("probe", probe)
    qq = "SELECT grp, probe(val, current_snapshot()) AS val FROM events"

    def run():
        if client is None:
            return session.run_mechanism("CollateData", QS, qq, "R",
                                         workers=3, cancel=cancel)
        return client.collate_data(QS, qq, "R", workers=3)

    try:
        if outcome == "ok":
            assert run().snapshots == list(range(1, 9))
        elif outcome == "fault":
            with pytest.raises(ReproError, match="injected"):
                run()
        else:
            with pytest.raises(QueryCancelled):
                run()
        assert _live_threads("rql-worker-") == []
        assert seen and seen <= {f"rql-worker-{n}" for n in (1, 2, 3)}
        assert _reader_counts(session) == (0, 0)
    finally:
        if server is not None:
            server.close()


def test_idle_server_owns_no_query_threads():
    """Connected clients with no ticket in flight cost no thread: every
    thread the server starts belongs to one query and ends with it."""
    before = set(threading.enumerate())

    def server_threads():
        return sorted(t.name for t in threading.enumerate()
                      if t not in before and t.name.startswith("rql-"))

    def settled():
        # A ticket's dispatcher thread signals ``done`` from inside
        # itself, so it may still be exiting when outcome() returns.
        deadline = time.monotonic() + 10.0
        while server_threads() and time.monotonic() < deadline:
            time.sleep(0.01)
        return server_threads()

    server = RQLServer(gate_timeout=30.0)
    try:
        alice, bob = server.connect("alice"), server.connect("bob")
        assert server_threads() == []
        _history_session(alice.session)
        seen = set()

        def probe(value):
            seen.update(_live_threads("rql-worker-"))
            return value

        alice.session.db.register_function("probe", probe)
        alice.collate_data(QS, "SELECT grp, probe(val) FROM events", "R",
                           workers=4)
        assert seen and len(seen) <= 4
        assert bob.execute('SELECT COUNT(*) FROM "R"').scalar() > 0
        assert settled() == []
    finally:
        server.close()
    assert settled() == []
