"""Client-disconnect faults: cancel mid-query, leak nothing.

A killed client's in-flight query stops at the next snapshot boundary
through the cancel-event path (the same event the parallel executor's
partition workers poll), its half-built result table is dropped, its
session is reaped — and concurrently connected clients never notice.

The queries are made deterministically *interruptible* with a blocking
UDF in the Qq: the first iteration parks on an event, the test kills
the client while it is parked, then releases the event and asserts the
run died with :class:`QueryCancelled` before the next iteration.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import parallel
from repro.errors import PlanError, QueryCancelled
from repro.server import RQLServer

QS = "SELECT snap_id FROM SnapIds ORDER BY snap_id"
SNAPSHOTS = 6
BRAKED = "SELECT braking(val), current_snapshot() FROM events"
#: certified ``serial-only`` (a stateful builtin): one partition
BRAKED_SERIAL = \
    "SELECT braking(val), current_snapshot(), rql_workers() FROM events"
#: (workers, Qq, partitions): a ``serial-only`` Qq is one partition even
#: at ``workers=4``; a certified one is one partition at ``workers=1``
RUNNERS = pytest.mark.parametrize(
    "workers, qq, partitions",
    [(4, BRAKED_SERIAL, 1), (1, BRAKED, 1), (4, BRAKED, 4)],
    ids=["serial-only", "one-partition", "partitioned"])


@pytest.fixture
def server():
    srv = RQLServer(gate_timeout=30.0)
    yield srv
    srv.close()


@pytest.fixture
def partition_counts(monkeypatch):
    """How many partitions each executor run split its Qs into (a
    cancelled ticket has no ``result.parallel`` to read it from)."""
    counts = []
    real = parallel.partition_snapshots

    def spy(snapshot_ids, workers):
        partitions = real(snapshot_ids, workers)
        counts.append(len(partitions))
        return partitions

    monkeypatch.setattr(parallel, "partition_snapshots", spy)
    return counts


def _populate(handle, snapshots: int = SNAPSHOTS) -> None:
    handle.execute("CREATE TABLE events (grp, val)")
    for n in range(snapshots):
        handle.execute(f"INSERT INTO events VALUES ({n % 3}, {n})")
        handle.declare_snapshot()


class _Brake:
    """A UDF that parks the first query iteration until released."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, value):
        self.entered.set()
        self.release.wait(10.0)
        return value


def _kill_while_parked(handle, ticket, brake) -> None:
    """Kill the client while its query is parked in the brake UDF."""
    assert brake.entered.wait(10.0), "query never reached the brake"
    killer = threading.Thread(target=handle.kill)
    killer.start()
    # kill() cancels first, then waits for the ticket; release the
    # parked iteration only once cancellation is visible, so the loop
    # must observe it before the next snapshot.
    assert ticket.cancel.wait(10.0)
    brake.release.set()
    killer.join()
    assert ticket.done.is_set()


@RUNNERS
def test_kill_mid_query_cancels_and_leaks_nothing(server, partition_counts,
                                                  workers, qq, partitions):
    victim = server.connect("victim")
    observer = server.connect("observer")
    _populate(victim)
    brake = _Brake()
    victim.session.db.register_function("braking", brake)
    ticket = victim.collate_data(QS, qq, "Doomed", workers=workers,
                                 block=False)
    _kill_while_parked(victim, ticket, brake)
    assert isinstance(ticket.error, QueryCancelled)
    assert partition_counts == [partitions]
    with pytest.raises(QueryCancelled):
        ticket.outcome()
    # The half-built result table was dropped: no debris visible to
    # anyone else (result tables live in the shared aux engine).
    with pytest.raises(PlanError):
        observer.execute("SELECT * FROM Doomed")
    # The victim is gone; the observer and the store are untouched.
    assert server.registry.names() == ["observer"]
    assert server.store.open_reader_count() == 0
    assert not server.store.gate.held
    observer.close()
    assert server.leak_report() == {
        "sessions": 0, "read_contexts": 0, "gate_held": False,
        "active_queries": 0,
    }


@RUNNERS
def test_cancelled_run_drops_its_own_table_whatever_its_name(
        server, workers, qq, partitions):
    """The result-table name arrives over the wire; the cancel path
    (``_drop_partial``) quotes it like every other user, so a name that
    ends its own quoting drops the half-built table and nothing else."""
    victim = server.connect("victim")
    observer = server.connect("observer")
    _populate(victim)
    observer.execute("CREATE TABLE bystander (x INTEGER)")
    observer.execute("INSERT INTO bystander VALUES (1)")
    brake = _Brake()
    victim.session.db.register_function("braking", brake)
    name = 'bystander" --'
    ticket = victim.collate_data(QS, qq, name, workers=workers,
                                 block=False)
    _kill_while_parked(victim, ticket, brake)
    assert isinstance(ticket.error, QueryCancelled)
    with pytest.raises(PlanError, match="no such table"):
        observer.execute('SELECT * FROM "bystander"" --"')
    assert observer.execute("SELECT x FROM bystander").rows == [(1,)]
    observer.close()
    assert server.leak_report() == {
        "sessions": 0, "read_contexts": 0, "gate_held": False,
        "active_queries": 0,
    }


def test_other_sessions_unaffected_by_a_kill(server):
    victim = server.connect("victim")
    bystander = server.connect("bystander")
    _populate(victim)
    brake = _Brake()
    victim.session.db.register_function("braking", brake)
    ticket = victim.collate_data(QS, BRAKED, "Doomed", workers=2,
                                 block=False)
    assert brake.entered.wait(10.0)
    # While the victim's query is parked, the bystander both writes
    # (snapshot-pinned reads never block writers) and queries.
    bystander.execute("INSERT INTO events VALUES (9, 99)")
    sid = bystander.declare_snapshot("during-park")
    before = bystander.aggregate_data_in_variable(
        QS, "SELECT COUNT(*) FROM events", "CountsA", "sum", workers=2)
    _kill_while_parked(victim, ticket, brake)
    assert isinstance(ticket.error, QueryCancelled)
    # And again after the kill: identical machinery, one session fewer.
    after = bystander.aggregate_data_in_variable(
        QS, "SELECT COUNT(*) FROM events", "CountsB", "sum", workers=2)
    assert after.snapshots == before.snapshots == list(
        range(1, sid + 1))
    assert (bystander.execute("SELECT * FROM CountsA").rows
            == bystander.execute("SELECT * FROM CountsB").rows)
    bystander.close()
    assert server.leak_report()["read_contexts"] == 0


def test_graceful_close_waits_instead_of_cancelling(server):
    client = server.connect("patient")
    _populate(client, snapshots=3)
    brake = _Brake()
    client.session.db.register_function("braking", brake)
    ticket = client.collate_data(QS, BRAKED, "Kept", workers=1,
                                 block=False)
    assert brake.entered.wait(10.0)
    closer = threading.Thread(target=client.close)
    closer.start()
    brake.release.set()
    closer.join()
    # close() drained: the query ran to completion, no cancellation.
    assert ticket.error is None
    assert ticket.outcome().snapshots == [1, 2, 3]
    assert server.leak_report()["sessions"] == 0


def test_cancel_before_admission_is_immediate(server):
    client = server.connect("early")
    _populate(client, snapshots=2)
    ticket = client.collate_data(
        QS, "SELECT val, current_snapshot() FROM events", "Never",
        workers=2, block=False)
    # Cancelling a ticket directly (what kill() does under the hood)
    # is honoured even if it lands before the run starts iterating.
    ticket.cancel.set()
    ticket.done.wait(10.0)
    if ticket.error is not None:
        assert isinstance(ticket.error, QueryCancelled)
    client.close()
    assert server.leak_report() == {
        "sessions": 0, "read_contexts": 0, "gate_held": False,
        "active_queries": 0,
    }
