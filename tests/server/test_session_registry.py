"""SessionRegistry: open/close churn, idempotent close, crash reaping.

The registry's contract is *teardown always reaps*: whatever a session
was doing — including crashing mid-write on a ChaosDisk — closing it
leaves zero registered sessions, zero open MVCC read contexts, and an
idle write gate.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import (
    QueryCancelled,
    ServerError,
    SessionStateError,
    SimulatedCrash,
    StorageError,
)
from repro.server import RQLServer, SessionRegistry, SharedStore
from repro.storage.chaosdisk import ChaosDisk


@pytest.fixture
def store():
    shared = SharedStore(gate_timeout=30.0)
    yield shared
    shared.close()


@pytest.fixture
def registry(store):
    return SessionRegistry(store)


# ---------------------------------------------------------------------------
# open / lookup / close basics
# ---------------------------------------------------------------------------


def test_open_close_roundtrip(registry):
    session = registry.open("alice")
    assert registry.get("alice") is session
    assert registry.names() == ["alice"]
    assert registry.close("alice") is True
    assert registry.count() == 0
    with pytest.raises(SessionStateError):
        registry.get("alice")


def test_auto_naming_and_duplicate_rejection(registry):
    first = registry.open()
    second = registry.open()
    assert first.name != second.name
    with pytest.raises(SessionStateError):
        registry.open(first.name)
    assert registry.shutdown() == 2
    with pytest.raises(SessionStateError):
        registry.open("late")


def test_close_is_idempotent_and_so_is_session_close(registry):
    session = registry.open("alice")
    session.execute("CREATE TABLE t (a INTEGER)")
    assert registry.close("alice") is True
    assert registry.close("alice") is False  # second close: no-op
    # Direct double-close of the session object is also a no-op — it
    # must not deregister an MVCC reader twice.
    session.close()
    session.close()
    assert session.closed
    assert registry.leak_report() == {
        "sessions": 0, "read_contexts": 0, "gate_held": False,
    }


def test_close_releases_abandoned_read_contexts(store, registry):
    """A crashed caller can abandon a read context (e.g. an unfinished
    streaming cursor); closing the session must deregister it."""
    session = registry.open("alice")
    session.execute("CREATE TABLE t (a INTEGER)")
    session.execute("INSERT INTO t VALUES (1)")
    # Simulate an abandoned cursor: open a context tagged with this
    # session's owner and never close it.
    context = store.engine.begin_read(owner=session.db._owner)
    assert not context.closed
    assert store.open_reader_count() == 1
    registry.close("alice")
    assert store.open_reader_count() == 0
    assert context.closed


def test_reading_tags_its_readers_and_closes_them_when_the_body_raises(
        store, registry):
    """``Database.reading`` is the one read opener: both of its read
    contexts carry the session's owner, and both are closed on the way
    out of a body that raises."""
    session = registry.open("alice")
    session.execute("CREATE TABLE t (a INTEGER)")
    owner = session.db._owner
    with pytest.raises(ZeroDivisionError):
        with session.db.reading() as ctx:
            assert ctx.find_table("t") is not None
            assert ctx.find_table("nope") is None
            assert len(store.engine.open_read_contexts(owner)) == 1
            assert len(store.aux_engine.open_read_contexts(owner)) == 1
            assert store.open_reader_count() == 2
            1 / 0
    assert store.engine.open_read_contexts(owner) == []
    assert store.aux_engine.open_read_contexts(owner) == []
    registry.close("alice")


def test_reap_finds_the_readers_of_an_abandoned_reading(store, registry):
    """Everything that used to open a catalog by hand (the shell,
    certification, view planning, result statistics) now reads through
    ``reading()``; abandoned mid-body, its readers are the session's
    and a close reaps them."""
    session = registry.open("alice")
    session.execute("CREATE TABLE t (a INTEGER)")
    abandoned = session.db.reading()
    abandoned.__enter__()
    assert store.open_reader_count() == 2
    registry.close("alice")
    assert store.open_reader_count() == 0


def test_close_rolls_back_open_transaction_and_frees_gate(store, registry):
    alice = registry.open("alice")
    bob = registry.open("bob")
    alice.execute("CREATE TABLE t (a INTEGER)")
    alice.execute("BEGIN")
    alice.execute("INSERT INTO t VALUES (1)")
    assert store.gate.held
    registry.close("alice")
    assert not store.gate.held
    # The uncommitted insert is gone and bob can write immediately.
    assert bob.execute("SELECT COUNT(*) FROM t").scalar() == 0
    bob.execute("INSERT INTO t VALUES (2)")
    assert bob.execute("SELECT COUNT(*) FROM t").scalar() == 1
    registry.close("bob")


# ---------------------------------------------------------------------------
# churn across threads
# ---------------------------------------------------------------------------


def test_open_close_churn_across_threads(registry):
    """Heavy concurrent open/work/close cycles leak nothing."""
    threads, iterations = 8, 12
    errors = []
    opened = registry.open("seed")
    opened.execute("CREATE TABLE t (a INTEGER)")
    registry.close("seed")

    def churn(worker: int) -> None:
        try:
            for n in range(iterations):
                session = registry.open(f"w{worker}-{n}")
                session.execute(f"INSERT INTO t VALUES ({worker})")
                if n % 3 == 0:
                    session.declare_snapshot()
                session.execute("SELECT COUNT(*) FROM t")
                assert registry.close(session.name) is True
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append((worker, exc))

    workers = [threading.Thread(target=churn, args=(i,))
               for i in range(threads)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    assert errors == []
    assert registry.leak_report() == {
        "sessions": 0, "read_contexts": 0, "gate_held": False,
    }


# ---------------------------------------------------------------------------
# crash-mid-session reaping
# ---------------------------------------------------------------------------


def test_crash_mid_session_still_reaps():
    """A ChaosDisk crash mid-write surfaces to the client, but closing
    the session afterwards clears the registry and the reader table."""
    disk = ChaosDisk(4096, seed=11)
    aux = ChaosDisk(4096, controller=disk.chaos)
    store = SharedStore(disk=disk, aux_disk=aux, gate_timeout=30.0)
    registry = SessionRegistry(store)
    session = registry.open("doomed")
    survivor = registry.open("survivor")
    session.execute("CREATE TABLE t (a INTEGER)")
    session.execute("INSERT INTO t VALUES (1)")
    disk.schedule_crash(at_write=1)
    with pytest.raises(SimulatedCrash):
        for n in range(100):
            session.execute(f"INSERT INTO t VALUES ({n})")
            session.declare_snapshot()
    # Teardown after the crash: the registry row, the reader table and
    # the gate are all clear even though the disk is dead.
    try:
        registry.close("doomed")
    except StorageError:
        pass  # a crashed close may propagate, but must still reap
    registry.close("survivor")
    assert registry.leak_report() == {
        "sessions": 0, "read_contexts": 0, "gate_held": False,
    }
    store.close(checkpoint=False)


def test_server_close_is_idempotent_and_total():
    server = RQLServer()
    handle = server.connect("alice")
    handle.execute("CREATE TABLE t (a INTEGER)")
    server.close()
    server.close()
    assert server.closed
    with pytest.raises(SessionStateError):
        server.connect("late")
    with pytest.raises(ServerError):
        server.scheduler.submit(handle.session, "collate_data",
                                "SELECT snap_id FROM SnapIds",
                                "SELECT a FROM t", "r")
    assert isinstance(QueryCancelled("x"), ServerError)


# ---------------------------------------------------------------------------
# kill-mid-refresh: materialized-view refresh vs session teardown
# ---------------------------------------------------------------------------


def _view_fixture(registry, started, release, blocking):
    """A session with a 1-snapshot view whose Qq blocks on demand."""
    session = registry.open("alice")

    def gate(value):
        if blocking.is_set():
            started.set()
            release.wait(30)
        return value

    session.db.register_function("gate", gate)
    session.execute("CREATE TABLE events (val INTEGER)")
    session.execute("INSERT INTO events VALUES (10)")
    session.declare_snapshot()
    session.execute(
        "CREATE MATERIALIZED VIEW v AS "
        "CollateData('SELECT gate(val) FROM events')")
    for n in range(3):
        session.execute(f"INSERT INTO events VALUES ({n})")
        session.declare_snapshot()
    return session


def test_cancel_mid_refresh_keeps_committed_view(store, registry):
    """Cancelling an in-flight refresh never tears the view: metadata
    and table stay at the committed ``built_from``, teardown leaks
    nothing, and a later session can still refresh to the target."""
    from repro.server import QueryScheduler
    from repro.errors import QueryCancelled as Cancelled

    started = threading.Event()
    release = threading.Event()
    blocking = threading.Event()
    scheduler = QueryScheduler(store)
    session = _view_fixture(registry, started, release, blocking)
    before = session.execute("SELECT * FROM v").rows

    blocking.set()
    ticket = scheduler.submit_refresh(session, "v")
    assert started.wait(10), "refresh never reached the blocked Qq"
    cancelled = scheduler.cancel_session("alice", wait=False)
    assert cancelled == 1
    release.set()
    assert ticket.wait(10)
    with pytest.raises(Cancelled):
        ticket.outcome()

    # Fully old: the cancelled refresh committed nothing.
    blocking.clear()
    (meta,) = session.views.list_views()
    assert meta.built_from == 1
    assert session.execute("SELECT * FROM v").rows == before
    registry.close("alice")
    assert registry.leak_report() == {
        "sessions": 0, "read_contexts": 0, "gate_held": False,
    }
    # The committed base survives into the next session and is still
    # refreshable to the real target (functions register per session).
    bob = registry.open("bob")
    bob.db.register_function("gate", lambda value: value)
    report = bob.refresh_view("v")
    assert (report.built_from, report.target) == (1, 4)
    registry.close("bob")
    assert registry.leak_report() == {
        "sessions": 0, "read_contexts": 0, "gate_held": False,
    }


def test_session_close_aborts_in_flight_refresh(store, registry):
    """The view manager's close() hook aborts an in-flight refresh with
    QueryCancelled, so registry teardown reaps an all-zero report."""
    from repro.server import QueryScheduler
    from repro.errors import QueryCancelled as Cancelled

    started = threading.Event()
    release = threading.Event()
    blocking = threading.Event()
    scheduler = QueryScheduler(store)
    session = _view_fixture(registry, started, release, blocking)

    blocking.set()
    ticket = scheduler.submit_refresh(session, "v")
    assert started.wait(10), "refresh never reached the blocked Qq"
    # Teardown signal first (what RQLSession.close does), then let the
    # blocked evaluation run into the abort check.
    session.views.close()
    release.set()
    assert ticket.wait(10)
    assert isinstance(ticket.error, Cancelled)
    assert "session close" in str(ticket.error)

    registry.close("alice")
    assert registry.leak_report() == {
        "sessions": 0, "read_contexts": 0, "gate_held": False,
    }
