"""Transaction context managers: Database.transaction() and
RQLSession.transaction() must commit on success, roll back on error, and
surface snapshot ids through the handle."""

import pytest

from repro.core import RQLSession
from repro.errors import ReproError, SqlError, TransactionError
from repro.sql.database import Database
from repro.storage.disk import SimulatedDisk
from tests.conftest import full_database_dump


def _count(db, table="t"):
    return db.execute(f"SELECT COUNT(*) FROM {table}").scalar()


def test_database_transaction_commits(db):
    db.execute("CREATE TABLE t (a INTEGER)")
    with db.transaction():
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("INSERT INTO t VALUES (2)")
    assert _count(db) == 2


def test_database_transaction_rolls_back_and_reraises(db):
    db.execute("CREATE TABLE t (a INTEGER)")
    with pytest.raises(SqlError):
        with db.transaction():
            db.execute("INSERT INTO t VALUES (1)")
            db.execute("INSERT INTO nope VALUES (1)")
    assert _count(db) == 0
    # The failed scope left no transaction open.
    db.execute("INSERT INTO t VALUES (3)")
    assert _count(db) == 1


class _CountingGate:
    """The write-gate protocol (``acquire()`` / ``release()``), counted."""

    def __init__(self):
        self.depth = 0
        self.acquired = 0

    def acquire(self):
        self.depth += 1
        self.acquired += 1

    def release(self):
        self.depth -= 1


def test_database_transaction_holds_and_releases_the_write_gate():
    gate = _CountingGate()
    db = Database(write_gate=gate)
    db.execute("CREATE TABLE t (a INTEGER)")
    before = gate.acquired
    with db.transaction():
        assert gate.depth == 1  # held for the whole scope
        db.execute("INSERT INTO t VALUES (1)")
    assert (gate.depth, gate.acquired) == (0, before + 1)
    assert _count(db) == 1


def test_database_transaction_error_rolls_back_and_releases_the_gate():
    gate = _CountingGate()
    db = Database(write_gate=gate)
    db.execute("CREATE TABLE t (a INTEGER)")
    with pytest.raises(KeyboardInterrupt):  # any BaseException rolls back
        with db.transaction():
            db.execute("INSERT INTO t VALUES (1)")
            raise KeyboardInterrupt
    assert gate.depth == 0
    assert _count(db) == 0
    with pytest.raises(TransactionError, match="no transaction is active"):
        db.execute("COMMIT")


def test_nested_database_transaction_raises_transaction_error():
    gate = _CountingGate()
    db = Database(write_gate=gate)
    db.execute("CREATE TABLE t (a INTEGER)")
    with pytest.raises(TransactionError, match="already inside"):
        with db.transaction():
            db.execute("INSERT INTO t VALUES (1)")
            with db.transaction():
                pytest.fail("the inner scope must not open")
    # The inner BEGIN's error unwound the outer scope: rolled back, gate
    # free, and a fresh scope works.
    assert gate.depth == 0
    assert _count(db) == 0
    with db.transaction():
        db.execute("INSERT INTO t VALUES (2)")
    assert _count(db) == 1
    with pytest.raises(TransactionError, match="already inside"):
        db.execute("BEGIN")
        with db.transaction():
            pytest.fail("BEGIN is already open")
    db.execute("ROLLBACK")
    assert gate.depth == 0


def test_session_transaction_plain_commit():
    session = RQLSession()
    session.execute("CREATE TABLE t (a INTEGER)")
    with session.transaction() as txn:
        session.execute("INSERT INTO t VALUES (1)")
    assert txn.snapshot_id is None
    assert _count(session.db) == 1


def test_session_transaction_with_snapshot():
    session = RQLSession()
    session.execute("CREATE TABLE t (a INTEGER)")
    with session.transaction(with_snapshot=True, name="first") as txn:
        session.execute("INSERT INTO t VALUES (1)")
    assert txn.snapshot_id == 1
    assert session.latest_snapshot_id == 1
    assert session.snapids.id_for_name("first") == txn.snapshot_id
    # The snapshot really reflects the scope's writes.
    rows = session.execute(
        f"SELECT AS OF {txn.snapshot_id} COUNT(*) FROM t"
    ).scalar()
    assert rows == 1


def test_session_transaction_rollback_declares_nothing():
    session = RQLSession()
    session.execute("CREATE TABLE t (a INTEGER)")
    with pytest.raises(ReproError):
        with session.transaction(with_snapshot=True) as txn:
            session.execute("INSERT INTO t VALUES (1)")
            raise ReproError("abort the scope")
    assert txn.snapshot_id is None
    assert session.latest_snapshot_id == 0
    assert _count(session.db) == 0


# ---------------------------------------------------------------------------
# A transaction that wrote nothing logs nothing
# ---------------------------------------------------------------------------

def _disks():
    return SimulatedDisk(4096), SimulatedDisk(4096)


def test_a_mechanism_run_appends_nothing_to_the_main_wal():
    """``table_writer`` opens a transaction on both engines; the one the
    mechanism only reads must not log a commit record per iteration."""
    main, aux = _disks()
    session = RQLSession(db=Database(disk=main, aux_disk=aux), workers=1)
    session.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
    session.execute("INSERT INTO t VALUES (1, 0), (2, 0)")
    for sid in range(1, 11):
        session.execute(f"UPDATE t SET v = {sid} WHERE k = 1")
        session.declare_snapshot()
    qs = "SELECT snap_id FROM SnapIds"
    before_main, before_aux = main.stats.snapshot(), aux.stats.snapshot()
    session.collate_data(
        qs, "SELECT v, current_snapshot() FROM t WHERE k = 1", "R")
    assert main.stats.delta(before_main).log_writes == 0
    assert aux.stats.delta(before_aux).log_writes > 0   # R lives there
    assert session.execute('SELECT COUNT(*) FROM "R"').scalar() == 10
    # The mirror image: a persistent result table is written to main, so
    # nothing is logged on aux but the DROP of the old R.
    session.execute('DROP TABLE "R"')
    before_main, before_aux = main.stats.snapshot(), aux.stats.snapshot()
    session.collate_data(
        qs, "SELECT v FROM t WHERE k = 1", "R", persistent=True)
    assert main.stats.delta(before_main).log_writes > 0
    assert aux.stats.delta(before_aux).log_writes == 0
    session.close()


def test_select_only_transactions_log_nothing_and_consume_no_commit_ts():
    main, aux = _disks()
    db = Database(disk=main, aux_disk=aux)
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("INSERT INTO t VALUES (1)")
    before_main, before_aux = main.stats.snapshot(), aux.stats.snapshot()
    commit_ts = db.engine._last_commit_ts
    for _ in range(5):
        with db.transaction():
            assert _count(db) == 1
            db.table_writer("t")          # opens both engines' txns
        db.execute("BEGIN")
        db.execute("COMMIT")
        db.execute("DROP TABLE IF EXISTS nope")
        db.execute("DELETE FROM t WHERE a = 99")   # matches no row
    assert main.stats.delta(before_main).log_writes == 0
    assert aux.stats.delta(before_aux).log_writes == 0
    assert db.engine._last_commit_ts == commit_ts
    assert db._main.txn is None and db._aux.txn is None
    # The writer slot is free again: a real write goes through.
    db.execute("INSERT INTO t VALUES (2)")
    assert main.stats.delta(before_main).log_writes > 0
    assert db.engine._last_commit_ts == commit_ts + 1


def test_commit_with_snapshot_on_an_empty_transaction_still_declares():
    main, aux = _disks()
    db = Database(disk=main, aux_disk=aux)
    db.execute("CREATE TABLE t (a INTEGER)")
    before = main.stats.snapshot()
    db.execute("BEGIN")
    assert db.execute("COMMIT WITH SNAPSHOT").scalar() == 1
    assert db.declare_snapshot() == 2
    assert main.stats.delta(before).log_writes > 0   # declarations are durable
    db.execute("INSERT INTO t VALUES (1)")
    assert db.execute("SELECT AS OF 2 COUNT(*) FROM t").scalar() == 0
    db.engine.crash()
    db.aux_engine.crash()
    recovered = Database(disk=main, aux_disk=aux)
    assert recovered.latest_snapshot_id == 2
    assert recovered.execute("SELECT AS OF 1 COUNT(*) FROM t").scalar() == 0
    assert _count(recovered) == 1


@pytest.mark.parametrize("empty_commits", [0, 1, 7])
def test_recovery_after_empty_commits_replays_to_the_same_dump(
        empty_commits):
    """Writes, N read-only transactions, more writes, a crash: what
    recovery rebuilds does not depend on N."""
    def run(n):
        main, aux = _disks()
        session = RQLSession(db=Database(disk=main, aux_disk=aux),
                             clock=lambda: "2018-03-26 00:00:00")
        session.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
        session.execute("INSERT INTO t VALUES (1, 1), (2, 2)")
        session.declare_snapshot()
        for _ in range(n):
            with session.db.transaction():
                session.db.table_writer("t")
                assert _count(session.db) == 2
        session.execute("UPDATE t SET v = 9 WHERE k = 2")
        session.declare_snapshot()
        for _ in range(n):
            session.collate_data("SELECT snap_id FROM SnapIds",
                                 "SELECT k, v FROM t", "R", workers=1)
        session.execute("INSERT INTO t VALUES (3, 3)")
        session.db.engine.crash()
        session.db.aux_engine.crash()
        recovered = RQLSession(db=Database(disk=main, aux_disk=aux))
        dump = full_database_dump(recovered.db)
        dump.pop(("aux", "R"), None)
        history = [recovered.execute(
            f"SELECT AS OF {sid} k, v FROM t").rows for sid in (1, 2)]
        return dump, history, recovered.latest_snapshot_id

    assert run(empty_commits) == run(0)
