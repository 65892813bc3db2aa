"""Transaction context managers: Database.transaction() and
RQLSession.transaction() must commit on success, roll back on error, and
surface snapshot ids through the handle."""

import pytest

from repro.core import RQLSession
from repro.errors import ReproError, SqlError, TransactionError
from repro.sql.database import Database


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
