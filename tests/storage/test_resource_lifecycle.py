"""Regression tests for the interprocedural leaks the lifecycle lint
surfaced.  A fetched page needs no release (holding the reference keeps
it valid), so what a B+tree operation owes when a page source call
raises mid-descent is an intact tree: it still passes its invariants
and scans to the entries it held before the failed call.  The SQL layer
must close read contexts and roll back transactions on every error
path.  (The test names predate the retirement of buffer-pool pins.)
"""

import pytest

from repro.errors import BTreeError, ReproError, SnapshotError
from repro.sql.database import Database
from repro.storage.btree import BTree
from repro.storage.disk import SimulatedDisk
from repro.storage.engine import StorageEngine


class FailingSource:
    """Delegating page source — the whole protocol the tree may use, so
    a call to anything else fails the test — that can be told to fail
    the Nth fetch or make_writable call."""

    def __init__(self, inner):
        self.inner = inner
        self.fetches = 0
        self.fail_fetch_at = None
        self.fail_writable_at = None
        self._writables = 0

    def fetch(self, page_id):
        self.fetches += 1
        if self.fail_fetch_at is not None \
                and self.fetches >= self.fail_fetch_at:
            raise ReproError("injected fetch failure")
        return self.inner.fetch(page_id)

    def make_writable(self, page):
        self._writables += 1
        if self.fail_writable_at is not None \
                and self._writables >= self.fail_writable_at:
            raise ReproError("injected make_writable failure")
        return self.inner.make_writable(page)

    def allocate_page(self):
        return self.inner.allocate_page()

    def free_page(self, page_id):
        self.inner.free_page(page_id)

    def mark_dirty(self, page):
        self.inner.mark_dirty(page)


@pytest.fixture
def tracked_tree():
    engine = StorageEngine(SimulatedDisk(4096))
    txn = engine.begin()
    source = FailingSource(engine.page_source(txn))
    tree = BTree.create(source)
    return source, tree


def key(i):
    return f"{i:012d}".encode()


def assert_intact(tree, expected):
    tree.check_invariants()
    assert list(tree.scan_all()) == expected


def test_every_operation_balances_pins(tracked_tree):
    source, tree = tracked_tree
    for i in range(300):
        tree.insert(key(i), f"v{i}".encode())
    assert tree.height() > 1  # splits happened: descents are real
    assert tree.get(key(7)) == b"v7"
    assert tree.get(b"missing") is None
    assert len(list(tree.scan_all())) == 300
    assert len(list(tree.scan_range(key(10), key(50)))) == 40
    assert tree.last_key() == key(299)
    assert tree.count() == 300
    for i in range(0, 300, 3):
        tree.delete(key(i))
    assert_intact(tree, [(key(i), f"v{i}".encode())
                         for i in range(300) if i % 3])
    tree.clear()
    assert_intact(tree, [])
    assert source.fetches > 0


def test_oversized_insert_releases_the_root_pin(tracked_tree):
    source, tree = tracked_tree
    tree.insert(b"a", b"v")
    with pytest.raises(BTreeError):
        tree.insert(b"k", b"x" * 100_000)
    assert_intact(tree, [(b"a", b"v")])


def test_failed_descent_fetch_releases_held_pins(tracked_tree):
    source, tree = tracked_tree
    for i in range(300):
        tree.insert(key(i), b"v")
    before = list(tree.scan_all())
    # Fail each descent at a different depth, on a read and on both
    # write paths: a failed descent changes nothing.
    depth = tree.height()
    assert depth >= 2
    operations = (lambda: tree.get(key(299)),
                  lambda: tree.insert(key(299), b"changed"),
                  lambda: tree.delete(key(299)))
    for fail_at in range(1, depth + 1):
        for operation in operations:
            source.fetches = 0
            source.fail_fetch_at = fail_at
            with pytest.raises(ReproError, match="injected"):
                operation()
            source.fail_fetch_at = None
            assert_intact(tree, before)


def test_failed_write_path_releases_held_pins(tracked_tree):
    source, tree = tracked_tree
    for i in range(300):
        tree.insert(key(i), b"v")
    before = list(tree.scan_all())
    source.fail_writable_at = 1
    with pytest.raises(ReproError, match="injected"):
        tree.insert(key(1), b"changed")
    source.fail_writable_at = None
    assert_intact(tree, before)
    source._writables = 0
    source.fail_writable_at = 1
    with pytest.raises(ReproError, match="injected"):
        tree.delete(key(1))
    source.fail_writable_at = None
    assert_intact(tree, before)


def test_iteration_abandoned_midway_releases_pins(tracked_tree):
    source, tree = tracked_tree
    for i in range(300):
        tree.insert(key(i), b"v")
    before = list(tree.scan_all())
    scan = tree.scan_all()
    for n, _ in enumerate(scan):
        if n == 5:
            break
    scan.close()
    # An abandoned scan holds nothing the tree needs back: writes and
    # fresh scans go on as before.
    tree.insert(key(300), b"v")
    assert_intact(tree, before + [(key(300), b"v")])


# -- SQL layer ---------------------------------------------------------------


def _reader_count(db):
    return db.engine._versions.active_reader_count


def test_bad_as_of_closes_read_contexts():
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER)")
    db.execute("INSERT INTO t VALUES (1)")
    assert _reader_count(db) == 0
    with pytest.raises(SnapshotError):
        db.execute("SELECT AS OF 999 a FROM t")
    assert _reader_count(db) == 0
    # The database is still fully usable afterwards.
    assert db.execute("SELECT COUNT(*) FROM t").scalar() == 1


def test_planner_error_closes_read_contexts():
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER)")
    with pytest.raises(ReproError):
        db.execute("SELECT nope FROM t")
    assert _reader_count(db) == 0


def test_cursor_error_closes_read_contexts():
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER)")
    with pytest.raises(ReproError):
        with db.execute_cursor("SELECT nope FROM t"):
            pass  # pragma: no cover - the error fires before entry
    assert _reader_count(db) == 0
