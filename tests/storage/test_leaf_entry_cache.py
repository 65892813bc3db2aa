"""The leaf entry memo can never serve stale or foreign rows.

A cached B+tree leaf carries the rows a full scan decoded from it
(DESIGN.md, "The node cache contract").  The memo hangs off the node that
hangs off the ``Page`` object a cache holds, so these tests attack it
where a shortcut would show:

(a) a Hypothesis state machine interleaves every kind of write with
    reads of the current state and of every declared snapshot, and
    compares each read with an oracle that decodes private copies of
    the page bytes (no node cache in, none out) and with a Python model;
(b) a counting wrapper around the executor's ``decode_record`` pins what
    is decoded when: nothing on a repeated scan, one leaf after a
    one-row update, only unshared leaves on the next snapshot, one row
    on a point read (which fills nothing), everything after the
    snapshot cache is cleared;
(c) one tree read through two decoders gives each its own entries;
(d) constant snapshot-cache eviction and two workers change no byte of
    any result.
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core import RQLSession
from repro.sql import executor
from repro.sql.catalog import Catalog
from repro.sql.database import Database
from repro.sql.executor import EphemeralPageSource
from repro.sql.parser import parse_one
from repro.storage.btree import BTree
from repro.storage.disk import SimulatedDisk
from repro.storage.engine import StorageEngine
from repro.storage.page import HEADER_SIZE, PAGE_TYPE_BTREE_LEAF, Page
from repro.storage.record import decode_key, decode_record, encode_key, \
    encode_record
from tests.conftest import full_database_dump

SMALL_PAGE = 1024  # ~20 rows a leaf, ~50 children an internal node
#: the 1 KiB meta page lists at most ~120 free pages: keep trees that the
#: machine may empty in one statement well below that
MAX_MACHINE_ROWS = 300


# ---------------------------------------------------------------------------
# The oracle: the same sources a SELECT opens, read without any node cache
# ---------------------------------------------------------------------------

class _FreshPages:
    """Page source whose every fetch is a private copy of the bytes:
    nothing decoded through it comes from, or is left in, a node cache."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def fetch(self, page_id: int) -> Page:
        page = self._inner.fetch(page_id)
        return Page(page_id, bytearray(page.data), len(page.data))


def _select(as_of):
    prefix = "SELECT" if as_of is None else f"SELECT AS OF {as_of}"
    return parse_one(f"{prefix} * FROM t")


def raw_rows(db: Database, as_of=None):
    """[(rowid, row)] of table ``t`` decoded from page bytes alone; None
    when the table does not exist in that state."""
    with db._select_context(_select(as_of)) as ctx:
        fresh = _FreshPages(ctx._main_source)
        info = Catalog(fresh, db._catalog_root(db.engine)).get_table("t")
        if info is None:
            return None
        return [(int(decode_key(key)[0]), decode_record(value))
                for key, value in BTree(fresh, info.root_id).scan_all()]


def cached_rows(db: Database, as_of=None):
    """[(rowid, row)] through the access path every SELECT uses."""
    with db._select_context(_select(as_of)) as ctx:
        return list(ctx.open_table("t").scan())


def table_leaves(db: Database, as_of=None):
    """[(page identity, cached node or None, cell count)] of ``t``'s
    leaves in that state.  The identity is what the caches key the page
    object by: the Pagelog slot, or the page id for a current page."""
    with db._select_context(_select(as_of)) as ctx:
        access = ctx.open_table("t")
        source = access.tree.source
        entries = getattr(source, "entries", {})
        out = []
        for page_id in access.tree.page_ids():
            page = source.fetch(page_id)
            if page.page_type == PAGE_TYPE_BTREE_LEAF:
                entry = entries.get(page_id)
                identity = ("current", page_id) if entry is None \
                    else ("slot", entry.slot)
                cells = int.from_bytes(
                    page.data[HEADER_SIZE:HEADER_SIZE + 2], "little")
                out.append((identity, page.node, cells))
        return out


def table_height(db: Database) -> int:
    with db._select_context(_select(None)) as ctx:
        return ctx.open_table("t").tree.height()


# ---------------------------------------------------------------------------
# (a) state machine
# ---------------------------------------------------------------------------

CREATE = ("CREATE TABLE t (k INTEGER, v INTEGER, pad TEXT)",
          "CREATE INDEX t_k ON t(k)")

_keys = st.integers(min_value=0, max_value=40)
_vals = st.integers(min_value=-5, max_value=5)
_pads = st.sampled_from(["", "x", "padpadpad", "p" * 30])
_rows = st.tuples(_keys, _vals, _pads)


def _literal(row) -> str:
    k, v, pad = row
    return f"({k}, {v}, '{pad}')"


class LeafMemoMachine(RuleBasedStateMachine):
    """One indexed table under every kind of write; after every step
    each read path must agree with the raw bytes and the model."""

    def __init__(self) -> None:
        super().__init__()
        self.db = Database(page_size=SMALL_PAGE)
        for statement in CREATE:
            self.db.execute(statement)
        self.rows = []        # model of the current state (a multiset)
        self.saved = None     # model at BEGIN, while a transaction is open
        self.snapshots = {}   # snapshot id -> model at its declaration

    def teardown(self) -> None:
        self.db.close()

    def in_txn(self) -> bool:
        return self.saved is not None

    # -- writes ------------------------------------------------------------

    @rule(rows=st.lists(_rows, min_size=1, max_size=4))
    def insert(self, rows):
        self.db.execute("INSERT INTO t VALUES "
                        + ", ".join(_literal(r) for r in rows))
        self.rows.extend(rows)

    @precondition(lambda self: len(self.rows) < MAX_MACHINE_ROWS)
    @rule(base=_keys, count=st.integers(min_value=15, max_value=60))
    def bulk_insert(self, base, count):
        """Enough rows to split leaves and, soon, the root."""
        rows = [(base + i % 7, i % 3, "bulk") for i in range(count)]
        self.db.execute("INSERT INTO t VALUES "
                        + ", ".join(_literal(r) for r in rows))
        self.rows.extend(rows)

    @rule(lo=_keys, span=st.integers(min_value=0, max_value=6), value=_vals)
    def update_values_through_the_index(self, lo, span, value):
        self.db.execute(
            f"UPDATE t SET v = {value} WHERE k BETWEEN {lo} AND {lo + span}")
        self.rows = [(k, value, p) if lo <= k <= lo + span else (k, v, p)
                     for k, v, p in self.rows]

    @rule(value=_vals, step=st.integers(min_value=1, max_value=3))
    def update_keys_through_a_scan(self, value, step):
        self.db.execute(f"UPDATE t SET k = k + {step} WHERE v + 0 = {value}")
        self.rows = [(k + step, v, p) if v == value else (k, v, p)
                     for k, v, p in self.rows]

    @rule(lo=_keys, span=st.integers(min_value=0, max_value=10))
    def delete_range(self, lo, span):
        self.db.execute(f"DELETE FROM t WHERE k BETWEEN {lo} AND {lo + span}")
        self.rows = [r for r in self.rows if not lo <= r[0] <= lo + span]

    @rule()
    def delete_everything(self):
        """Empties every leaf: pages are freed and the root collapses."""
        self.db.execute("DELETE FROM t")
        self.rows = []

    @rule()
    def drop_and_recreate(self):
        """Frees the table's pages; the new trees reuse their ids."""
        self.db.execute("DROP TABLE t")
        for statement in CREATE:
            self.db.execute(statement)
        self.rows = []

    # -- transaction boundaries ------------------------------------------------

    @precondition(lambda self: not self.in_txn())
    @rule()
    def begin(self):
        self.db.execute("BEGIN")
        self.saved = list(self.rows)

    @precondition(lambda self: self.in_txn())
    @rule()
    def commit(self):
        self.db.execute("COMMIT")
        self.saved = None

    @precondition(lambda self: self.in_txn())
    @rule()
    def rollback(self):
        self.db.execute("ROLLBACK")
        self.rows, self.saved = self.saved, None

    @rule()
    def commit_with_snapshot(self):
        if not self.in_txn():
            self.db.execute("BEGIN")
        sid = self.db.execute("COMMIT WITH SNAPSHOT").scalar()
        self.saved = None
        self.snapshots[sid] = list(self.rows)

    # -- the check -----------------------------------------------------------

    def check_state(self, model, as_of=None):
        pin = "" if as_of is None else f" AS OF {as_of}"
        raw = raw_rows(self.db, as_of)
        assert raw is not None
        assert cached_rows(self.db, as_of) == raw
        star = self.db.execute(f"SELECT{pin} * FROM t").rows
        assert star == [row for _, row in raw]
        assert sorted(star) == sorted(model)
        assert self.db.execute(
            f"SELECT{pin} COUNT(*) FROM t").scalar() == len(model)
        for probe in {model[0][0], model[-1][0], 3} if model else {3}:
            got = self.db.execute(
                f"SELECT{pin} * FROM t WHERE k = {probe}").rows
            assert sorted(got) == sorted(r for r in model if r[0] == probe)

    @invariant()
    def every_read_path_agrees(self):
        self.check_state(self.rows)
        for sid, model in self.snapshots.items():
            self.check_state(model, as_of=sid)


LeafMemoMachine.TestCase.settings = settings(
    max_examples=50,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large,
                           HealthCheck.filter_too_much],
)
TestLeafMemoMachine = LeafMemoMachine.TestCase


def test_splits_and_collapse_keep_every_read_path_exact():
    """The structural events by hand, so a run always has them: leaf
    split, root split (height 3), snapshot, root collapse, page reuse."""
    machine = LeafMemoMachine()
    try:
        machine.every_read_path_agrees()
        machine.bulk_insert(0, 60)
        assert table_height(machine.db) == 2          # leaf + root split
        machine.every_read_path_agrees()
        machine.commit_with_snapshot()
        machine.begin()
        machine.delete_everything()
        machine.every_read_path_agrees()
        assert table_height(machine.db) == 1          # root collapsed
        machine.rollback()
        assert table_height(machine.db) == 2
        machine.every_read_path_agrees()
        machine.delete_everything()
        machine.commit_with_snapshot()
        machine.drop_and_recreate()
        machine.bulk_insert(5, 60)                    # reuses freed ids
        machine.every_read_path_agrees()
        for base in (0, 10, 20, 30):
            machine.bulk_insert(base, 250)
            machine.every_read_path_agrees()
        assert table_height(machine.db) == 3          # internal split
        machine.commit_with_snapshot()
        machine.delete_range(3, 2)
        machine.update_values_through_the_index(20, 6, 4)
        machine.every_read_path_agrees()
        assert len(machine.snapshots) == 3
    finally:
        machine.teardown()


# ---------------------------------------------------------------------------
# (b) what is decoded when
# ---------------------------------------------------------------------------

@pytest.fixture
def decodes(monkeypatch):
    """Calls of the executor's ``decode_record`` since the last reset."""
    calls = []

    def counting(raw):
        calls.append(1)
        return decode_record(raw)

    monkeypatch.setattr(executor, "decode_record", counting)
    return calls


ROWS = 60


@pytest.fixture
def filled_db():
    db = Database(page_size=SMALL_PAGE)
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER, pad TEXT)")
    db.execute("INSERT INTO t VALUES "
               + ", ".join(f"({k}, 0, 'padpadpad')" for k in range(ROWS)))
    yield db
    db.close()


def scan(db, as_of=None):
    pin = "" if as_of is None else f" AS OF {as_of}"
    return db.execute(f"SELECT{pin} * FROM t").rows


def declare_snapshot(db) -> int:
    db.execute("BEGIN")
    return db.execute("COMMIT WITH SNAPSHOT").scalar()


class TestDecodeCounts:
    def test_second_scan_of_an_unchanged_table_decodes_nothing(
            self, filled_db, decodes):
        first = scan(filled_db)
        assert len(decodes) == ROWS
        del decodes[:]
        assert scan(filled_db) == first
        assert filled_db.execute("SELECT COUNT(*) FROM t").scalar() == ROWS
        assert filled_db.execute(
            "SELECT SUM(v) FROM t WHERE pad = 'padpadpad'").scalar() == 0
        assert decodes == []

    def test_scan_after_a_one_row_update_decodes_one_leaf(
            self, filled_db, decodes):
        scan(filled_db)
        filled_db.execute("UPDATE t SET v = 7 WHERE k = 30")
        largest = max(cells for _, _, cells in table_leaves(filled_db))
        del decodes[:]
        rows = scan(filled_db)
        assert (30, 7, "padpadpad") in rows
        assert 0 < len(decodes) <= largest < ROWS

    def test_next_snapshot_decodes_only_the_leaves_it_does_not_share(
            self, filled_db, decodes):
        first = declare_snapshot(filled_db)
        filled_db.execute("UPDATE t SET v = 1 WHERE k = 5")
        second = declare_snapshot(filled_db)
        filled_db.execute("UPDATE t SET v = 2 WHERE k = 50")
        filled_db.engine.retro.cache.clear()
        seen = {identity for identity, _, _
                in table_leaves(filled_db, first)}
        unshared = sum(cells for identity, _, cells
                       in table_leaves(filled_db, second)
                       if identity not in seen)
        assert 0 < unshared < ROWS
        scan(filled_db, first)
        del decodes[:]
        rows = scan(filled_db, second)
        assert len(decodes) == unshared
        assert (5, 1, "padpadpad") in rows and (50, 0, "padpadpad") in rows
        del decodes[:]
        assert scan(filled_db, second) == rows
        assert decodes == []

    def test_point_read_decodes_one_row_and_fills_nothing(
            self, filled_db, decodes):
        assert all(node is None or node.entries is None
                   for _, node, _ in table_leaves(filled_db))
        with filled_db._select_context(_select(None)) as ctx:
            row = ctx.open_table("t").get(30)     # k is the rowid
        assert row == (30, 0, "padpadpad")
        assert len(decodes) == 1
        del decodes[:]
        # Through SQL: one row, found by its key in the table tree.
        assert filled_db.execute(
            "SELECT v FROM t WHERE k = 12").rows == [(0,)]
        assert len(decodes) == 1
        assert all(node is None or node.entries is None
                   for _, node, _ in table_leaves(filled_db))

    def test_point_read_borrows_a_filled_leaf(self, filled_db, decodes):
        scan(filled_db)
        del decodes[:]
        with filled_db._select_context(_select(None)) as ctx:
            assert ctx.open_table("t").get(30) == (30, 0, "padpadpad")
        assert decodes == []

    def test_scan_after_the_snapshot_cache_is_cleared_decodes_everything(
            self, filled_db, decodes):
        sid = declare_snapshot(filled_db)
        # Rewrite every leaf so the snapshot reads all of them from the
        # Pagelog and shares none with the current state.
        filled_db.execute("UPDATE t SET v = v + 1")
        del decodes[:]
        rows = scan(filled_db, sid)
        assert len(rows) == ROWS and len(decodes) == ROWS
        del decodes[:]
        assert scan(filled_db, sid) == rows
        assert decodes == []
        filled_db.engine.retro.cache.clear()
        assert scan(filled_db, sid) == rows
        assert len(decodes) == ROWS

    def test_a_write_drops_the_memo_of_the_leaf_it_rewrites_only(
            self, filled_db, decodes):
        scan(filled_db)
        before = {identity: node for identity, node, _
                  in table_leaves(filled_db)}
        assert all(node.entries is not None for node in before.values())
        filled_db.execute("UPDATE t SET v = 9 WHERE k = 0")
        after = table_leaves(filled_db)
        rewritten = [identity for identity, node, _ in after
                     if node is not before.get(identity)]
        assert len(rewritten) == 1
        for identity, node, _ in after:
            if identity in rewritten:
                assert node is None or node.entries is None
            else:
                assert node.entries is not None


# ---------------------------------------------------------------------------
# (c) two decoders, one tree
# ---------------------------------------------------------------------------

def _as_pair(key, value):
    return decode_key(key)[0], decode_record(value)[0]


def _as_text(key, value):
    return f"{decode_key(key)[0]}={decode_record(value)[0]}"


def test_each_decoder_reads_its_own_entries():
    source = EphemeralPageSource(SMALL_PAGE)
    tree = BTree.create(source)
    for i in range(50):
        tree.insert(encode_key((i,)), encode_record((i * i,)))
    pairs = BTree(source, tree.root_id, _as_pair)
    texts = BTree(source, tree.root_id, _as_text)
    want_pairs = [(i, i * i) for i in range(50)]
    want_texts = [f"{i}={i * i}" for i in range(50)]

    def flat(view):
        return [entry for leaf in view.scan_leaves() for entry in leaf]

    assert flat(pairs) == want_pairs
    # The leaves now hold _as_pair's entries; the other view refills
    # instead of borrowing them, on scans and on probes alike.
    assert texts.get(encode_key((7,))) == "7=49"
    assert [cell for _, cell in texts.scan_from(encode_key((45,)))] \
        == want_texts[45:]
    assert flat(texts) == want_texts
    assert pairs.get(encode_key((7,))) == (7, 49)
    assert flat(pairs) == want_pairs
    # No decoder: raw cells, whatever the memo holds.
    assert tree.get(encode_key((7,))) == encode_record((49,))
    assert [len(leaf) for leaf in tree.scan_leaves()] \
        == [len(leaf) for leaf in pairs.scan_leaves()]
    assert tree.count() == 50


def test_racing_fillers_and_probes_all_read_the_same_entries():
    """No lock guards the memo: filling is idempotent and published by
    one assignment.  More threads than cores, switching every few
    bytecodes, scan and probe one cold tree; each must see exactly the
    oracle's entries, and every memo left behind holds exactly them.

    "Every leaf ends up filled" is not promised under a race: a probe
    that began a cold parse may publish its unfilled node after the last
    scan filled the one it replaces.  One quiet scan fills the rest."""
    source = EphemeralPageSource(SMALL_PAGE)
    tree = BTree.create(source)
    for i in range(400):
        tree.insert(encode_key((i,)), encode_record((i * 3,)))
    for page_id in tree.page_ids():
        source.fetch(page_id).node = None     # cold: parse races too
    want = [(i, i * 3) for i in range(400)]
    failures = []
    start = threading.Barrier(8)

    def reader(n: int) -> None:
        view = BTree(source, tree.root_id, _as_pair)
        try:
            start.wait(timeout=30)
            for _ in range(5):
                if n % 2:
                    got = [e for leaf in view.scan_leaves() for e in leaf]
                else:
                    got = [view.get(encode_key((i,))) for i in range(400)]
                if got != want:
                    failures.append((n, got[:5]))
        except Exception as exc:  # reported by the assertion below
            failures.append((n, repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []

    def leaves():
        return [source.fetch(pid).node for pid in tree.page_ids()
                if source.fetch(pid).page_type == PAGE_TYPE_BTREE_LEAF]

    assert len(leaves()) > 5
    pos = 0
    for leaf in leaves():        # page_ids() is DFS: leaves in key order
        end = pos + len(leaf.keys)
        if leaf.entries is not None:
            assert leaf.entries == (_as_pair, None, want[pos:end])
        pos = end
    assert pos == len(want)
    view = BTree(source, tree.root_id, _as_pair)
    assert [e for leaf in view.scan_leaves() for e in leaf] == want
    assert all(leaf.entries is not None and leaf.entries[0] is _as_pair
               for leaf in leaves())


# ---------------------------------------------------------------------------
# (d) eviction and workers change no byte
# ---------------------------------------------------------------------------

FIXED_CLOCK = lambda: "2026-01-01 00:00:00"  # noqa: E731


def _history(snapshot_cache_pages=None) -> RQLSession:
    disk, aux_disk = SimulatedDisk(SMALL_PAGE), SimulatedDisk(SMALL_PAGE)
    engine = StorageEngine(disk, page_size=SMALL_PAGE,
                           snapshot_cache_pages=snapshot_cache_pages)
    db = Database(engine=engine,
                  aux_engine=StorageEngine(aux_disk, page_size=SMALL_PAGE),
                  page_size=SMALL_PAGE)
    rql = RQLSession(db=db, clock=FIXED_CLOCK, workers=1)
    rql.execute("CREATE TABLE events (grp INTEGER, val INTEGER)")
    rql.execute("CREATE INDEX events_grp ON events(grp)")
    for sid in range(1, 9):
        with rql.transaction(with_snapshot=True):
            rql.execute("INSERT INTO events VALUES " + ", ".join(
                f"({(sid * 7 + i) % 11}, {sid * 100 + i})"
                for i in range(12)))
            rql.execute(f"UPDATE events SET val = val + 1 "
                        f"WHERE grp = {sid % 11}")
            rql.execute(f"DELETE FROM events WHERE val % 13 = {sid}")
    return rql


def _run_all(rql: RQLSession, workers: int):
    qs = "SELECT snap_id FROM SnapIds"
    rql.collate_data(
        qs, "SELECT grp, val, current_snapshot() FROM events", "r_collate",
        workers=workers)
    rql.aggregate_data_in_variable(
        qs, "SELECT SUM(val) FROM events", "r_var", "sum", workers=workers)
    rql.aggregate_data_in_table(
        qs, "SELECT grp, val FROM events", "r_table",
        [("val", "max"), ("val", "sum")], workers=workers)
    rql.collate_data_into_intervals(
        qs, "SELECT DISTINCT grp FROM events WHERE grp < 6", "r_intervals",
        workers=workers)
    return full_database_dump(rql.db)


def test_constant_eviction_and_two_workers_change_no_byte():
    baseline = _history()
    evicting = _history(snapshot_cache_pages=2)
    parallel = _history()
    try:
        want = _run_all(baseline, workers=1)
        assert any(rows for (_, name), (_, rows) in
                   ((k, v) for k, v in want.items()
                    if k[1] != "__indexes__")
                   if name.startswith("r_"))
        assert _run_all(evicting, workers=1) == want
        assert _run_all(parallel, workers=2) == want
        assert baseline.db.engine.retro.cache.evictions == 0
        assert evicting.db.engine.retro.cache.evictions > 100
        # And again, now that every cached leaf carries its entries.
        for rql in (baseline, evicting, parallel):
            for name in ("r_collate", "r_var", "r_table", "r_intervals"):
                rql.execute(f"DROP TABLE {name}")
        again = _run_all(baseline, workers=1)
        assert _run_all(evicting, workers=1) == again
        assert _run_all(parallel, workers=2) == again
    finally:
        for rql in (baseline, evicting, parallel):
            rql.close()
