"""The catalog as of a snapshot, memo warm.

``Catalog`` is a typed view of the catalog tree: lookups borrow the
``TableInfo`` / ``IndexInfo`` entries the page's decoded node carries
(DESIGN.md §3a), so one object serves every snapshot, session and thread
that reads the page.  These tests attack where that could go stale or
leak:

(a) a Hypothesis state machine over DDL in both catalogs, inserts,
    ``ANALYZE``, snapshots, a ROLLBACK that undoes DDL, and checkpoint +
    reopen, compares ``get_table`` / ``indexes_for`` / ``list_tables``
    and the ``EXPLAIN`` access path — at the current state and as of
    every declared snapshot — with a model and with a memo-free twin;
    and one run reader stepping every declared snapshot (up, then back
    down) resolves tables, indexes, statistics and the whole ``EXPLAIN``
    exactly as a fresh statement as of each snapshot does;
(b) the same script fails under three seeded mutants: a memo that
    follows a written node, a ``temporary`` flag taken from the wrong
    catalog, and a run reader that keeps its main-catalog answers by
    name only (not by the catalog node they came from);
(c) entries are shared (same object through different snapshots) and
    immutable (frozen, and nothing in ``src/repro`` assigns to one);
(d) a page is decoded once: no catalog row is decoded by the second
    statement, the next snapshot or the other thread's read.
"""

from __future__ import annotations

import ast as python_ast
import dataclasses
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.sql import catalog as catalog_module
from repro.sql import database as database_module
from repro.sql.catalog import Catalog, Column, IndexInfo, TableInfo
from repro.sql.database import Database
from repro.sql.parser import parse_one
from repro.sql.planner import explain_select
from repro.sql.stats import STATS_TABLE
from repro.storage import btree
from repro.storage.disk import SimulatedDisk
from repro.storage.record import decode_record
from tests.storage.test_leaf_entry_cache import _FreshPages, declare_snapshot

PAGE_SIZE = 1024  # a dozen catalog rows a leaf: the catalog tree splits
MAIN_NAMES = ("ta", "tb", "tc", "td", "te", "tf")
TEMP_NAMES = ("tmp1", "tmp2", "tmp3")
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _pin(as_of) -> str:
    return "" if as_of is None else f" AS OF {as_of}"


def context(db: Database, as_of=None):
    """The execution context a SELECT pinned like this opens."""
    return db._select_context(parse_one(f"SELECT{_pin(as_of)} 1"))


#: what :func:`index_used` names a seek of the table by its rowid alias
ROWID = "INTEGER PRIMARY KEY"
#: the DDL of a key of each kind the machine makes: none, the rowid
#: alias, or a key kept in a ``__pk_`` index
KEYS = {"": "k INTEGER, v INTEGER",
        "rowid": "k INTEGER PRIMARY KEY, v INTEGER",
        "index": "k INTEGER, v INTEGER, PRIMARY KEY (k, v)"}


def index_used(db: Database, table: str, column: str, as_of=None):
    """Name of the index EXPLAIN searches for ``column = 1``, ``ROWID``
    for a seek by the rowid alias (None for a scan)."""
    notes = [row[0] for row in db.execute(
        f"EXPLAIN SELECT{_pin(as_of)} * FROM {table} "
        f"WHERE {column} = 1").rows]
    for note in notes:
        if note.startswith(f"SEARCH {table} USING INDEX "):
            return note.split()[4]
        if note.startswith(f"SEARCH {table} USING {ROWID} "):
            return ROWID
    assert f"SCAN {table}" in notes
    return None


# ---------------------------------------------------------------------------
# (a) the state machine
# ---------------------------------------------------------------------------

class CatalogMachine(RuleBasedStateMachine):
    """Both catalogs under DDL; after every step each read agrees with
    the model and with a twin that reads private copies of the pages."""

    def __init__(self) -> None:
        super().__init__()
        self.disk = SimulatedDisk(PAGE_SIZE)
        self.aux_disk = SimulatedDisk(PAGE_SIZE)
        self.db = self.open()
        #: name -> {"pk": a KEYS kind, "indexes": set of names,
        #: "temp": bool}
        self.tables = {}
        self.saved = None     # model at BEGIN, while a transaction is open
        self.snapshots = {}   # snapshot id -> model of the main tables
        #: table name -> the snapshot id each ANALYZE of it was stamped
        #: with (statistics outlive a DROP: they are keyed by name)
        self.stamps = {}
        self.next_key = 0

    def open(self) -> Database:
        return Database(disk=self.disk, aux_disk=self.aux_disk,
                        page_size=PAGE_SIZE)

    def teardown(self) -> None:
        self.db.close()

    def in_txn(self) -> bool:
        return self.saved is not None

    def existing(self, temp=None):
        return sorted(name for name, t in self.tables.items()
                      if temp is None or t["temp"] == temp)

    @staticmethod
    def copy_of(tables):
        return {name: dict(t, indexes=set(t["indexes"]))
                for name, t in tables.items()}

    # -- DDL ---------------------------------------------------------------

    @rule(at=st.integers(0, 99), pk=st.sampled_from(sorted(KEYS)))
    def create_table(self, at, pk):
        free = [n for n in MAIN_NAMES if n not in self.tables]
        if not free:
            return
        name = free[at % len(free)]
        self.db.execute(f"CREATE TABLE {name} ({KEYS[pk]})")
        self.tables[name] = {"pk": pk, "indexes": set(), "temp": False}

    @rule(at=st.integers(0, 99), pk=st.sampled_from(sorted(KEYS)))
    def create_temp_table(self, at, pk):
        free = [n for n in TEMP_NAMES if n not in self.tables]
        if not free:
            return
        name = free[at % len(free)]
        self.db.execute(f"CREATE TEMP TABLE {name} ({KEYS[pk]})")
        self.tables[name] = {"pk": pk, "indexes": set(), "temp": True}

    @rule(at=st.integers(0, 99))
    def drop_table(self, at):
        names = self.existing()
        if not names:
            return
        name = names[at % len(names)]
        self.db.execute(f"DROP TABLE {name}")
        del self.tables[name]

    @rule(at=st.integers(0, 99))
    def create_index(self, at):
        names = [n for n in self.existing()
                 if f"{n}_v" not in self.tables[n]["indexes"]]
        if not names:
            return
        name = names[at % len(names)]
        self.db.execute(f"CREATE INDEX {name}_v ON {name} (v)")
        self.tables[name]["indexes"].add(f"{name}_v")

    @rule(at=st.integers(0, 99))
    def drop_index(self, at):
        names = [n for n in self.existing() if self.tables[n]["indexes"]]
        if not names:
            return
        name = names[at % len(names)]
        self.db.execute(f"DROP INDEX {name}_v")
        self.tables[name]["indexes"].discard(f"{name}_v")

    @rule(at=st.integers(0, 99), count=st.integers(1, 5))
    def insert(self, at, count):
        names = self.existing()
        if not names:
            return
        name = names[at % len(names)]
        rows = ", ".join(f"({self.next_key + i}, {i % 3})"
                         for i in range(count))
        self.next_key += count
        self.db.execute(f"INSERT INTO {name} VALUES {rows}")

    @precondition(lambda self: not self.in_txn())
    @rule(at=st.integers(0, 99))
    def analyze(self, at):
        names = self.existing()
        if not names:
            return
        name = names[at % len(names)]
        self.db.execute(f"ANALYZE {name}")
        # Stamped with the latest declared snapshot (0 before any).
        self.stamps.setdefault(name, []).append(
            max(self.snapshots, default=0))

    # -- transaction boundaries and restarts ---------------------------------

    @precondition(lambda self: not self.in_txn())
    @rule()
    def begin(self):
        self.db.execute("BEGIN")
        self.saved = self.copy_of(self.tables)

    @precondition(lambda self: self.in_txn())
    @rule()
    def commit(self):
        self.db.execute("COMMIT")
        self.saved = None

    @precondition(lambda self: self.in_txn())
    @rule()
    def rollback(self):
        self.db.execute("ROLLBACK")
        self.tables, self.saved = self.saved, None

    @rule()
    def commit_with_snapshot(self):
        if not self.in_txn():
            self.db.execute("BEGIN")
        sid = self.db.execute("COMMIT WITH SNAPSHOT").scalar()
        self.saved = None
        self.snapshots[sid] = self.copy_of(
            {n: t for n, t in self.tables.items() if not t["temp"]})

    @precondition(lambda self: not self.in_txn())
    @rule()
    def checkpoint_and_reopen(self):
        self.db.checkpoint()
        self.db.close()
        self.db = self.open()

    # -- the check -----------------------------------------------------------

    def has_stats(self, name, as_of=None) -> bool:
        """Does a gathering of ``name``'s statistics apply at the pin?"""
        return any(as_of is None or stamp <= as_of
                   for stamp in self.stamps.get(name, ()))

    def check_state(self, main_tables, as_of=None):
        """``main_tables`` as of the pin, plus the temp tables of *now*
        (the aux engine is not snapshotable)."""
        model = dict(main_tables)
        model.update({n: t for n, t in self.tables.items() if t["temp"]})
        stats_table = [STATS_TABLE] if self.stamps else []
        db = self.db
        with context(db, as_of) as ctx:
            twins = [
                (ctx._main_catalog, False,
                 Catalog(_FreshPages(ctx._main_source),
                         db._catalog_root(db.engine))),
                (ctx._aux_catalog, True,
                 Catalog(_FreshPages(ctx._aux_source),
                         db._catalog_root(db.aux_engine), temporary=True)),
            ]
            for catalog, temp, twin in twins:
                names = sorted([n for n, t in model.items()
                                if t["temp"] == temp]
                               + (stats_table if temp else []))
                listed = catalog.list_tables()
                assert [t.name for t in listed] == names
                assert listed == twin.list_tables()
                assert catalog.list_indexes() == twin.list_indexes()
                for name in MAIN_NAMES + TEMP_NAMES:
                    info = catalog.get_table(name.upper())
                    assert info == twin.get_table(name)
                    found = catalog.indexes_for(name)
                    assert found == twin.indexes_for(name)
                    if name not in names:
                        assert info is None and found == []
                        continue
                    assert (info.name, info.temporary) == (name, temp)
                    assert info.column_names() == ["k", "v"]
                    wanted = set(model[name]["indexes"])
                    if model[name]["pk"] == "index":
                        wanted.add(f"__pk_{name}")
                    assert {ix.name for ix in found} == wanted
                    assert all(ix.temporary == temp and ix.table == name
                               for ix in found)
                    for ix in found:
                        assert catalog.get_index(ix.name) == ix
            for name, table in model.items():
                access = ctx.open_table(name)
                assert access.info.temporary == table["temp"]
                assert len(ctx.open_indexes(access)) \
                    == len(table["indexes"]) + (table["pk"] == "index")
        for name, table in model.items():
            wanted = [f"{name}_v" if table["indexes"] else None,
                      {"": None, "rowid": ROWID,
                       "index": f"__pk_{name}"}[table["pk"]]]
            used = [index_used(db, name, "v", as_of),
                    index_used(db, name, "k", as_of)]
            if self.has_stats(name, as_of):
                # Costed: a scan may beat the index on a table this small.
                assert all(u in (None, w) for u, w in zip(used, wanted))
            else:
                assert used == wanted

    def check_run(self):
        """One run reader over every declared snapshot, up and back
        down — so its kept answers meet each DDL, CREATE INDEX, ANALYZE
        and catalog split in both directions — agrees with a fresh
        statement as of each snapshot.  A run never runs inside a
        transaction, so none is open here."""
        db = self.db
        order = sorted(self.snapshots)
        names = MAIN_NAMES + TEMP_NAMES + (STATS_TABLE,)
        with db.run_reader() as reader:
            for sid in order + order[::-1]:
                run = reader.context(sid)
                with db.reading(as_of=sid) as fresh:
                    for name in names:
                        got, want = run.find_table(name), \
                            fresh.find_table(name)
                        assert (got is None) == (want is None), (sid, name)
                        assert run.table_stats(name) \
                            == fresh.table_stats(name), (sid, name)
                        if got is None:
                            continue
                        assert got.info == want.info, (sid, name)
                        assert [ix.info for ix in run.open_indexes(got)] \
                            == [ix.info for ix in fresh.open_indexes(want)]
                        if name == STATS_TABLE:
                            continue
                        explain = parse_one(
                            f"SELECT AS OF {sid} * FROM {name} "
                            f"WHERE v = 1 AND k > 0")
                        assert explain_select(explain, run) \
                            == explain_select(explain, fresh), (sid, name)

    @invariant()
    def every_catalog_read_agrees(self):
        self.check_state(
            {n: t for n, t in self.tables.items() if not t["temp"]})
        for sid, main_tables in self.snapshots.items():
            self.check_state(main_tables, as_of=sid)
        if not self.in_txn():
            self.check_run()


CatalogMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large,
                           HealthCheck.filter_too_much],
)
TestCatalogMachine = CatalogMachine.TestCase


def scripted_run() -> None:
    """Every kind of step by hand, so a run always has them — and so the
    seeded mutants below have a fixed script to fail."""
    machine = CatalogMachine()
    check = machine.every_catalog_read_agrees
    try:
        check()
        machine.create_table(0, "index")           # ta, with a __pk_ index
        machine.create_temp_table(0, "rowid")      # tmp1, keyed by rowid
        check()
        machine.insert(0, 3)
        machine.create_index(0)                    # ta_v
        check()
        machine.commit_with_snapshot()             # 1: ta + ta_v
        check()
        machine.analyze(0)                         # ta, stamped 1
        check()
        machine.begin()
        machine.create_table(0, "")                # tb
        machine.create_index(1)                    # tb_v
        machine.drop_index(0)                      # ta_v, inside the txn
        check()
        machine.rollback()                         # all three undone
        check()
        machine.create_index(1)                    # tmp1_v, in the aux catalog
        machine.drop_index(0)                      # ta_v
        check()
        machine.commit_with_snapshot()             # 2: ta without ta_v
        machine.drop_table(0)                      # ta
        machine.create_temp_table(0, "")           # tmp2
        check()
        machine.create_table(0, "")                # ta again, no key
        machine.create_index(0)                    # ta_v again
        machine.analyze(0)                         # ta, stamped 2
        machine.commit_with_snapshot()             # 2a: the same name,
        check()                                    # a new table
        machine.checkpoint_and_reopen()
        check()
        with context(machine.db, max(machine.snapshots)) as ctx:
            assert ctx._main_catalog.root_leaf() is not None
        for at in range(5):                        # the catalog leaf splits
            machine.create_table(0, "index")
            machine.create_index(at)
            check()
        machine.analyze(1)
        machine.commit_with_snapshot()             # 3
        with context(machine.db, max(machine.snapshots)) as ctx:
            assert ctx._main_catalog.root_leaf() is None
        machine.drop_table(5)                      # tmp1
        machine.begin()
        machine.drop_table(2)
        machine.commit()
        check()
        assert len(machine.snapshots) == 4
    finally:
        machine.teardown()


def test_every_kind_of_step_keeps_every_catalog_read_exact():
    scripted_run()


# ---------------------------------------------------------------------------
# (b) seeded mutants the script must fail
# ---------------------------------------------------------------------------

def test_a_memo_that_follows_a_written_node_is_caught(monkeypatch):
    copy = btree._LeafNode.copy

    def copy_with_entries(self):
        node = copy(self)
        node.entries = self.entries
        return node

    monkeypatch.setattr(btree._LeafNode, "copy", copy_with_entries)
    with pytest.raises((AssertionError, IndexError, AttributeError)):
        scripted_run()


def test_a_temporary_flag_from_the_wrong_catalog_is_caught(monkeypatch):
    monkeypatch.setattr(catalog_module, "_temp_entry",
                        catalog_module._main_entry)
    with pytest.raises(AssertionError):
        scripted_run()


def test_a_run_memo_keyed_by_name_only_is_caught(monkeypatch):
    def by_name_only(reader, catalog):
        return database_module._Resolved(catalog, reader._answers)

    monkeypatch.setattr(database_module.RunReader, "main_names",
                        by_name_only)
    with pytest.raises(AssertionError):
        scripted_run()


# ---------------------------------------------------------------------------
# (c) entries are shared, and immutable
# ---------------------------------------------------------------------------

@pytest.fixture
def history():
    """``t`` with two indexes (its key is composite, so it is kept in
    ``__pk_t``); snapshots 1 and 2 differ in rows only, a DDL after them
    moves the catalog page they share to the Pagelog."""
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER, v INTEGER, PRIMARY KEY (k, v))")
    db.execute("CREATE INDEX t_v ON t (v)")
    db.execute("CREATE TEMP TABLE scratch (x)")
    db.execute("INSERT INTO t VALUES (1, 1), (2, 2)")
    assert declare_snapshot(db) == 1
    db.execute("UPDATE t SET v = 5 WHERE k = 1")
    assert declare_snapshot(db) == 2
    yield db
    db.close()


def looked_up(db: Database, as_of=None):
    """(table entry, index entries) of ``t`` as a statement pinned like
    this finds them — on the second look: the table lookup that opens a
    cold page decodes its one row for itself, the index lookup after it
    fills the page's memo."""
    for _ in range(2):
        with context(db, as_of) as ctx:
            table = ctx.open_table("t")
            found = table.info, [ix.info for ix in ctx.open_indexes(table)]
    return found


def test_snapshots_sharing_the_catalog_page_share_the_entries(history):
    db = history
    info, indexes = looked_up(db)
    for as_of in (1, 2, None, 1):
        again, again_indexes = looked_up(db, as_of)
        assert again is info
        assert all(a is b for a, b in zip(again_indexes, indexes))
        assert len(again_indexes) == len(indexes) == 2
    # A DDL rewrites the page: the current state gets new entries, the
    # two snapshots go on sharing theirs (now from one Pagelog slot).
    db.execute("CREATE INDEX t_kv ON t (k, v)")
    declare_snapshot(db)
    current, current_indexes = looked_up(db)
    assert current is not info and current == info
    assert len(current_indexes) == 3
    old, old_indexes = looked_up(db, 1)
    assert old is not current and len(old_indexes) == 2
    assert looked_up(db, 2)[0] is old
    assert looked_up(db, 3)[0] is current
    assert [ix.name for ix in looked_up(db, 2)[1]] == ["__pk_t", "t_v"]


def test_the_two_catalogs_say_which_one_an_entry_came_from(history):
    with context(history) as ctx:
        assert ctx.open_table("scratch").info.temporary is True
        assert ctx.open_table("t").info.temporary is False
        assert [ix.info.temporary
                for ix in ctx.open_indexes(ctx.open_table("t"))] \
            == [False, False]
    # DDL finds the flag on the entry it looked up, too.
    history.execute("CREATE INDEX scratch_x ON scratch (x)")
    with context(history) as ctx:
        (index,) = ctx.open_indexes(ctx.open_table("scratch"))
        assert index.info.temporary is True
        assert ctx._main_catalog.get_index("scratch_x") is None


def test_entries_are_frozen():
    table = TableInfo("t", 3, [Column("a", "")], ["a"])
    index = IndexInfo("i", "t", 4, ["a"])
    for entry in (table, index):
        for field in dataclasses.fields(entry):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(entry, field.name, None)
    assert table == TableInfo("t", 3, [Column("a", "")], ["a"])


def test_nothing_in_the_source_tree_assigns_a_temporary_flag():
    """Which catalog an entry came from is decided where it is decoded
    (``Catalog(..., temporary=)``), never patched on afterwards."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in python_ast.walk(python_ast.parse(path.read_text())):
            targets = []
            if isinstance(node, python_ast.Assign):
                targets = node.targets
            elif isinstance(node, (python_ast.AugAssign,
                                   python_ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, python_ast.Attribute) \
                        and target.attr == "temporary":
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []


def test_a_catalog_object_keeps_no_lookup_state(history):
    """Two contexts over one open transaction agree: DDL through one is
    what the other reads next (as ``table_writer`` relies on)."""
    db = history
    db.execute("BEGIN")
    reader = db._write_context()
    assert reader.open_table("t").info.column_names() == ["k", "v"]
    assert len(reader.open_indexes(reader.open_table("t"))) == 2
    db.execute("CREATE INDEX t_kv ON t (k, v)")
    db.execute("CREATE TABLE later (z)")
    assert len(reader.open_indexes(reader.open_table("t"))) == 3
    assert reader.open_table("later").info.column_names() == ["z"]
    assert vars(reader._main_catalog).keys() == {"_tree"}
    db.execute("ROLLBACK")
    assert len(looked_up(db)[1]) == 2
    with context(db) as ctx:
        assert ctx._main_catalog.get_table("later") is None


# ---------------------------------------------------------------------------
# (d) a page is decoded once
# ---------------------------------------------------------------------------

@pytest.fixture
def decodes(monkeypatch):
    """Catalog rows decoded since the last reset."""
    calls = []

    def counting(raw):
        calls.append(1)
        return decode_record(raw)

    monkeypatch.setattr(catalog_module, "decode_record", counting)
    return calls


def forget_decoded_catalog(db: Database) -> None:
    """Leave the (one-page) main catalog as a page just read from disk."""
    with context(db) as ctx:
        ctx._main_source.fetch(
            db._catalog_root(db.engine)).node = None


def test_statements_between_two_ddls_decode_the_catalog_once(history,
                                                             decodes):
    db = history
    forget_decoded_catalog(db)
    db.execute("SELECT * FROM t WHERE v = 5")
    # The table lookup decodes its one row, the index lookup after it
    # fills the leaf: t, __pk_t, t_v.
    assert len(decodes) == 1 + 3
    del decodes[:]
    for as_of in (None, 1, 2, None, 2):
        assert db.execute(
            f"SELECT{_pin(as_of)} COUNT(*) FROM t WHERE k > 0").scalar() == 2
        db.execute(f"EXPLAIN SELECT{_pin(as_of)} * FROM t WHERE v = 1")
    db.execute("INSERT INTO t VALUES (3, 3)")
    db.execute("UPDATE t SET v = 4 WHERE k = 3")
    assert decodes == []
    # A DDL publishes a node without a memo: one refill, then quiet again.
    db.execute("CREATE INDEX t_kv ON t (k, v)")
    del decodes[:]
    db.execute("SELECT * FROM t WHERE v = 5")
    assert len(decodes) == 1 + 4
    del decodes[:]
    db.execute("SELECT * FROM t WHERE v = 5")
    assert decodes == []
    # Snapshots 1 and 2 now read the old page from one Pagelog slot.
    db.execute("SELECT AS OF 2 * FROM t WHERE v = 5")
    assert len(decodes) == 1 + 3
    del decodes[:]
    db.execute("SELECT AS OF 1 * FROM t WHERE v = 5")
    db.execute("SELECT AS OF 2 COUNT(*) FROM t")
    assert decodes == []


def test_a_point_lookup_on_a_cold_page_decodes_one_row(history, decodes):
    db = history
    forget_decoded_catalog(db)
    with context(db) as ctx:
        page = ctx._main_source.fetch(db._catalog_root(db.engine))
        assert ctx._main_catalog.get_table("t").name == "t"
        assert len(decodes) == 1
        assert page.node.entries is None     # filled nothing
        assert len(ctx._main_catalog.indexes_for("t")) == 2
        assert len(decodes) == 1 + 3                 # the full scan fills
        del decodes[:]
        assert ctx._main_catalog.get_table("t") \
            is ctx._main_catalog.list_tables()[0]
        assert ctx._main_catalog.get_index("T_V").columns == ["v"]
        assert decodes == []


def test_two_threads_reading_one_cold_catalog_page_agree(history):
    db = history
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            forget_decoded_catalog(db)
            barrier = threading.Barrier(2)
            seen, errors = [], []

            def read():
                try:
                    barrier.wait(timeout=30)
                    seen.append(looked_up(db, 1))
                except BaseException as exc:  # reported below
                    errors.append(exc)

            threads = [threading.Thread(target=read) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            (info_a, indexes_a), (info_b, indexes_b) = seen
            assert info_a == info_b and indexes_a == indexes_b
            assert [ix.name for ix in indexes_a] == ["__pk_t", "t_v"]
            # Racing fillers only repeat work: one memo wins and serves
            # every later reader.
            settled = looked_up(db, 2)
            assert settled[0] is looked_up(db)[0]
            assert settled[0] in (info_a, info_b)
    finally:
        sys.setswitchinterval(interval)
