"""Shared fixtures.

The TPC-H fixtures are session-scoped and cached by configuration: the
histories are expensive to build, and every consumer treats them as
read-only (RQL queries never mutate application data; result tables are
dropped or uniquely named per test).
"""

from __future__ import annotations

import pytest

from repro.core import RQLSession
from repro.sql.database import Database
from repro.storage.disk import SimulatedDisk
from repro.storage.engine import StorageEngine
from repro.workloads import SnapshotHistoryBuilder, UW30, setup_paper_example

PAGE_SIZE = 4096


@pytest.fixture
def disk():
    return SimulatedDisk(PAGE_SIZE)


@pytest.fixture
def engine(disk):
    return StorageEngine(disk)


@pytest.fixture
def db():
    return Database()


@pytest.fixture
def session():
    return RQLSession()


@pytest.fixture
def paper_session():
    """A session with the paper's Figures 1-3 state (3 snapshots)."""
    rql = RQLSession()
    ids = setup_paper_example(rql)
    assert ids == [1, 2, 3]
    return rql


def full_database_dump(db):
    """Byte-level state of every table in both engines.

    Maps (engine, table) -> (columns, [(rowid, row), ...]) in physical
    scan order, plus per engine every index with its entries —
    ``(key values..., rowid)`` in index order, so an index maintained in
    place that lost an entry or kept a stale one differs from a rebuilt
    one — the equality the differential harnesses assert on.
    """
    from repro.sql.catalog import Catalog
    from repro.sql.executor import TableAccess
    from repro.storage.btree import BTree
    from repro.storage.record import decode_key

    dump = {}
    for engine, kind in ((db.engine, "main"), (db.aux_engine, "aux")):
        ctx = engine.begin_read()
        try:
            source = engine.read_source(ctx)
            catalog = Catalog(source, engine.pager.get_root("catalog"))
            for info in catalog.list_tables():
                rows = [
                    (rowid, tuple(row))
                    for rowid, row in TableAccess(info, source).scan()
                ]
                dump[(kind, info.name)] = (
                    tuple(info.column_names()), rows,
                )
            dump[(kind, "__indexes__")] = sorted(
                (ix.name, ix.table, tuple(ix.columns),
                 [decode_key(key) for key, _ in
                  BTree(source, ix.root_id).scan_all()])
                for ix in catalog.list_indexes()
            )
        finally:
            ctx.close()
    return dump


_TPCH_CACHE = {}


@pytest.fixture(scope="session")
def tpch_small():
    """A small TPC-H session with a UW30 history of 15 snapshots."""
    key = ("tpch_small",)
    if key not in _TPCH_CACHE:
        rql = RQLSession()
        builder = SnapshotHistoryBuilder(rql, scale_factor=0.001, seed=7)
        builder.load_initial()
        ids = builder.build_history(UW30, 15)
        _TPCH_CACHE[key] = (rql, builder, ids)
    return _TPCH_CACHE[key]
