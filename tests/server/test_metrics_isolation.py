"""Metering does not cross sessions, threads or runs.

A statement is charged for its own reads and nothing else: the sink is
named where the statement is opened (or is the opening facade's own
default) and travels with the page source, so the engines — which every
session of a :class:`SharedStore` shares — hold none.

The interference is deterministic, no sleeps: session A's Qq calls a UDF
registered on A's facade that, once per snapshot and in the middle of
A's scan, makes session B run ``SELECT AS OF 1 ...`` on another thread
and joins it.  B reads a table A never touches, so the two share no
snapshot-cache entry, and the per-iteration counters of A's run must
equal those of the same run on an identical store where the UDF does
nothing.
"""

from __future__ import annotations

import threading

import pytest

from repro.retro.metrics import MetricsSink
from repro.server import SharedStore

QS = "SELECT snap_id FROM SnapIds ORDER BY snap_id"
QQ = "SELECT k, v, poke(current_snapshot()) FROM t WHERE v >= 0"
INTRUDER = "SELECT AS OF 1 COUNT(*), SUM(w) FROM u"
SNAPSHOTS = 6


class World:
    """Two sessions over one store with a six-snapshot history of two
    tables: ``t`` is session A's, ``u`` only session B ever reads."""

    def __init__(self, interfere: bool) -> None:
        self.store = SharedStore(gate_timeout=30.0)
        self.a = self.store.open_session("a")
        self.b = self.store.open_session("b")
        self.interfere = interfere
        self.poked = []
        self.intruder_results = []
        self.a.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
        self.a.execute("CREATE TABLE u (k INTEGER PRIMARY KEY, w INTEGER)")
        for sid in range(1, SNAPSHOTS + 1):
            self.grow(sid)
        self.a.db.register_function("poke", self.poke)
        self.retro.cache.clear()

    @property
    def retro(self):
        return self.store.engine.retro

    def grow(self, sid: int) -> None:
        with self.a.transaction(with_snapshot=True):
            for n in range(40):
                key = sid * 100 + n
                self.a.execute(f"INSERT INTO t VALUES ({key}, {n})")
                self.a.execute(f"INSERT INTO u VALUES ({key}, {n})")
            self.a.execute(f"UPDATE t SET v = v + 1 WHERE k < {sid * 100}")
            self.a.execute(f"UPDATE u SET w = w + 1 WHERE k < {sid * 100}")

    def poke(self, sid):
        """Once per snapshot of a run: B queries from its own thread
        while A's statement is open and half consumed."""
        if self.interfere and sid not in self.poked:
            self.poked.append(sid)
            thread = threading.Thread(target=self.intrude)
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
        return 0

    def intrude(self) -> None:
        self.intruder_results.append(self.b.execute(INTRUDER).rows)

    def close(self) -> None:
        self.a.close()
        self.b.close()
        self.store.close()


@pytest.fixture
def worlds():
    solo, crowded = World(interfere=False), World(interfere=True)
    yield solo, crowded
    for world in (solo, crowded):
        assert world.store.open_reader_count() == 0
        assert_engines_hold_no_sink(world)
        world.close()


def counters(iterations):
    return [(it.snapshot_id, it.pagelog_reads, it.cache_hits, it.db_reads,
             it.spt_entries_scanned, it.qq_rows) for it in iterations]


def unsplit(rows):
    """Snapshot pages fetched, whichever of two racing workers paid the
    Pagelog read and whichever then hit the cache."""
    return [(sid, pagelog + hits, db, spt, qq_rows)
            for sid, pagelog, hits, db, spt, qq_rows in rows]


def assert_engines_hold_no_sink(world) -> None:
    for engine in (world.store.engine, world.store.aux_engine):
        for holder in (engine, engine.retro, engine.retro.cache):
            held = [name for name, value in vars(holder).items()
                    if isinstance(value, MetricsSink)]
            assert held == [], (holder, held)


def assert_intruder_ran(crowded, times: int) -> None:
    assert len(crowded.intruder_results) == times
    assert len(set(map(repr, crowded.intruder_results))) == 1
    assert crowded.intruder_results[0][0][0] == 40


@pytest.mark.parametrize("workers", [1, 2], ids=["serial-loop", "workers-2"])
def test_a_run_is_charged_for_its_own_reads_only(worlds, workers):
    solo, crowded = worlds
    results = [
        world.a.collate_data(QS, QQ, "R", workers=workers)
        for world in worlds
    ]
    alone, together = (counters(r.metrics.iterations) for r in results)
    assert_intruder_ran(crowded, SNAPSHOTS)
    assert [row[0] for row in alone] == list(range(1, SNAPSHOTS + 1))
    # The run did read snapshots: the comparison is not 0 == 0.
    assert sum(row[1] for row in alone) > 0
    assert all(row[4] > 0 for row in alone[:-1])
    if workers == 1:
        assert together == alone
    else:
        assert unsplit(together) == unsplit(alone)
    assert (crowded.a.execute('SELECT * FROM "R"').rows
            == solo.a.execute('SELECT * FROM "R"').rows)


def test_a_view_refresh_reports_its_own_reads_only(worlds):
    solo, crowded = worlds
    reports = []
    for world in worlds:
        world.a.create_materialized_view("mv", "CollateData", QQ)
        world.poked.clear()
        world.intruder_results.clear()
        world.grow(SNAPSHOTS + 1)
        world.grow(SNAPSHOTS + 2)
        world.retro.cache.clear()
        reports.append(world.a.refresh_view("mv"))
    alone, together = reports
    assert_intruder_ran(crowded, 2)
    assert alone.mode == together.mode == "delta"
    assert alone.evaluated_snapshots == 2
    assert alone.pagelog_reads > 0
    assert (together.pagelog_reads, together.cache_hits, together.db_reads,
            together.qq_rows) \
        == (alone.pagelog_reads, alone.cache_hits, alone.db_reads,
            alone.qq_rows)


def test_the_udf_form_meters_its_iterations_and_nothing_after(worlds):
    solo, crowded = worlds
    call = (f"SELECT CollateData(snap_id, '{QQ}', 'Udf') FROM SnapIds "
            f"ORDER BY snap_id")
    for world in worlds:
        world.a.execute(call)
    sinks = [world.a.udf_metrics("CollateData", QQ, "Udf")
             for world in worlds]
    alone, together = (counters(sink.iterations) for sink in sinks)
    assert_intruder_ran(crowded, SNAPSHOTS)
    assert [row[0] for row in alone] == list(range(1, SNAPSHOTS + 1))
    assert sum(row[1] for row in alone) > 0
    assert together == alone
    # The form's sink belongs to its iterations: statements that come
    # after it, on this session or another, add nothing to it.
    crowded.a.execute("SELECT AS OF 2 COUNT(*) FROM t")
    crowded.b.execute("SELECT AS OF 2 COUNT(*) FROM t")
    crowded.a.collate_data(QS, "SELECT k FROM t", "After")
    assert counters(sinks[1].iterations) == alone
    assert crowded.a.db.metrics is None


def test_a_facade_default_sink_is_facade_local(worlds):
    """``attach_metrics`` is the default of one facade: plain statements
    of that session meter into it, another session's never do."""
    _, world = worlds
    sink = MetricsSink()
    world.a.db.attach_metrics(sink)
    try:
        world.b.execute("SELECT AS OF 1 COUNT(*) FROM u")
        assert sink.iterations == []
        assert_engines_hold_no_sink(world)
        world.a.execute("SELECT AS OF 1 COUNT(*) FROM t")
        (only,) = sink.iterations
        assert only.pagelog_reads + only.cache_hits + only.db_reads > 0
        assert only.spt_entries_scanned > 0
    finally:
        world.a.db.attach_metrics(None)
