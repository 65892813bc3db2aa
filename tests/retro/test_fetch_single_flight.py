"""Concurrent snapshot readers missing the same Pagelog slot read it once.

Partition workers share one snapshot page cache keyed by Pagelog slot.
A miss marks the slot in flight: a second reader that misses it before
the first read lands waits for that read and counts a cache hit, so a
parallel run reads exactly the pages a serial run reads.  A checksum
failure is not shared: it raises in every reader that asks.

The stubbed ``Pagelog.read`` makes the interleaving deterministic: the
first read is held until the second reader has missed the slot too.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.session import RQLSession
from repro.errors import CorruptPageError
from repro.retro.metrics import MetricsSink
from repro.storage.btree import BTree
from repro.storage.disk import SimulatedDisk
from repro.storage.engine import StorageEngine
from repro.storage.record import encode_key, encode_record

DEADLINE_S = 5.0


@pytest.fixture
def archived():
    """An engine whose snapshot 1 is fully archived: every page of the
    tree was rewritten after the declaration."""
    engine = StorageEngine(SimulatedDisk(4096))
    txn = engine.begin()
    tree = BTree.create(engine.page_source(txn))
    root = tree.root_id
    for i in range(50):
        tree.insert(encode_key((i,)), encode_record((i,)))
    sid = engine.commit(txn, declare_snapshot=True)
    txn = engine.begin()
    tree = BTree(engine.page_source(txn), root)
    for i in range(50):
        tree.insert(encode_key((i,)), encode_record((i + 1000,)))
    engine.commit(txn)
    engine.retro.cache.clear()
    return engine, root, sid


def _held_read(engine, monkeypatch, reads, corrupt=False):
    """A ``Pagelog.read`` that holds its first call until a second
    reader has missed the slot: it waits for the first read to land
    or, unfixed, reads the slot itself."""
    real_read = engine.retro.pagelog.read
    landed = engine.retro.cache._landed
    real_wait = landed.wait
    waiting = threading.Event()

    def wait(*args):
        waiting.set()
        return real_wait(*args)

    def read(slot):
        reads.append(slot)
        if len(reads) == 1:
            deadline = time.monotonic() + DEADLINE_S
            while not waiting.is_set() and len(reads) < 2:
                assert time.monotonic() < deadline, "second reader stuck"
                time.sleep(0.001)
        image = real_read(slot)
        return bytes(len(image)) if corrupt else image

    monkeypatch.setattr(landed, "wait", wait)
    monkeypatch.setattr(engine.retro.pagelog, "read", read)


def _fetch_in_two_threads(engine, sid, page_id):
    """Fetch ``page_id`` as of ``sid`` from two threads, each with its
    own source and sink; returns per-thread (page or error, sink)."""
    outcomes = [None, None]

    def reader(index):
        sink = MetricsSink()
        ctx = engine.begin_read()
        try:
            sink.begin_iteration(sid)
            source = engine.snapshot_source(sid, ctx, metrics=sink)
            try:
                outcomes[index] = (source.fetch(page_id), sink)
            except CorruptPageError as exc:
                outcomes[index] = (exc, sink)
            finally:
                sink.end_iteration()
        finally:
            ctx.close()

    threads = [threading.Thread(target=reader, args=(i,)) for i in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(DEADLINE_S * 2)
    assert not any(thread.is_alive() for thread in threads)
    return outcomes


def test_concurrent_miss_waits_for_the_first_read(archived, monkeypatch):
    engine, root, sid = archived
    reads = []
    _held_read(engine, monkeypatch, reads)
    outcomes = _fetch_in_two_threads(engine, sid, root)
    (first, first_sink), (second, second_sink) = outcomes
    assert len(reads) == 1
    assert first is second
    metrics = [first_sink.iterations[0], second_sink.iterations[0]]
    assert sorted(m.pagelog_reads for m in metrics) == [0, 1]
    assert sorted(m.cache_hits for m in metrics) == [0, 1]
    assert (engine.retro.cache.hits, engine.retro.cache.misses) == (1, 1)


def test_checksum_failure_raises_in_every_reader(archived, monkeypatch):
    engine, root, sid = archived
    reads = []
    _held_read(engine, monkeypatch, reads, corrupt=True)
    outcomes = _fetch_in_two_threads(engine, sid, root)
    assert all(isinstance(got, CorruptPageError) for got, _ in outcomes)
    # The waiter retried after the failed read and failed on its own.
    assert reads == [reads[0], reads[0]]
    assert len(engine.retro.cache) == 0
    assert (engine.retro.cache.hits, engine.retro.cache.misses) == (0, 2)


def _total_pagelog_reads(session, workers):
    session.db.engine.retro.cache.clear()
    result = session.collate_data(
        "SELECT snap_id FROM SnapIds", "SELECT k, v FROM t", "r",
        workers=workers)
    session.execute("DROP TABLE r")
    return sum(m.pagelog_reads for m in result.metrics.iterations)


def test_partitioned_run_reads_what_a_serial_run_reads():
    session = RQLSession()
    session.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
    for i in range(300):
        session.execute(f"INSERT INTO t VALUES ({i}, {i})")
    for snap in range(8):
        with session.transaction(with_snapshot=True, name=f"s{snap}"):
            session.execute(f"UPDATE t SET v = v + 1 WHERE k % 8 = {snap}")
    serial = _total_pagelog_reads(session, 1)
    assert serial > 0
    for _ in range(5):
        assert _total_pagelog_reads(session, 4) == serial
    session.close()
