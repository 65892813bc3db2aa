"""Pagelog and snapshot-page-cache tests."""

import pytest

from repro.errors import SnapshotError
from repro.retro.pagelog import Pagelog
from repro.retro.snapshot_cache import SnapshotPageCache
from repro.storage.disk import SimulatedDisk

PAGE = 256


def fresh_pagelog():
    disk = SimulatedDisk(PAGE)
    return Pagelog(disk.open_file("pagelog", append_only=True)), disk


class TestPagelog:
    def test_slots_are_stable_across_flush(self):
        pagelog, _ = fresh_pagelog()
        a = pagelog.append(b"a" * PAGE)
        b = pagelog.append(b"b" * PAGE)
        assert (a, b) == (0, 1)
        pagelog.flush()
        c = pagelog.append(b"c" * PAGE)
        assert c == 2
        assert pagelog.read(0) == b"a" * PAGE
        assert pagelog.read(2) == b"c" * PAGE

    def test_pending_reads_cost_no_io(self):
        pagelog, disk = fresh_pagelog()
        pagelog.append(b"x" * PAGE)
        before = disk.stats.log_reads
        pagelog.read(0)
        assert disk.stats.log_reads == before  # served from memory

    def test_durable_reads_charge_io(self):
        pagelog, disk = fresh_pagelog()
        pagelog.append(b"x" * PAGE)
        pagelog.flush()
        before = disk.stats.log_reads
        pagelog.read(0)
        assert disk.stats.log_reads == before + 1

    def test_flush_ordering_counts(self):
        pagelog, _ = fresh_pagelog()
        for i in range(5):
            pagelog.append(bytes([i]) * PAGE)
        assert pagelog.pending_slots == 5
        assert pagelog.flush() == 5
        assert pagelog.pending_slots == 0
        assert pagelog.durable_slots == 5

    def test_missing_slot(self):
        pagelog, _ = fresh_pagelog()
        with pytest.raises(SnapshotError):
            pagelog.read(0)

    def test_requires_append_only(self):
        disk = SimulatedDisk(PAGE)
        with pytest.raises(SnapshotError):
            Pagelog(disk.open_file("db"))

    def test_size_accounting(self):
        pagelog, _ = fresh_pagelog()
        pagelog.append(b"x" * PAGE)
        pagelog.append(b"y" * PAGE)
        pagelog.flush()
        pagelog.append(b"z" * PAGE)
        assert pagelog.total_slots == 3
        assert pagelog.size_bytes == 3 * PAGE
        assert pagelog.prestates_archived == 3


def fetch(cache, key, value=None):
    """``get_or_load`` of ``key``, loading ``value`` on a miss:
    ``(cached value, hit)``."""
    return cache.get_or_load(key, lambda v: v, value)


class TestSnapshotPageCache:
    def test_hit_miss(self):
        cache = SnapshotPageCache(4)
        assert fetch(cache, 1, b"a") == (b"a", False)
        assert fetch(cache, 1, b"z") == (b"a", True)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction(self):
        cache = SnapshotPageCache(2)
        fetch(cache, 1, b"a")
        fetch(cache, 2, b"b")
        fetch(cache, 1)  # refresh 1
        fetch(cache, 3, b"c")  # evicts 2
        assert cache.evictions == 1
        assert fetch(cache, 1) == (b"a", True)
        assert fetch(cache, 3) == (b"c", True)
        assert fetch(cache, 2, b"b2") == (b"b2", False)

    def test_zero_capacity_never_stores(self):
        cache = SnapshotPageCache(0)
        fetch(cache, 1, b"a")
        assert fetch(cache, 1, b"b") == (b"b", False)
        assert len(cache) == 0

    def test_clear(self):
        cache = SnapshotPageCache(4)
        fetch(cache, 1, b"a")
        cache.clear()
        assert len(cache) == 0
        assert fetch(cache, 1, b"b") == (b"b", False)

    def test_update_existing(self):
        # A load happens only on a miss, so a cached entry is never
        # replaced: the next reader of the key gets what is there.
        cache = SnapshotPageCache(2)
        fetch(cache, 1, b"a")
        assert fetch(cache, 1, b"b") == (b"a", True)
        assert len(cache) == 1

    def test_hit_rate(self):
        cache = SnapshotPageCache(2)
        fetch(cache, 1, b"a")
        fetch(cache, 1)
        assert cache.hit_rate() == 0.5
