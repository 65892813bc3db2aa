"""Concurrency stress for the latched BufferPool.

N threads hammer one small pool with mixed fetch/install traffic under
constant capacity pressure (evictions on nearly every admit; nobody
pins, so a fetched page may be evicted while its reader still holds it —
the test's name predates that).  Invariants checked after the storm:

* a fetched page is the page asked for, whoever evicts meanwhile;
* no lost write-backs — each thread owns a disjoint page range, and
  after a final flush the disk holds the owner's last write for every
  page it touched;
* the pool never exceeds capacity and stays internally consistent.

The latch order is the leaf-level ``BufferPool._latch`` only (RPL011
verifies the global ``Pager._latch -> BufferPool._latch`` order stays
acyclic).
"""

from __future__ import annotations

import threading

from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page

PAGE_SIZE = 4096
THREADS = 6
PAGES_PER_THREAD = 4
ROUNDS = 150
CAPACITY = 8  # << total pages: evictions on nearly every admit


def _payload(thread: int, round_: int) -> bytes:
    body = f"t{thread}-r{round_}".encode()
    return body + b"\x00" * (PAGE_SIZE - len(body))


def test_mixed_fetch_unpin_evict_storm_keeps_invariants():
    disk = SimulatedDisk(PAGE_SIZE)
    db_file = disk.open_file("db")
    total_pages = THREADS * PAGES_PER_THREAD
    for page_id in range(total_pages):
        db_file.write(page_id, _payload(99, 0))
    pool = BufferPool(db_file, capacity=CAPACITY)

    last_write = [dict() for _ in range(THREADS)]
    errors = []
    start = threading.Barrier(THREADS)

    def body(thread: int) -> None:
        own = range(thread * PAGES_PER_THREAD,
                    (thread + 1) * PAGES_PER_THREAD)
        try:
            start.wait()
            for round_ in range(ROUNDS):
                # Read someone else's page.
                victim = ((thread + 1) * PAGES_PER_THREAD
                          + round_) % total_pages
                assert pool.fetch(victim).page_id == victim
                # Overwrite one of our own pages (dirties it; eviction
                # pressure forces write-backs of other threads' pages).
                mine = own[round_ % PAGES_PER_THREAD]
                payload = _payload(thread, round_)
                pool.install(Page(mine, bytearray(payload), PAGE_SIZE))
                last_write[thread][mine] = payload
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(t,))
               for t in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert errors == []
    with pool._latch:
        assert len(pool._pages) <= CAPACITY
    assert pool.stats.evictions > 0, "no capacity pressure exercised"

    # No lost write-backs: flush, then every owned page must hold its
    # owner's final payload.
    pool.flush_all()
    for thread in range(THREADS):
        for page_id, payload in last_write[thread].items():
            assert bytes(db_file.read(page_id)) == payload, \
                f"lost write-back on page {page_id}"
