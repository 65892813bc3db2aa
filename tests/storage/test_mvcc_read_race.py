"""A commit landing inside one MVCC page read.

``StorageEngine._mvcc_read`` takes two unlatched steps: fetch the pool
page, then ask the version store for an image retained for the
reader's ``begin_ts``.  A commit retains the image it replaces before
it installs the new one (both under ``_commit_latch``), and installing
publishes a new page object (``BufferPool.put_raw``).  So whichever
step the commit lands after, a reader registered before the commit
reads the table as of its start.

Each case hooks one step, and right after it returns for the table's
root page commits a ``DELETE`` of half the rows from another facade
on the same engines: deterministic, no sleeps and no second thread.
"""

from __future__ import annotations

import pytest

from repro.sql.database import Database
from repro.sql.parser import parse_one

ROWS = 20


def _step(engine, step):
    """(object, attribute) of the hooked step of ``_mvcc_read``."""
    if step == "retained-lookup":
        return engine._versions, "read"
    return engine, "_fetch_committed"


@pytest.mark.parametrize("step", ["retained-lookup", "pool-fetch"])
def test_a_commit_after_one_step_of_a_read_stays_invisible(monkeypatch,
                                                           step):
    alice = Database()
    bob = Database(engine=alice.engine, aux_engine=alice.aux_engine)
    alice.execute("CREATE TABLE t (k INTEGER)")
    alice.execute("INSERT INTO t VALUES "
                  + ", ".join(f"({k})" for k in range(ROWS)))
    with alice.reading() as ctx:
        root = ctx.open_table("t").info.root_id
    target, name = _step(alice.engine, step)
    real = getattr(target, name)
    committed = []

    def hooked(page_id, *args):
        page = real(page_id, *args)
        if page_id == root and not committed:
            committed.append(page_id)
            bob.execute(f"DELETE FROM t WHERE k < {ROWS // 2}")
        return page

    with alice.run_reader() as reader:
        monkeypatch.setattr(target, name, hooked)
        _, rows = reader.cursor(parse_one("SELECT COUNT(*) FROM t"))
        counted = [tuple(row) for row in rows]
    monkeypatch.undo()

    assert committed == [root], "the hook never saw the table's root"
    assert counted == [(ROWS,)]
    assert alice.execute("SELECT COUNT(*) FROM t").scalar() == ROWS // 2
    assert alice.engine._versions.active_reader_count == 0
