"""The durable image is pinned, file by file.

Performance changes in this repository keep claiming "every counter
unchanged, only measured CPU moved".  Counters say how *many* pages
reached the simulated device, not *what* was in them.  This test says
what: a fixed, seeded script — TPC-H load, a UW30 history, two
table-backed mechanisms, an ``UPDATE``, a ``DELETE``, a checkpoint — and
then SHA-256 over every file of both simulated disks (database file, WAL,
Pagelog, Maplog, meta), compared with digests taken on the parent of the
commit that introduced the test, **before** ``storage/btree.py`` learned
to splice a cell into the page bytes instead of re-encoding the leaf.

A digest that moves means the bytes reaching WAL / Pagelog / Maplog / the
database file changed.  That can be intended (a new page layout, a new
catalog table): regenerate with ``python tests/storage/
test_disk_image_golden.py`` and say so in the change.  It is never
intended by a change that claims to touch only CPU.

Re-pinned once, on purpose: the four ``wal`` / ``meta`` digests moved
when a transaction that modified no page and freed none stopped
appending a WAL commit record (``table_writer`` opens a transaction on
both engines, so every mechanism iteration used to log an empty commit
on the engine it only read, and the meta page's commit timestamp counted
them).  The ``database``, ``pagelog`` and ``maplog`` digests of both
engines did not move with it, which is the point: the same pages, in the
same order, with the same bytes — only fewer commit records around them.

Re-pinned a second time, on purpose: every digest but the empty aux
Pagelog and Maplog moved when a single-column ``INTEGER PRIMARY KEY``
became the rowid, as in SQLite.  The ``__pk_`` trees of ``orders``,
``customer``, ``part``, ``supplier``, ``nation``, ``region`` and the
aux ``SnapIds`` table are gone (no pages, no catalog entries, no WAL
blocks or copy-on-write captures for them), and those tables' rows are
keyed by their key values instead of by insertion order.  ``lineitem``
keeps ``__pk_lineitem``: its key is composite.
"""

from __future__ import annotations

import hashlib
from typing import Dict

from repro.core import RQLSession
from repro.sql.database import Database
from repro.storage.disk import SimulatedDisk
from repro.workloads.driver import UW30, SnapshotHistoryBuilder

PAGE_SIZE = 4096
SCALE_FACTOR = 0.0004  # 600 orders: leaves split, 12 orders turn over a snapshot
SNAPSHOTS = 9

GOLDEN: Dict[str, str] = {
    "main/database": "accc5a8d99e4a0a6686ce21d240b91dda306c98a36d9dc0ddf01ad4edc98c302",
    "main/maplog": "787811b632fe7cd3097ae11e5a6beaad1941d0f5363f54547bacbb114ac829b2",
    "main/meta": "40ca9f0d52696dc58c83521e687e4c136d9df25b7f30f3f48fb0e674b464c40d",
    "main/pagelog": "7d8678ce82759216bcadcb20c3dc936e58018fde76d07360442e1c64c96c0a6a",
    "main/wal": "69c0e776d5a2180b8593d42c524dd5f083ec11c6e2b0005755fa196d02d33a56",
    "aux/database": "dd737ebbfd5e12824d6c47769b6859bd2579eecb3a789831068b4698a0f58c08",
    "aux/maplog": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "aux/meta": "74a99e70e300a5e82f0995aa16307845aaa9432bd8bc0f2ab87dd984ac469a66",
    "aux/pagelog": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "aux/wal": "48d6da7a28e006cfd0974af8e9f4e82a8525397e8ce65ae23abded51aa32440b",
}


def _digest(disk: SimulatedDisk, name: str) -> str:
    # Straight off the file's slot list: DiskFile.read would charge the
    # device statistics, and open_file wants the append_only flag back.
    sha = hashlib.sha256()
    for image in disk._files[name]._pages:
        sha.update(image)
    return sha.hexdigest()


def run_script() -> Dict[str, str]:
    """Run the pinned script; returns ``{"main/wal": sha256, ...}``."""
    main, aux = SimulatedDisk(PAGE_SIZE), SimulatedDisk(PAGE_SIZE)
    ticks = iter(range(1, 1000))
    session = RQLSession(
        db=Database(disk=main, aux_disk=aux, page_size=PAGE_SIZE),
        clock=lambda: f"2018-03-26 00:{next(ticks):02d}:00",
    )
    try:
        builder = SnapshotHistoryBuilder(session, scale_factor=SCALE_FACTOR,
                                         seed=17)
        builder.load_initial()
        declared = builder.build_history(UW30, SNAPSHOTS)
        assert len(declared) >= 8
        qs = "SELECT snap_id FROM SnapIds"
        # The reference loop: its per-snapshot writes are what the
        # pinned digests recorded.
        session.run_reference(
            "AggregateDataInTable", qs,
            "SELECT o_custkey, COUNT(*) AS cn, AVG(o_totalprice) AS av "
            "FROM orders GROUP BY o_custkey",
            "golden_fold", [("cn", "max"), ("av", "max")], persistent=True,
        )
        session.run_reference(
            "CollateDataIntoIntervals", qs,
            "SELECT o_orderkey, o_orderstatus FROM orders", "golden_spans",
        )
        with session.transaction(with_snapshot=True):
            # One replacement that shrinks its cells, one that grows them
            # until leaves split.
            session.execute(
                "UPDATE orders SET o_comment = 'golden' "
                "WHERE o_custkey < 20"
            )
            session.execute(
                f"UPDATE orders SET o_comment = '{'golden ' * 16}' "
                "WHERE o_custkey >= 40"
            )
        with session.transaction(with_snapshot=True):
            session.execute("DELETE FROM lineitem WHERE l_quantity > 45")
        session.execute("DELETE FROM golden_fold WHERE cn > 10")
        session.checkpoint()
        return {
            f"{label}/{name}": _digest(disk, name)
            for label, disk in (("main", main), ("aux", aux))
            for name in disk.file_names()
        }
    finally:
        session.close()


def test_every_durable_file_matches_its_golden_digest():
    assert run_script() == GOLDEN
    # The pin is only worth something if the script is deterministic: no
    # wall clock, hash order, id() or leftover process state in a durable
    # byte.  So a second run in the same process must match too (CI runs
    # this file under PYTHONHASHSEED=0; tier-1 under a random hash seed).
    assert run_script() == GOLDEN


if __name__ == "__main__":
    for key, value in run_script().items():
        print(f'    "{key}": "{value}",')
