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
    "main/database": "17c01d1d9fca4ff8a113a5d3004e777ec815017668153ba371d5d02ea0da4e56",
    "main/maplog": "5c1a252485d9b32e955c3f66f5e80f73deed070fb7a2bb350430bf9c7aab3385",
    "main/meta": "4fec073d901119132543b7c5bc43a3eb656836b3d11a0942ad57f41ba3f28745",
    "main/pagelog": "8b53eca4f1da4b2b497acf05f5c19b72939e9dea68e36cb313a4d00f3d8a208c",
    "main/wal": "44a17a353708f98849e8147ede21e9294f3f57f2b198e911a8fac6e73c853240",
    "aux/database": "229ab3a4b11565fd5e1920bbf60d0f701db8ef4d84e1613b38ba48893119b2df",
    "aux/maplog": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "aux/meta": "77d2cd0493a159a282d5ca8baaa53b81f43c35c90c74bba706b52aea9018e07a",
    "aux/pagelog": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "aux/wal": "1c1c3fa6b60c218b0180e927f82130deede9dcc770b353efa1ba1d3c31c6cc4b",
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
        workers=1,  # whatever RQL_WORKERS says
        clock=lambda: f"2018-03-26 00:{next(ticks):02d}:00",
    )
    try:
        builder = SnapshotHistoryBuilder(session, scale_factor=SCALE_FACTOR,
                                         seed=17)
        builder.load_initial()
        declared = builder.build_history(UW30, SNAPSHOTS)
        assert len(declared) >= 8
        qs = "SELECT snap_id FROM SnapIds"
        session.aggregate_data_in_table(
            qs,
            "SELECT o_custkey, COUNT(*) AS cn, AVG(o_totalprice) AS av "
            "FROM orders GROUP BY o_custkey",
            "golden_fold", [("cn", "max"), ("av", "max")], persistent=True,
        )
        session.collate_data_into_intervals(
            qs, "SELECT o_orderkey, o_orderstatus FROM orders",
            "golden_spans",
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
