"""Snapshot-history construction: the paper's update workloads.

The paper's UW15 / UW30 delete-and-insert 15K / 30K orders per snapshot
against the SF-1 orders table (1.5M rows) — i.e. 1% / 2% of the table —
yielding overwrite cycles of ~100 / ~50 snapshots.  At simulation scale
the *fractions* are what matter, so :class:`UpdateWorkload` carries the
fraction and resolves the per-snapshot order count against the actual
table size.  All four workloads from the paper appear (UW7.5, UW15,
UW30, UW60).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.session import RQLSession
from repro.errors import WorkloadError
from repro.workloads.tpch.dbgen import GeneratorConfig, TpchGenerator
from repro.workloads.tpch.refresh import RefreshFunctions


@dataclass(frozen=True)
class UpdateWorkload:
    """A named per-snapshot update volume (paper Table 1 notation)."""

    name: str
    #: fraction of the orders table deleted+inserted per snapshot
    fraction: float

    @property
    def overwrite_cycle(self) -> int:
        """Snapshots until (approximately) every orders page is rewritten."""
        return round(1.0 / self.fraction)

    def orders_per_snapshot(self, total_orders: int) -> int:
        return max(1, round(self.fraction * total_orders))


#: Paper Table 1 / Section 5.3 workloads (fractions of the orders table;
#: at SF 1 these are exactly 7.5K/15K/30K/60K orders per snapshot).
UW7_5 = UpdateWorkload("UW7.5", 7_500 / 1_500_000)
UW15 = UpdateWorkload("UW15", 15_000 / 1_500_000)
UW30 = UpdateWorkload("UW30", 30_000 / 1_500_000)
UW60 = UpdateWorkload("UW60", 60_000 / 1_500_000)

WORKLOADS: Dict[str, UpdateWorkload] = {
    w.name: w for w in (UW7_5, UW15, UW30, UW60)
}


class SnapshotHistoryBuilder:
    """Loads TPC-H and builds a snapshot history under one workload."""

    def __init__(self, session: RQLSession,
                 scale_factor: float = 0.002,
                 seed: int = 7) -> None:
        self.session = session
        self.generator = TpchGenerator(
            GeneratorConfig(scale_factor=scale_factor, seed=seed)
        )
        self.refresh: Optional[RefreshFunctions] = None
        self._loaded = False

    # ------------------------------------------------------------------

    def load_initial(self) -> None:
        """dbgen the initial database state (no snapshots yet)."""
        if self._loaded:
            raise WorkloadError("initial state already loaded")
        self.generator.load(self.session.db)
        self.refresh = RefreshFunctions(self.session.db, self.generator,
                                        seed=self.generator.config.seed + 1)
        self._loaded = True

    def build_history(self, workload: UpdateWorkload,
                      snapshots: int) -> List[int]:
        """Declare ``snapshots`` snapshots, refreshing between each.

        Between two consecutive declarations a constant number of orders
        (the workload's fraction of the table) plus their lineitems are
        deleted and re-inserted, exactly as in the paper's setup.
        Returns the declared snapshot ids.
        """
        if not self._loaded or self.refresh is None:
            raise WorkloadError("call load_initial() first")
        per_snapshot = workload.orders_per_snapshot(
            self.generator.orders_count
        )
        declared: List[int] = []
        for _ in range(snapshots):
            with self.session.transaction(with_snapshot=True) as txn:
                self.refresh.refresh_pair(per_snapshot)
            declared.append(txn.snapshot_id)
        return declared

    # -- stats used by benches/tests -----------------------------------------------

    def orders_pages(self) -> int:
        """Page count of the orders table B+tree (current state)."""
        return self._table_pages(("orders",))

    def refreshed_pages(self) -> int:
        """Pages of the tables the refresh workload rewrites."""
        return self._table_pages(("orders", "lineitem"))

    def _table_pages(self, tables) -> int:
        with self.session.db.reading() as ctx:
            total = 0
            for name in tables:
                table = ctx.find_table(name)
                if table is None:
                    raise WorkloadError(f"{name} table missing")
                total += len(table.tree.page_ids())
                for index in ctx.open_indexes(table):
                    total += len(index.tree.page_ids())
            return total

    def measured_overwrite_cycle(self, workload: UpdateWorkload,
                                 probe_snapshots: int = 10) -> float:
        """Empirical overwrite-cycle estimate from Maplog capture rates.

        A snapshot's pages are fully rewritten once the refresh window
        has slid across the whole orders/lineitem key range; the capture
        rate per epoch approximates the per-snapshot page turnover.
        """
        maplog = self.session.db.engine.retro.maplog
        epoch = maplog.current_epoch
        if epoch < probe_snapshots + 1:
            raise WorkloadError("history too short to probe")
        pages = self.refreshed_pages()
        captured = sum(
            maplog.captures_in_epoch(e)
            for e in range(epoch - probe_snapshots, epoch)
        ) / probe_snapshots
        if captured == 0:
            return float("inf")
        return pages / captured
