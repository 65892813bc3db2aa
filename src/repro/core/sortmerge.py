"""Sort-merge AggregateDataInTable — the paper's discarded alternative.

Section 3: "We have also experimented with alternative Aggregate Data
in Table implementation using a sort-merge based algorithm that turned
out to be costlier."  This module implements that alternative so the
claim is reproducible (``benchmarks/test_ablation_sort_merge.py``):

* the result table carries **no index**;
* every subsequent iteration materializes the current result table,
  sorts it and the Qq output by the grouping columns, and merges —
  so each iteration rescans T, which is what makes it costlier than the
  index-probe implementation once T has any size.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.mechanisms import AggregateDataInTableRun
from repro.sql.types import row_sort_key


class SortMergeAggregateDataInTableRun(AggregateDataInTableRun):
    """AggregateDataInTable with per-iteration sort-merge combining."""

    def __init__(self, db, qq: str, table: str, col_func_pairs,
                 persistent: bool = False) -> None:
        super().__init__(db, qq, table, col_func_pairs, persistent)
        # No index on the result table in this variant.
        self.index_name = None
        #: result-table rows materialized across all merge iterations —
        #: the rescan work that the index-probe variant avoids
        self.rows_rescanned = 0

    def _timed_index(self, columns: Sequence[str]) -> float:
        return 0.0  # the first iteration inserts but builds no index

    def next_pass(self, columns: List[str], rows, snapshot_id: int) -> float:
        clock = self.sink.clock
        qq_rows = list(rows)
        self.sink.current.qq_rows += len(qq_rows)

        merge_started = clock()
        table, writer = self.db.table_writer(self.table)
        schema = self.schema

        def group_of(row: Sequence) -> tuple:
            return tuple(row[p] for p in schema.group_positions)

        # Materialize + sort the current result table (the rescan
        # that makes this variant costlier).
        stored: List[Tuple[tuple, int, tuple]] = sorted(
            ((group_of(row), rowid, row)
             for rowid, row in table.scan()),
            key=lambda item: row_sort_key(item[0]),
        )
        self.rows_rescanned += len(stored)
        incoming: List[Tuple[tuple, tuple]] = sorted(
            ((group_of(row), tuple(row)) for row in qq_rows),
            key=lambda item: row_sort_key(item[0]),
        )
        stored_index: Dict[tuple, Tuple[int, tuple]] = {}
        position = 0
        for group, qq_row in incoming:
            # Advance the stored cursor to the group (merge step).
            while position < len(stored) and \
                    row_sort_key(stored[position][0]) < \
                    row_sort_key(group):
                entry = stored[position]
                stored_index[entry[0]] = (entry[1], entry[2])
                position += 1
            while position < len(stored) and \
                    stored[position][0] == group:
                entry = stored[position]
                stored_index[entry[0]] = (entry[1], entry[2])
                position += 1
            match = stored_index.get(group)
            self.probes += 1
            if match is None:
                widened = schema.widen(qq_row)
                rowid = writer.insert(widened)
                stored_index[group] = (rowid, widened)
                self.rows_inserted += 1
            else:
                rowid, existing = match
                updated = schema.apply(existing, qq_row)
                if updated is not None:
                    writer.update(rowid, updated)
                    stored_index[group] = (rowid, updated)
                    self.updates_applied += 1
        return clock() - merge_started


def sort_merge_aggregate_data_in_table(db, qs: str, qq: str, table: str,
                                       col_func_pairs,
                                       persistent: bool = False):
    """Convenience entry point matching the mechanism call forms."""
    return SortMergeAggregateDataInTableRun(
        db, qq, table, col_func_pairs, persistent,
    ).run(qs)
