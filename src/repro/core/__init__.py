"""RQL: the paper's contribution — mechanisms, rewrite, SnapIds, session."""

from repro.core.mechanisms import RQLResult
from repro.core.parallel import (
    ParallelExecutor,
    ParallelRunInfo,
    partition_snapshots,
)
from repro.core.rewrite import (
    PreparedQq,
    prepare_qq,
    rewrite_qq,
    validate_qs,
    wrap_qs,
)
from repro.core.sortmerge import (
    SortMergeAggregateDataInTableRun,
    sort_merge_aggregate_data_in_table,
)
from repro.core.session import RQLSession
from repro.core.snapids import SNAPIDS_TABLE, SnapIds

__all__ = [
    "ParallelExecutor",
    "ParallelRunInfo",
    "PreparedQq",
    "RQLResult",
    "RQLSession",
    "SNAPIDS_TABLE",
    "SortMergeAggregateDataInTableRun",
    "sort_merge_aggregate_data_in_table",
    "SnapIds",
    "partition_snapshots",
    "prepare_qq",
    "rewrite_qq",
    "validate_qs",
    "wrap_qs",
]
