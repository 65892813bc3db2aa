"""Snapshot-set execution, every mechanism call's one path (paper
Section 7, "parallelize the computation over the snapshot set").

This module partitions the Qs snapshot ids into **contiguous runs** and
steps a private :class:`~repro.core.folds.Fold` over each partition
(:func:`~repro.core.folds.fold_range`), in partition order, on the
calling thread.  Every partition reads through the run's one run reader
(``Database.run_reader``: its read contexts opened once, at the run's
start, so the whole run reads as of that start) and is charged to a
private :class:`~repro.retro.metrics.MetricsSink`, from which the
simulated makespan of a partitioned run is computed.  The per-partition
folds are then merged left to right (``Fold.merge``) and the result
table is written once (:func:`~repro.core.folds.write_result`).

Contiguous partitioning is what keeps the merges simple: each partition
is an unbroken slice of the iteration order, so only the two boundary
snapshots of adjacent partitions interact — and it preserves the
hot-iteration page sharing the paper measures, since consecutive
snapshots share most Pagelog slots.

**One runner rule**, decided in :meth:`ParallelExecutor.run` and
nowhere else: two or more partitions need a certificate whose class is
the fold's class; one partition never does.  Every run certifies itself
against the live catalog (:func:`certify`, the rqlint merge-class
analysis) before it reads Qs.  A certified class that is the mechanism's
(``concat``, ``monoid``, ``stored-row`` or ``interval-stitch``) splits
Qs into ``min(workers, len(Qs))`` partitions; any other verdict —
``serial-only`` for a non-monoid aggregate, a non-mergeable column
function, a stateful builtin in the Qq — runs as one partition, which
steps Qq over the snapshots in serial order and re-associates nothing.
The certified class is recorded on :class:`ParallelRunInfo`, so a
one-partition run shows why it was not split.

Equivalence with the reference mechanisms is proven by the differential
harness in ``tests/core/test_parallel_equivalence.py``; the runner rule
over every runnable corpus entry, serial-only ones included, by
``tests/core/test_parallel_certificates.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.core.folds import (
    Fold,
    Mechanism,
    find_mechanism,
    fold_range,
    write_result,
)
from repro.core.mechanisms import (
    RQLResult,
    _quote,
    build_result,
    result_index_name,
)
from repro.core.rewrite import (
    PreparedQq,
    check_result_names,
    prepare_qq,
    validate_qs,
)
from repro.errors import MechanismError, QueryCancelled
from repro.retro.metrics import MetricsSink
from repro.sql.certify import (
    MergeCertificate,
    certify_mechanism,
    certify_select,
)
from repro.sql.database import Database
from repro.sql.semantic import ContextSchema


def certify(db: Database, mechanism: str, qs: str,
            qq: Union[str, PreparedQq], arg=None) -> MergeCertificate:
    """Merge certificate for one invocation (``qq``: text, or the
    prepared Qq whose parse it shares), against the live catalog."""
    with db.reading() as ctx:
        schema = ContextSchema(ctx)
        if isinstance(qq, PreparedQq):
            return certify_select(mechanism, qs, qq.statement, arg=arg,
                                  schema=schema)
        return certify_mechanism(mechanism, qs, qq, arg=arg, schema=schema)


def partition_snapshots(snapshot_ids: Sequence[int],
                        workers: int) -> List[List[int]]:
    """Split ``snapshot_ids`` into at most ``workers`` contiguous runs.

    Sizes differ by at most one, earlier partitions taking the extra
    element; iteration order within and across partitions is preserved.
    """
    if workers < 1:
        raise MechanismError("workers must be >= 1")
    count = len(snapshot_ids)
    parts = min(workers, count)
    partitions: List[List[int]] = []
    if parts == 0:
        return partitions
    base, extra = divmod(count, parts)
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        partitions.append(list(snapshot_ids[start:start + size]))
        start += size
    return partitions


@dataclass
class ParallelRunInfo:
    """Telemetry for one run of the executor.

    ``merge_class`` is the certified class the runner rule read: a run
    whose class is not its mechanism's is one partition, whatever
    ``workers`` asked for.
    """

    workers: int
    merge_class: str
    partitions: List[List[int]] = field(default_factory=list)
    worker_sinks: List[MetricsSink] = field(default_factory=list)
    merge_seconds: float = 0.0


class ParallelExecutor:
    """Runs one RQL mechanism over contiguous snapshot partitions.

    The executor never runs while a write transaction is open: a run
    reads through a run reader, which never looks at the session's
    transactions.  ``cancel`` is an event (client disconnect, server
    shutdown) whose ``is_set()`` the run polls.
    """

    def __init__(self, db: Database, workers: int = 2,
                 clock: Optional[Callable[[], float]] = None,
                 cancel=None) -> None:
        if workers < 1:
            raise MechanismError("workers must be >= 1")
        self.db = db
        self.workers = workers
        self._clock = clock if clock is not None else time.perf_counter
        #: external cancel event (client disconnect / server shutdown)
        self._cancel = cancel

    def run(self, mechanism: str, qs: str, qq: str, table: str,
            arg=None, persistent: bool = False) -> RQLResult:
        """Refuse an open transaction, drop a stale T, certify the run,
        partition Qs by the runner rule, fold each partition, merge the
        folds left to right, write T once."""
        spec = find_mechanism(mechanism)
        self._check_idle()
        # A malformed call is refused before the stale T is dropped.
        spec.fold(arg)
        validate_qs(qs)
        # One parse for the certificate and every partition: they share
        # its plan memo and the leaf filter the memo's plan holds.
        prepared = prepare_qq(qq)
        check_result_names(prepared)
        self.db.execute(f"DROP TABLE IF EXISTS {_quote(table)}")
        merge_class = certify(self.db, spec.name, qs, prepared,
                              arg).merge_class
        snapshot_ids = [int(row[0]) for row in self.db.execute(qs).rows]
        # The runner rule: only a certified merge law may re-associate.
        partitions = partition_snapshots(
            snapshot_ids,
            self.workers if merge_class == spec.merge_class else 1)
        folds, sinks = self._run_partitions(partitions, spec, arg,
                                            prepared)
        clock = self._clock
        merge_started = clock()
        result = None
        if folds:
            merged = folds[0]
            for fold in folds[1:]:
                merged.merge(fold)
            result = merged.result()
        if result is not None:
            with self.db.transaction():
                write_result(self.db, table, result, persistent)
        info = ParallelRunInfo(
            workers=self.workers, merge_class=merge_class,
            partitions=partitions,
            worker_sinks=sinks,
            merge_seconds=clock() - merge_started,
        )
        sink = self._new_sink(0)
        for worker_sink in info.worker_sinks:
            sink.adopt(worker_sink.iterations)
        indexed = result is not None and result.index_columns
        return build_result(
            self.db, table, snapshot_ids, sink,
            result_index_name(table) if indexed else None,
            result.helpers if result is not None else frozenset(),
            parallel=info,
        )

    # -- partition machinery ------------------------------------------------

    def _check_idle(self) -> None:
        """Else T would be dropped and written in the caller's txn."""
        if self.db._in_explicit_txn or self.db._main.txn is not None \
                or self.db._aux.txn is not None:
            raise MechanismError(
                "a retrospective query cannot run inside an open "
                "transaction; COMMIT or ROLLBACK first"
            )

    def _new_sink(self, worker: int) -> MetricsSink:
        sink = MetricsSink(clock=self._clock)
        sink.worker = worker
        return sink

    def _run_partitions(self, partitions: List[List[int]], spec: Mechanism,
                        arg, prepared: PreparedQq,
                        ) -> Tuple[List[Fold], List[MetricsSink]]:
        """Step a private fold over each partition, in partition order,
        on the calling thread, every partition reading through the one
        run reader opened here: the run reads as of its start.

        The first error propagates, so it is the first in partition
        order.  The external cancel event (client disconnect) is polled
        before every snapshot and again after each partition, and
        surfaces as :class:`~repro.errors.QueryCancelled`.
        """
        cancel = self._cancel

        def poll() -> None:
            if cancel is not None and cancel.is_set():
                raise QueryCancelled("query cancelled")

        poll()
        folds: List[Fold] = []
        sinks: List[MetricsSink] = []
        with self.db.run_reader() as reader:
            for index, sids in enumerate(partitions):
                fold = spec.fold(arg, first=index == 0)
                sink = self._new_sink(index + 1)
                fold_range(reader, prepared, sids, fold, sink, poll)
                poll()
                folds.append(fold)
                sinks.append(sink)
        return folds, sinks
