"""Parallel snapshot-set execution (paper Section 7, "parallelize the
computation over the snapshot set").

The serial mechanisms iterate the Qs snapshot ids one by one.  This
module partitions those ids into **contiguous runs**, steps a private
:class:`~repro.core.folds.Fold` over each partition on its own worker
thread (:func:`~repro.core.folds.fold_range`) — each worker owns a
private :class:`~repro.retro.metrics.MetricsSink` and opens private
read-only contexts per iteration, so workers share nothing but the
(latched) buffer pool, snapshot page cache, and SPT cache — and then, on
the calling thread, merges the per-partition folds left to right
(``Fold.merge``) and writes the result table once
(:func:`~repro.core.folds.write_result`).

Contiguous partitioning is what keeps the merges simple: each worker
sees an unbroken slice of the iteration order, so only the two boundary
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

Equivalence with the serial mechanisms is proven by the differential
harness in ``tests/core/test_parallel_equivalence.py``; the runner rule
over every runnable corpus entry, serial-only ones included, by
``tests/core/test_parallel_certificates.py``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.core.folds import (
    Fold,
    Mechanism,
    find_mechanism,
    fold_range,
    write_result,
)
from repro.core.mechanisms import (
    RQLResult,
    build_result,
    result_index_name,
)
from repro.core.rewrite import validate_qs
from repro.errors import MechanismError, QueryCancelled
from repro.retro.metrics import MetricsSink
from repro.sql.database import Database


def certify(db: Database, mechanism: str, qs: str, qq: str, arg=None):
    """rqlint certificate for one invocation, against the live catalog.

    Imported lazily: certification is an analysis-layer concern and
    ``import repro.core`` must not drag the lint machinery in.
    """
    from repro.analysis.query.mergeclass import certify_mechanism
    from repro.sql.semantic import ContextSchema
    with db.reading() as ctx:
        return certify_mechanism(mechanism, qs, qq, arg=arg,
                                 schema=ContextSchema(ctx))


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


class _Partial:
    """One worker's partition outcome (``payload``: its private fold)."""

    def __init__(self, index: int, snapshot_ids: List[int],
                 sink: MetricsSink) -> None:
        self.index = index
        self.snapshot_ids = snapshot_ids
        self.sink = sink
        self.payload: Optional[Fold] = None


class _CancelScope:
    """The run's internal error-cancel joined with an external event.

    Workers poll ``is_set()`` between iterations; an externally supplied
    event (client disconnect, server shutdown) cancels the run without
    being confused with a worker error.
    """

    __slots__ = ("_local", "_external")

    def __init__(self, external: Optional[threading.Event] = None) -> None:
        self._local = threading.Event()
        self._external = external

    def set(self) -> None:
        self._local.set()

    def is_set(self) -> bool:
        if self._local.is_set():
            return True
        return self._external is not None and self._external.is_set()

    @property
    def cancelled_externally(self) -> bool:
        return self._external is not None and self._external.is_set()


class _ErrorBoard:
    """First-in-partition-order error, shared across worker threads."""

    def __init__(self, partitions: int) -> None:
        self._latch = threading.Lock()
        self._index = partitions
        self._error: Optional[BaseException] = None

    def record(self, index: int, error: BaseException) -> None:
        with self._latch:
            if index < self._index:
                self._index = index
                self._error = error

    def first_error(self) -> Optional[BaseException]:
        with self._latch:
            return self._error


class ParallelExecutor:
    """Runs one RQL mechanism over contiguous snapshot partitions.

    The executor never runs while a write transaction is open: workers
    read through private read contexts (main + aux), which is only safe
    when no writer can move the committed roots underneath them.
    """

    def __init__(self, db: Database, workers: int = 2,
                 clock: Optional[Callable[[], float]] = None,
                 cancel: Optional[threading.Event] = None) -> None:
        if workers < 1:
            raise MechanismError("workers must be >= 1")
        self.db = db
        self.workers = workers
        self._clock = clock if clock is not None else time.perf_counter
        #: external cancel event (client disconnect / server shutdown)
        self._cancel = cancel

    def run(self, mechanism: str, qs: str, qq: str, table: str,
            arg=None, persistent: bool = False) -> RQLResult:
        """Certify the run, partition Qs by the runner rule, fold each
        partition on a worker, merge the folds left to right, write T
        once."""
        spec = find_mechanism(mechanism)
        spec.fold(arg)  # reject a bad aggregate argument before threading
        self._check_idle()
        merge_class = certify(self.db, spec.name, qs, qq, arg).merge_class
        validate_qs(qs)
        snapshot_ids = [int(row[0]) for row in self.db.execute(qs).rows]
        # The runner rule: only a certified merge law may re-associate.
        partitions = partition_snapshots(
            snapshot_ids,
            self.workers if merge_class == spec.merge_class else 1)
        partials = self._run_partitions(partitions, spec, arg, qq)
        clock = self._clock
        merge_started = clock()
        result = None
        if partials:
            merged = partials[0].payload
            for partial in partials[1:]:
                merged.merge(partial.payload)
            result = merged.result()
        if result is not None:
            with self.db.transaction():
                write_result(self.db, table, result, persistent)
        info = ParallelRunInfo(
            workers=self.workers, merge_class=merge_class,
            partitions=partitions,
            worker_sinks=[p.sink for p in partials],
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

    # -- worker machinery ---------------------------------------------------

    def _check_idle(self) -> None:
        if self.db._in_explicit_txn or self.db._main.txn is not None \
                or self.db._aux.txn is not None:
            raise MechanismError(
                "parallel execution requires no open write transaction"
            )

    def _new_sink(self, worker: int) -> MetricsSink:
        sink = MetricsSink(clock=self._clock)
        sink.worker = worker
        return sink

    def _run_partitions(self, partitions: List[List[int]], spec: Mechanism,
                        arg, qq: str) -> List[_Partial]:
        """Step a private fold over each partition on worker threads;
        raises the first partition's error (in partition order) after
        every worker has stopped.

        Each partition gets its own short-lived thread, joined before
        this returns, for embedded sessions and server tickets alike.
        An external cancel event (client disconnect) surfaces as
        :class:`~repro.errors.QueryCancelled` once every worker has
        retired — never while a worker still runs.
        """
        if self._cancel is not None and self._cancel.is_set():
            raise QueryCancelled("query cancelled before admission")
        partials = [
            _Partial(i, sids, self._new_sink(i + 1))
            for i, sids in enumerate(partitions)
        ]
        board = _ErrorBoard(len(partials))
        cancel = _CancelScope(self._cancel)
        db = self.db

        def body(partial: _Partial) -> None:
            try:
                # Workers stop quietly on cancel, so the board keeps
                # the first *real* error; QueryCancelled is raised
                # below, once every worker has retired.
                fold = spec.fold(arg, first=partial.index == 0)
                fold_range(db, qq, partial.snapshot_ids, fold,
                           partial.sink, cancel.is_set)
                partial.payload = fold
            except BaseException as exc:
                board.record(partial.index, exc)  # re-raised after join
                cancel.set()
                if not isinstance(exc, Exception):
                    raise  # KeyboardInterrupt etc.: also let
                    # threading.excepthook report it immediately

        threads = [
            threading.Thread(target=body, args=(partial,),
                             name=f"rql-worker-{partial.index + 1}")
            for partial in partials
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        error = board.first_error()
        if error is not None:
            raise error
        if cancel.cancelled_externally:
            raise QueryCancelled(
                "query cancelled while partitions were running"
            )
        return partials
