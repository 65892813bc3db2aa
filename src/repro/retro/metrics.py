"""Cost instrumentation for snapshot computations.

The paper explains every figure with a per-iteration breakdown: Pagelog
I/O, SPT build, query evaluation, index creation, and RQL UDF processing.
:class:`IterationMetrics` holds one iteration's counters and timers;
:class:`MetricsSink` collects iterations for a whole RQL query.

Simulated seconds combine measured CPU time with deterministic per-I/O
charges so the *shape* of every figure is reproducible run to run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional


@dataclass
class IoCharges:
    """Per-operation simulated costs (mirrors the paper's SSD/RAM split)."""

    pagelog_read_seconds: float = 1e-4
    db_read_seconds: float = 2e-6
    spt_entry_seconds: float = 2e-6
    cache_hit_seconds: float = 1e-6


@dataclass
class IterationMetrics:
    """Cost breakdown for one snapshot iteration of an RQL query."""

    snapshot_id: int = 0
    #: pages fetched from the Pagelog on a cache miss (true snapshot I/O)
    pagelog_reads: int = 0
    #: snapshot pages served from the snapshot page cache
    cache_hits: int = 0
    #: pages shared with (and fetched from) the current-state database
    db_reads: int = 0
    #: Maplog/Skippy entries scanned while building the SPT
    spt_entries_scanned: int = 0
    #: rows the rewritten Qq produced for this snapshot
    qq_rows: int = 0
    #: partition that evaluated this iteration (0 = the reference loop)
    worker: int = 0
    #: measured wall-clock seconds per phase
    spt_build_seconds: float = 0.0
    query_eval_seconds: float = 0.0
    index_creation_seconds: float = 0.0
    udf_seconds: float = 0.0

    def copy(self) -> "IterationMetrics":
        return replace(self)

    def io_seconds(self, charges: IoCharges) -> float:
        return (
            self.pagelog_reads * charges.pagelog_read_seconds
            + self.db_reads * charges.db_read_seconds
            + self.cache_hits * charges.cache_hit_seconds
        )

    def spt_seconds(self, charges: IoCharges) -> float:
        return (
            self.spt_build_seconds
            + self.spt_entries_scanned * charges.spt_entry_seconds
        )

    def total_seconds(self, charges: IoCharges) -> float:
        return (
            self.io_seconds(charges)
            + self.spt_seconds(charges)
            + self.query_eval_seconds
            + self.index_creation_seconds
            + self.udf_seconds
        )

    def breakdown(self, charges: IoCharges) -> Dict[str, float]:
        """The paper's bar-chart components, in seconds."""
        return {
            "io": self.io_seconds(charges),
            "spt_build": self.spt_seconds(charges),
            "index_creation": self.index_creation_seconds,
            "query_eval": self.query_eval_seconds,
            "rql_udf": self.udf_seconds,
        }


class MetricsSink:
    """Collects per-iteration metrics across an RQL query run."""

    def __init__(self, charges: Optional[IoCharges] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.charges = charges or IoCharges()
        #: monotonic clock used for every timing in this sink; injectable
        #: so tests can assert on exact, deterministic durations
        self.clock: Callable[[], float] = clock or time.perf_counter
        self.iterations: List[IterationMetrics] = []
        self._current: Optional[IterationMetrics] = None
        #: worker id stamped onto iterations begun through this sink
        self.worker = 0

    # -- iteration lifecycle ------------------------------------------------

    def begin_iteration(self, snapshot_id: int) -> IterationMetrics:
        self._current = IterationMetrics(snapshot_id=snapshot_id,
                                         worker=self.worker)
        self.iterations.append(self._current)
        return self._current

    def adopt(self, iterations: Iterable[IterationMetrics]) -> None:
        """Append already-finished iterations (per-worker sink merging)."""
        self.iterations.extend(iterations)

    @property
    def current(self) -> IterationMetrics:
        if self._current is None:
            self._current = IterationMetrics()
            self.iterations.append(self._current)
        return self._current

    def end_iteration(self) -> None:
        self._current = None

    # -- aggregate views --------------------------------------------------------

    def total_seconds(self) -> float:
        return sum(it.total_seconds(self.charges) for it in self.iterations)

    def total_pagelog_reads(self) -> int:
        return sum(it.pagelog_reads for it in self.iterations)

    def cold(self) -> Optional[IterationMetrics]:
        """The first (cold) iteration, if any."""
        return self.iterations[0] if self.iterations else None

    def hot(self) -> List[IterationMetrics]:
        """All iterations after the first (the hot ones)."""
        return self.iterations[1:]

    def mean_hot_seconds(self) -> float:
        hot = self.hot()
        if not hot:
            return 0.0
        return sum(it.total_seconds(self.charges) for it in hot) / len(hot)

    def summary(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "iterations": float(len(self.iterations)),
            "total_seconds": self.total_seconds(),
            "pagelog_reads": float(self.total_pagelog_reads()),
            "cache_hits": float(sum(i.cache_hits for i in self.iterations)),
            "db_reads": float(sum(i.db_reads for i in self.iterations)),
            "qq_rows": float(sum(i.qq_rows for i in self.iterations)),
        }
        return out

    def __iter__(self) -> Iterator[IterationMetrics]:
        return iter(self.iterations)


class Timer:
    """Context manager adding elapsed clock time to a metrics attribute."""

    def __init__(self, metrics: IterationMetrics, attribute: str,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self._metrics = metrics
        self._attribute = attribute
        self._clock = clock or time.perf_counter
        self._start = 0.0

    def __enter__(self) -> "Timer":
        self._start = self._clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = self._clock() - self._start
        current = getattr(self._metrics, self._attribute)
        setattr(self._metrics, self._attribute, current + elapsed)
