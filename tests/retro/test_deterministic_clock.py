"""Deterministic metrics via the injectable monotonic clock.

``MetricsSink(clock=...)`` threads a fake clock through every timed
path — ``_run_qq`` / ``_timed_udf`` in the mechanisms, SPT builds in
the RetroManager, planner query evaluation and auto-index builds, and
the parallel executor's merge phase.  Two identical runs under a
ticking fake clock must therefore produce *exactly* equal metrics, and
a constant clock must zero every ``*_seconds`` field (any non-zero
value would mean a code path still reads ``time.perf_counter``
directly, the flakiness this seam removes).
"""

from __future__ import annotations

import dataclasses

from repro.core import RQLSession
from repro.core.mechanisms import (
    AggregateDataInVariableRun,
    CollateDataRun,
)
from repro.core.parallel import ParallelExecutor
from repro.retro.metrics import MetricsSink

QS = "SELECT snap_id FROM SnapIds ORDER BY snap_id"
QQ = "SELECT grp, val FROM events"

TIMING_FIELDS = ("spt_build_seconds", "query_eval_seconds",
                 "index_creation_seconds", "udf_seconds")


class TickingClock:
    """Monotonic fake: advances a fixed step on every reading."""

    def __init__(self, step: float = 0.001) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def _session() -> RQLSession:
    session = RQLSession()
    session.execute("CREATE TABLE events (grp, val)")
    for i in range(6):
        session.execute(f"INSERT INTO events VALUES ({i % 2}, {i})")
        session.declare_snapshot()
        session.execute(f"UPDATE events SET val = val + 1 "
                        f"WHERE grp = {i % 2}")
    return session


def _iteration_dicts(sink: MetricsSink):
    return [dataclasses.asdict(it) for it in sink.iterations]


def test_serial_collate_metrics_identical_under_fake_clock():
    runs = []
    for _ in range(2):
        session = _session()
        sink = MetricsSink(clock=TickingClock())
        CollateDataRun(session.db, QQ, "R", sink=sink).run(QS)
        runs.append(_iteration_dicts(sink))
    assert runs[0] == runs[1]
    # The fake clock actually drove the timers: every iteration charged
    # a positive, step-quantized query-eval duration.
    for it in runs[0]:
        assert it["query_eval_seconds"] > 0.0
        assert round(it["query_eval_seconds"] * 1000, 6) == int(
            round(it["query_eval_seconds"] * 1000)
        )


def test_timed_udf_finalize_is_deterministic():
    runs = []
    for _ in range(2):
        session = _session()
        sink = MetricsSink(clock=TickingClock())
        AggregateDataInVariableRun(
            session.db, "SELECT SUM(val) AS s FROM events", "R", "sum",
            sink=sink,
        ).run(QS)
        runs.append(_iteration_dicts(sink))
    assert runs[0] == runs[1]
    assert any(it["udf_seconds"] > 0.0 for it in runs[0])


def test_constant_clock_zeroes_every_timing_field_in_parallel_run():
    session = _session()
    executor = ParallelExecutor(session.db, workers=3, clock=lambda: 0.0)
    result = executor.run("CollateData", QS, QQ, "R")

    info = result.parallel
    assert info is not None and info.merge_seconds == 0.0
    assert len(info.worker_sinks) == 3
    sinks = list(info.worker_sinks) + [result.metrics]
    iterations = [it for sink in sinks for it in sink.iterations]
    assert iterations
    for it in iterations:
        for field in TIMING_FIELDS:
            assert getattr(it, field) == 0.0, (
                f"{field} leaked wall-clock time past the injected clock"
            )
    # Counter-based metrics are untouched by the clock seam.
    assert sum(it.qq_rows for it in result.metrics.iterations) > 0
