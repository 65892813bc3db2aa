"""Ablation — serial loop vs the parallel partition/merge executor.

AggregateDataInVariable over 64 snapshots (UW30), serial vs
``workers=4``.  Cost accounting follows the suite's simulated device
model: a parallel run's makespan is the slowest worker's summed
iteration cost plus the serial merge phase
(:func:`repro.bench.harness.parallel_makespan_seconds`) — measured
thread wall-clock would be meaningless under the GIL, so worker
iterations are timed with ``time.thread_time`` (per-thread CPU) through
the executor's injectable clock, the deterministic-metrics seam the
test suite uses.

Why parallel wins: each worker pays ~1/workers of the snapshot
iterations, and the cold Pagelog I/O is shared through the snapshot
page cache (contiguous partitions preserve the paper's hot-iteration
page sharing), so the per-worker cold start does not multiply by the
worker count.
"""

import time

from repro.bench import BENCH_CHARGES, print_figure, run_rql
from repro.bench.figures import FigureResult, _env_fig6, OLD_START
from repro.bench.harness import QQ_IO, parallel_makespan_seconds
from repro.bench.report import save_figure
from repro.core.parallel import ParallelExecutor
from repro.workloads import UW30

SNAPSHOTS = 64
WORKERS = 4
TABLE = "par_speedup"


def run_parallel_speedup():
    env = _env_fig6(UW30)
    qs = env.qs_interval(OLD_START, SNAPSHOTS)
    session = env.session

    serial = run_rql(env, "AggregateDataInVariable", qs, QQ_IO, TABLE,
                     "avg")
    serial_seconds = sum(
        it.total_seconds(BENCH_CHARGES) for it in serial.metrics.iterations
    )
    serial_rows = session.execute(f'SELECT * FROM "{TABLE}"').rows

    env.clear_snapshot_cache()
    executor = ParallelExecutor(session.db, workers=WORKERS,
                                clock=time.thread_time)
    parallel = executor.run("AggregateDataInVariable", qs, QQ_IO, TABLE,
                            "avg")
    info = parallel.parallel
    makespan = parallel_makespan_seconds(info)
    parallel_rows = session.execute(f'SELECT * FROM "{TABLE}"').rows

    series = {
        "serial loop": [("totals", {
            "simulated_seconds": serial_seconds,
            "iterations": float(len(serial.metrics.iterations)),
            "pagelog_reads": float(serial.metrics.total_pagelog_reads()),
        })],
        f"parallel, workers={WORKERS}": [("totals", {
            "makespan_seconds": makespan,
            "merge_seconds": info.merge_seconds,
            "slowest_worker_seconds": makespan - info.merge_seconds,
            "iterations": float(sum(
                len(s.iterations) for s in info.worker_sinks)),
            "pagelog_reads": float(sum(
                s.total_pagelog_reads() for s in info.worker_sinks)),
            "speedup": serial_seconds / makespan if makespan else 0.0,
        })],
    }
    return FigureResult(
        figure="Ablation parallel speedup",
        title=f"AggregateDataInVariable over {SNAPSHOTS} snapshots: "
              f"serial loop vs partition/merge executor",
        series=series,
        notes=[
            "makespan = max over workers of summed iteration cost + "
            "serial merge phase (simulated device model)",
            "identical result tables asserted",
        ],
    ), serial_rows, parallel_rows


def test_parallel_speedup(benchmark):
    result, serial_rows, parallel_rows = benchmark.pedantic(
        run_parallel_speedup, rounds=1, iterations=1,
    )
    save_figure(result)
    print_figure(result)
    assert parallel_rows == serial_rows
    serial = result.series["serial loop"][0][1]
    parallel = result.series[f"parallel, workers={WORKERS}"][0][1]
    # The acceptance bar: parallel beats serial under the same cost
    # accounting, on >= 64 snapshots at workers=4.
    assert parallel["makespan_seconds"] < serial["simulated_seconds"], (
        serial, parallel,
    )
    assert serial["iterations"] == float(SNAPSHOTS)
    assert parallel["iterations"] == float(SNAPSHOTS)
