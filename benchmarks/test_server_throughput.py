"""Server throughput — first point of a trajectory.

N in-process clients drive one shared :class:`repro.server.RQLServer`
with the differential harness's mixed load: snapshot-declaring update
transactions plus retrospective mechanism calls over a prebuilt
history.  Updates serialize through the write gate; queries are
snapshot-pinned and admitted concurrently by the scheduler: a certified
query folds its snapshots through the partition/merge executor — one
partition at ``workers=1`` — and writes its result table once.  Every
query's ``Qs`` is the seeded history, so the work per query does not
grow with the snapshots the clients commit: the series measures
clients, not history length.

The recorded metric is completed operations per wall-clock second at
clients ∈ {1, 2, 4, 8}, with every query at ``workers`` 1 and 2.
Absolute numbers are machine-bound; the file
``benchmarks/results/server_throughput.txt`` exists so later PRs that
touch the scheduler or the gate have a baseline trajectory to append
to.  The test's acceptance is correctness-shaped: every client's
operations complete, the store leaks nothing, and throughput is
finite and positive at every client count.
"""

import threading
import time

from repro.bench import print_figure
from repro.bench.figures import FigureResult
from repro.bench.report import save_figure
from repro.server import RQLServer

CLIENT_COUNTS = (1, 2, 4, 8)
HISTORY_SNAPSHOTS = 12
TXNS_PER_CLIENT = 2
QUERIES_PER_CLIENT = 3
QUERY_WORKERS = (1, 2)

QS = (f"SELECT snap_id FROM SnapIds WHERE snap_id <= {HISTORY_SNAPSHOTS} "
      f"ORDER BY snap_id")
QQ = "SELECT grp, val, current_snapshot() FROM events"


def _drive_client(handle, index: int, workers: int,
                  errors: list) -> None:
    try:
        for n in range(TXNS_PER_CLIENT):
            with handle.transaction(with_snapshot=True):
                handle.execute(
                    f"INSERT INTO events VALUES ({index}, {n})")
        for n in range(QUERIES_PER_CLIENT):
            handle.collate_data(QS, QQ, f"r_{index}_{n}",
                                workers=workers)
    except Exception as exc:  # replint: taxonomy-exempt -- recorded; the test asserts the list is empty
        errors.append((index, exc))


def _run_at(clients: int, workers: int):
    server = RQLServer(gate_timeout=60.0)
    try:
        seed = server.connect("seed")
        seed.execute("CREATE TABLE events (grp, val)")
        for n in range(HISTORY_SNAPSHOTS):
            seed.execute(f"INSERT INTO events VALUES ({n % 4}, {n})")
            seed.declare_snapshot()
        seed.close()

        handles = [server.connect(f"client-{i}") for i in range(clients)]
        errors: list = []
        threads = [
            threading.Thread(target=_drive_client,
                             args=(handles[i], i, workers, errors))
            for i in range(clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        for handle in handles:
            handle.close()
        leaks = server.leak_report()
    finally:
        server.close()
    ops = clients * (TXNS_PER_CLIENT + QUERIES_PER_CLIENT)
    return {
        "clients": float(clients),
        "operations": float(ops),
        "wall_seconds": elapsed,
        "ops_per_second": ops / elapsed if elapsed else 0.0,
    }, errors, leaks


def run_server_throughput():
    series = {}
    failures = []
    for clients in CLIENT_COUNTS:
        points = []
        for workers in QUERY_WORKERS:
            point, errors, leaks = _run_at(clients, workers)
            failures.extend(errors)
            if any(leaks.values()):
                failures.append((clients, workers, f"leaks: {leaks}"))
            points.append((f"workers={workers}", point))
        series[f"clients={clients}"] = points
    result = FigureResult(
        figure="Server throughput",
        title=f"mixed load, {TXNS_PER_CLIENT} txns + "
              f"{QUERIES_PER_CLIENT} retrospective queries per client "
              f"over a {HISTORY_SNAPSHOTS}-snapshot history",
        series=series,
        notes=[
            "updates serialize through the write gate; queries are "
            "snapshot-pinned and scheduled concurrently",
            "trajectory file: compare ops_per_second across PRs, not "
            "across machines",
            "the trajectory restarts at PR 24: Qs is bounded to the "
            "seeded history; before, it grew by 2 snapshots per client",
            "workers=1 rows: the query runs the fold/merge executor as one "
            "partition, no longer the table-backed loop (one write per "
            "snapshot); workers=2 rows continue the earlier 'totals' rows",
        ],
    )
    return result, failures


def test_server_throughput(benchmark):
    result, failures = benchmark.pedantic(
        run_server_throughput, rounds=1, iterations=1)
    save_figure(result)
    print_figure(result)
    assert failures == [], failures
    for clients in CLIENT_COUNTS:
        points = result.series[f"clients={clients}"]
        assert [x for x, _ in points] == [
            f"workers={workers}" for workers in QUERY_WORKERS]
        for _, point in points:
            assert point["ops_per_second"] > 0.0, point
            assert point["operations"] == float(
                clients * (TXNS_PER_CLIENT + QUERIES_PER_CLIENT))
