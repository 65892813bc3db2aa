"""Differential/property harness: the parallel executor is equivalent
to the serial mechanisms.

Hypothesis generates snapshot histories (inserts, updates, deletes
across a handful of snapshots), runs each mechanism serially and then
through :class:`~repro.core.parallel.ParallelExecutor` at every worker
count in ``WORKER_COUNTS``, and asserts byte-level equality:

* the result table — columns, physical row order, rowids, and values,
  including the hidden ``__avg_sum_i`` / ``__avg_cnt_i`` helper columns;
* the full post-run database state (every table in both engines, plus
  the index inventory);
* the metrics invariant: the per-worker ``qq_rows`` totals sum to the
  serial count, and each iteration is stamped with the worker that ran
  its partition.

All generated values are integers: integer-valued float arithmetic is
exact below 2**53, so SUM/AVG equality is bit-for-bit rather than
approximate.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import RQLSession
from repro.core.parallel import ParallelExecutor, partition_snapshots
from tests.conftest import full_database_dump

WORKER_COUNTS = (1, 2, 4, 7)

QS = "SELECT snap_id FROM SnapIds ORDER BY snap_id"

DIFFERENTIAL_SETTINGS = settings(
    max_examples=50,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large,
                           HealthCheck.filter_too_much],
)


# ---------------------------------------------------------------------------
# Workload generation
# ---------------------------------------------------------------------------

_groups = st.integers(min_value=0, max_value=3)
_values = st.one_of(st.none(), st.integers(min_value=-50, max_value=100))

_op = st.one_of(
    st.tuples(st.just("insert"), _groups,
              st.integers(min_value=0, max_value=100), _values),
    st.tuples(st.just("update"), _groups,
              st.integers(min_value=1, max_value=10)),
    st.tuples(st.just("delete"), _groups),
)

#: one inner list of ops per declared snapshot
snapshot_batches = st.lists(
    st.lists(_op, max_size=4), min_size=2, max_size=6,
)


def _lit(value):
    return "NULL" if value is None else str(value)


def build_session(batches) -> RQLSession:
    """A session whose history realizes one generated workload."""
    session = RQLSession()
    session.execute("CREATE TABLE events (grp, val, aux)")
    for batch in batches:
        for op in batch:
            if op[0] == "insert":
                _, grp, val, aux = op
                session.execute(
                    f"INSERT INTO events VALUES ({grp}, {val}, {_lit(aux)})"
                )
            elif op[0] == "update":
                _, grp, delta = op
                session.execute(
                    f"UPDATE events SET val = val + {delta} "
                    f"WHERE grp = {grp}"
                )
            else:
                session.execute(f"DELETE FROM events WHERE grp = {op[1]}")
        session.declare_snapshot()
    return session


def dump_result(session: RQLSession, table: str):
    result = session.execute(f'SELECT * FROM "{table}"')
    return tuple(result.columns), [tuple(r) for r in result.rows]


def _serial_then_parallel(session: RQLSession, run_serial, run_parallel,
                          table: str) -> None:
    """The differential core: serial once, then every worker count."""
    serial_result = run_serial()
    serial_dump = dump_result(session, table)
    serial_state = full_database_dump(session.db)
    serial_qq_rows = sum(i.qq_rows for i in serial_result.metrics.iterations)

    for workers in WORKER_COUNTS:
        session.execute(f'DROP TABLE IF EXISTS "{table}"')
        executor = ParallelExecutor(session.db, workers=workers)
        result = run_parallel(executor)

        assert dump_result(session, table) == serial_dump, \
            f"result table diverged at workers={workers}"
        assert full_database_dump(session.db) == serial_state, \
            f"database state diverged at workers={workers}"

        info = result.parallel
        assert info is not None and info.workers == workers
        per_worker = [
            sum(i.qq_rows for i in sink.iterations)
            for sink in info.worker_sinks
        ]
        assert sum(per_worker) == serial_qq_rows
        # Iterations are stamped with the partition that evaluated them.
        for n, partition in enumerate(info.partitions):
            sink = info.worker_sinks[n]
            assert [i.snapshot_id for i in sink.iterations] == partition
            assert all(i.worker == n + 1 for i in sink.iterations)
        assert [i.snapshot_id for i in result.metrics.iterations] == \
            [sid for partition in info.partitions for sid in partition]


# ---------------------------------------------------------------------------
# The four mechanisms
# ---------------------------------------------------------------------------

@DIFFERENTIAL_SETTINGS
@given(batches=snapshot_batches)
def test_collate_data_differential(batches):
    session = build_session(batches)
    qq = "SELECT grp, val FROM events"
    _serial_then_parallel(
        session,
        lambda: session.collate_data(QS, qq, "R", workers=1),
        lambda ex: ex.run("CollateData", QS, qq, "R"),
        "R",
    )


@DIFFERENTIAL_SETTINGS
@given(batches=snapshot_batches,
       func=st.sampled_from(["min", "max", "sum", "count", "avg"]))
def test_aggregate_in_variable_differential(batches, func):
    session = build_session(batches)
    qq = "SELECT COUNT(*) AS c FROM events WHERE grp < 2"
    _serial_then_parallel(
        session,
        lambda: session.aggregate_data_in_variable(
            QS, qq, "R", func, workers=1),
        lambda ex: ex.run("AggregateDataInVariable", QS, qq, "R", func),
        "R",
    )


@DIFFERENTIAL_SETTINGS
@given(batches=snapshot_batches,
       funcs=st.lists(
           st.sampled_from(["min", "max", "sum", "count", "avg"]),
           min_size=1, max_size=2))
def test_aggregate_in_table_differential(batches, funcs):
    session = build_session(batches)
    columns = ["val", "aux"][:len(funcs)]
    pairs = list(zip(columns, funcs))
    qq = "SELECT grp, val, aux FROM events"
    _serial_then_parallel(
        session,
        lambda: session.aggregate_data_in_table(
            QS, qq, "R", pairs, workers=1),
        lambda ex: ex.run("AggregateDataInTable", QS, qq, "R", pairs),
        "R",
    )


@DIFFERENTIAL_SETTINGS
@given(batches=snapshot_batches)
def test_collate_into_intervals_differential(batches):
    session = build_session(batches)
    qq = "SELECT grp, val FROM events"
    _serial_then_parallel(
        session,
        lambda: session.collate_data_into_intervals(
            QS, qq, "R", workers=1),
        lambda ex: ex.run("CollateDataIntoIntervals", QS, qq, "R"),
        "R",
    )


# ---------------------------------------------------------------------------
# Partitioning properties
# ---------------------------------------------------------------------------

@given(ids=st.lists(st.integers(min_value=1, max_value=10_000),
                    unique=True, max_size=64),
       workers=st.integers(min_value=1, max_value=16))
def test_partition_snapshots_properties(ids, workers):
    partitions = partition_snapshots(ids, workers)
    # Concatenation preserves iteration order exactly.
    assert [s for p in partitions for s in p] == list(ids)
    assert len(partitions) == min(workers, len(ids))
    assert all(partitions), "no empty partitions"
    # Balanced: sizes differ by at most one, larger ones first.
    sizes = [len(p) for p in partitions]
    assert max(sizes, default=0) - min(sizes, default=0) <= 1
    assert sizes == sorted(sizes, reverse=True)


def test_partition_snapshots_rejects_bad_worker_count():
    from repro.errors import MechanismError
    with pytest.raises(MechanismError):
        partition_snapshots([1, 2], 0)


# ---------------------------------------------------------------------------
# Session / SQL-surface wiring
# ---------------------------------------------------------------------------

def _tiny_session():
    session = RQLSession()
    session.execute("CREATE TABLE t (a, b)")
    for i in range(6):
        session.execute(f"INSERT INTO t VALUES ({i % 2}, {i})")
        session.declare_snapshot()
    return session


def test_session_workers_kwarg_routes_to_parallel_executor():
    session = _tiny_session()
    result = session.collate_data(QS, "SELECT a, b FROM t", "R", workers=3)
    assert result.parallel is not None
    assert result.parallel.workers == 3
    assert len(result.parallel.partitions) == 3
    serial = session.collate_data(QS, "SELECT a, b FROM t", "R", workers=1)
    assert serial.parallel is None


def test_session_default_workers_used_when_kwarg_omitted():
    session = _tiny_session()
    session.workers = 2
    result = session.aggregate_data_in_table(
        QS, "SELECT a, b FROM t", "R", [("b", "sum")],
    )
    assert result.parallel is not None and result.parallel.workers == 2


def test_rql_workers_sql_function_sets_and_reads_the_knob():
    session = _tiny_session()
    session.workers = 1  # pin: RQL_WORKERS may override the default
    assert session.execute("SELECT rql_workers()").scalar() == 1
    assert session.execute("SELECT rql_workers(4)").scalar() == 4
    assert session.workers == 4
    assert session.execute("SELECT rql_workers()").scalar() == 4


def test_rql_workers_env_var_sets_session_default(monkeypatch):
    monkeypatch.setenv("RQL_WORKERS", "3")
    assert RQLSession().workers == 3
    # An explicit constructor argument always wins over the environment.
    assert RQLSession(workers=1).workers == 1


def test_workers_must_be_positive():
    from repro.errors import MechanismError
    with pytest.raises(MechanismError):
        RQLSession(workers=0)
    session = _tiny_session()
    with pytest.raises(MechanismError):
        session.collate_data(QS, "SELECT a FROM t", "R", workers=-1)


def test_parallel_refuses_open_write_transaction():
    from repro.errors import MechanismError
    session = _tiny_session()
    session.execute("BEGIN")
    try:
        with pytest.raises(MechanismError, match="transaction"):
            session.collate_data(QS, "SELECT a FROM t", "R", workers=2)
    finally:
        session.execute("ROLLBACK")
    # Usable again once the transaction is gone.
    result = session.collate_data(QS, "SELECT a FROM t", "R", workers=2)
    assert result.parallel is not None


def test_more_workers_than_snapshots_degrades_gracefully():
    session = _tiny_session()
    result = session.collate_data(QS, "SELECT a, b FROM t", "R",
                                  workers=64)
    assert len(result.parallel.partitions) == 6  # one per snapshot
    serial = dump_result(session, "R")
    session.collate_data(QS, "SELECT a, b FROM t", "R", workers=1)
    assert dump_result(session, "R") == serial


def test_empty_snapshot_set_creates_no_result_table():
    session = RQLSession()
    session.execute("CREATE TABLE t (a)")
    qs = "SELECT snap_id FROM SnapIds WHERE snap_id < 0"
    result = session.collate_data(qs, "SELECT a FROM t", "R", workers=4)
    assert result.snapshots == []
    assert result.parallel.partitions == []
    from repro.errors import ReproError
    with pytest.raises(ReproError):
        session.execute('SELECT * FROM "R"')
