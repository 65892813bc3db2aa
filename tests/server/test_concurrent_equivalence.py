"""Differential harness: concurrent schedules == their serial replay.

Hypothesis generates N-client schedules — each client runs a sequence
of snapshot-declaring update transactions and retrospective mechanism
calls — and the harness runs every schedule twice:

* **concurrently**, through the multi-session server: one thread per
  client, all released on a barrier, updates serialized only by the
  shared write gate, queries admitted by the scheduler (partitioned
  when the merge certificate allows, one partition otherwise);
* **serially**, on a fresh embedded session: the recorded update
  transactions replayed one by one in commit (snapshot-id) order, then
  each query re-run through the reference loop
  (``RQLSession.run_reference``) with its Qs pinned to the snapshot
  prefix the concurrent run actually iterated.

Equality is asserted on the **byte-level full dump** of both engines —
every table's columns, rowids, physical row order and values, plus the
index inventory — and on the leak report: zero registered sessions,
zero open MVCC read contexts, an idle write gate, zero active queries
after teardown.

Why the replay is well-defined: snapshot ids are allocated under the
write gate, and each declaration's SnapIds row is inserted under the
same gate hold, so any reader sees a contiguous prefix ``1..k`` of the
declared snapshots; recording ``k`` per query pins its snapshot set
exactly.  Snapshot contents are immutable once declared, so a query's
result table is a pure function of (mechanism, Qq, prefix) — which is
precisely what the serial replay recomputes.

Client counts {2, 4, 8} x ``MAX_EXAMPLES`` examples ≥ 100 schedules
per full run, per the acceptance bar.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import RQLSession
from repro.server import RQLServer
from tests.conftest import full_database_dump

CLIENT_COUNTS = (2, 4, 8)
MAX_EXAMPLES = 35  # x3 client counts = 105 schedules per full run

#: fixed clock so SnapIds timestamps are identical across both runs
FIXED_CLOCK = lambda: "2026-01-01 00:00:00"  # noqa: E731

DIFFERENTIAL_SETTINGS = settings(
    max_examples=MAX_EXAMPLES,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.data_too_large,
                           HealthCheck.filter_too_much],
)


# ---------------------------------------------------------------------------
# Schedule generation
# ---------------------------------------------------------------------------

_groups = st.integers(min_value=0, max_value=3)
_values = st.integers(min_value=-50, max_value=100)

_update_op = st.one_of(
    st.tuples(st.just("insert"), _groups, _values),
    st.tuples(st.just("update"), _groups,
              st.integers(min_value=1, max_value=9)),
    st.tuples(st.just("delete"), _groups),
)

#: one update action = one snapshot-declaring transaction
_txn_action = st.tuples(st.just("txn"),
                        st.lists(_update_op, min_size=1, max_size=3))

#: (mechanism, qq, arg) triples the scheduler can certify
_QUERY_SHAPES = (
    ("collate_data",
     "SELECT grp, val, current_snapshot() FROM events", None),
    ("aggregate_data_in_variable", "SELECT COUNT(*) FROM events", "sum"),
    ("aggregate_data_in_table", "SELECT grp, val FROM events",
     [("val", "sum")]),
    ("collate_data_into_intervals", "SELECT DISTINCT grp FROM events",
     None),
)

_query_action = st.tuples(
    st.just("query"),
    st.integers(min_value=0, max_value=len(_QUERY_SHAPES) - 1),
    st.sampled_from([1, 2, 4]),  # workers: 1 = one partition
)

_client_schedule = st.lists(st.one_of(_txn_action, _query_action),
                            min_size=1, max_size=3)


def schedules_for(clients: int):
    return st.lists(_client_schedule, min_size=clients, max_size=clients)


def _op_sql(op) -> str:
    if op[0] == "insert":
        return f"INSERT INTO events VALUES ({op[1]}, {op[2]})"
    if op[0] == "update":
        return (f"UPDATE events SET val = val + {op[2]} "
                f"WHERE grp = {op[1]}")
    return f"DELETE FROM events WHERE grp = {op[1]}"


# ---------------------------------------------------------------------------
# Concurrent run
# ---------------------------------------------------------------------------


def run_concurrent(schedule, clients: int):
    """Drive the schedule through the server; returns what happened.

    The per-client records keep enough to replay: each update
    transaction with the snapshot id it committed as, each query with
    the snapshot prefix it actually iterated.
    """
    server = RQLServer(clock=FIXED_CLOCK, gate_timeout=60.0)
    txns = []       # (snapshot_id, ops)
    queries = []    # (table, mechanism, qq, arg, prefix_k)
    errors = []
    record_latch = threading.Lock()
    try:
        handles = [server.connect(f"client-{i}") for i in range(clients)]
        handles[0].execute("CREATE TABLE events (grp, val)")
        barrier = threading.Barrier(clients)

        def drive(i: int) -> None:
            handle = handles[i]
            barrier.wait()
            for n, action in enumerate(schedule[i]):
                if action[0] == "txn":
                    _, ops = action
                    with handle.transaction(with_snapshot=True) as txn:
                        for op in ops:
                            handle.execute(_op_sql(op))
                    with record_latch:
                        txns.append((txn.snapshot_id, ops))
                else:
                    _, shape, workers = action
                    mechanism, qq, arg = _QUERY_SHAPES[shape]
                    table = f"r_{i}_{n}"
                    result = handle._mechanism(
                        mechanism, "SELECT snap_id FROM SnapIds "
                        "ORDER BY snap_id", qq, table, arg, False,
                        workers, True)
                    with record_latch:
                        queries.append(
                            (table, mechanism, qq, arg,
                             max(result.snapshots, default=0)))

        threads = [
            threading.Thread(target=lambda i=i: _guard(drive, i, errors),
                             name=f"client-{i}")
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == [], errors
        for handle in handles:
            handle.close()
        dump = full_database_dump(server.store)
        leaks = server.leak_report()
    finally:
        server.close()
    return txns, queries, dump, leaks


def _guard(drive, i, errors):
    try:
        drive(i)
    except BaseException as exc:  # noqa: BLE001 - surfaced in the test
        errors.append((i, exc))


# ---------------------------------------------------------------------------
# Serial replay
# ---------------------------------------------------------------------------


def run_serial(txns, queries):
    """Replay on a fresh embedded session, in commit order, through
    the reference loop."""
    session = RQLSession(clock=FIXED_CLOCK)
    session.execute("CREATE TABLE events (grp, val)")
    for expected_id, ops in sorted(txns, key=lambda t: t[0]):
        with session.transaction(with_snapshot=True) as txn:
            for op in ops:
                session.execute(_op_sql(op))
        assert txn.snapshot_id == expected_id
    for table, mechanism, qq, arg, prefix_k in sorted(
            queries, key=lambda q: q[0]):
        qs = (f"SELECT snap_id FROM SnapIds WHERE snap_id <= {prefix_k} "
              f"ORDER BY snap_id")
        session.run_reference(mechanism, qs, qq, table, arg)
    dump = full_database_dump(session.db)
    readers = (len(session.db.engine.open_read_contexts())
               + len(session.db.aux_engine.open_read_contexts()))
    session.close()
    return dump, readers


# ---------------------------------------------------------------------------
# The differential property
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("clients", CLIENT_COUNTS)
def test_concurrent_equals_serial_replay(clients):
    @DIFFERENTIAL_SETTINGS
    @given(schedule=schedules_for(clients))
    def check(schedule):
        txns, queries, concurrent_dump, leaks = run_concurrent(
            schedule, clients)
        assert leaks == {"sessions": 0, "read_contexts": 0,
                         "gate_held": False, "active_queries": 0}, leaks
        serial_dump, serial_readers = run_serial(txns, queries)
        assert serial_readers == 0
        assert concurrent_dump == serial_dump

    check()


def test_snapshot_ids_are_gap_free_under_contention():
    """All-writer schedule: K committed txns own ids 1..K, and the
    SnapIds rows are in id order (the gate-atomic declare+record)."""
    clients = 4
    schedule = [[("txn", [("insert", i, i * 10)])] * 3
                for i in range(clients)]
    txns, _queries, dump, leaks = run_concurrent(schedule, clients)
    ids = sorted(sid for sid, _ops in txns)
    assert ids == list(range(1, 3 * clients + 1))
    assert leaks["sessions"] == 0 and leaks["read_contexts"] == 0
    _columns, rows = dump[("aux", "SnapIds")]
    assert [row[0] for _rowid, row in rows] == ids


def test_queries_pin_contiguous_snapshot_prefixes():
    """Concurrent queries only ever see a prefix 1..k of the declared
    snapshots — the property the replay's pinned Qs relies on."""
    clients = 4
    schedule = [
        [("txn", [("insert", i, 1)]), ("query", 0, 2),
         ("txn", [("update", i, 2)])]
        for i in range(clients)
    ]
    txns, queries, _dump, _leaks = run_concurrent(schedule, clients)
    total = len(txns)
    for _table, _mechanism, _qq, _arg, prefix_k in queries:
        assert 0 <= prefix_k <= total
