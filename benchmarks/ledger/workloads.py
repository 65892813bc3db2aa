"""The six ledger workloads.

Every input is generated here from the seed; the program under test
sees only SQL text and call arguments.  Each op is checked against a
result computed another way (see ``README.md``, "Oracles").

Sizes are set so that one driver run (three set-ups, the measured
seconds, the end-of-run checks) stays well inside the contract's
per-run share of its total time cap on a 2-core host: the TPC-H
histories run at SF 0.0005 (750 orders), half the paper-figure
benchmarks' scale, which also doubles the ops sampled per second.
"""

from __future__ import annotations

import math
import random
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import RQLSession
from repro.core.rewrite import rewrite_qq
from repro.errors import ReproError, WorkloadError
from repro.server import RQLServer
from repro.server.wire import WireClient, WireServer
from repro.sql.catalog import Catalog
from repro.sql.database import Database
from repro.sql.executor import EphemeralPageSource
from repro.sql.lexer import tokenize
from repro.sql.parser import parse_one
from repro.storage.btree import BTree
from repro.storage.disk import SimulatedDisk
from repro.storage.engine import StorageEngine
from repro.storage.record import decode_record, encode_record
from repro.workloads import UW30, SnapshotHistoryBuilder

from benchmarks.ledger.harness import (
    Block,
    Tracer,
    Workload,
    fixed_clock,
    median,
    ratio,
    time_calls,
)

PAGE_SIZE = 4096
TPCH_SCALE = 0.0005
TPCH_HISTORY = 70
UPDATE_HISTORY = 20
VIEW_HISTORY = 64
#: one row a group at load, so an op's UPDATE of one group changes one or
#: two rows and the intervals view grows by about a row an op on a base
#: of ~470.  A refresh rewrites the whole view table, so with 16 groups
#: of 12 rows the op's cost doubled inside a 10 s run and its median
#: depended on how many ops the host got through.
VIEW_GROUPS = 400
VIEW_ROWS = 400
SERVER_HISTORY = 32
SERVER_GROUPS = 8
SERVER_ROWS_PER_SNAPSHOT = 8
SERVER_CLIENTS = 2
#: every Nth server request is a write transaction
SERVER_TXN_EVERY = 5
#: snapshot-cache pages for the "working set does not fit" probe; one
#: ``scan_agg`` op touches about 60 distinct archived pages
SMALL_CACHE_PAGES = 24

QS_ALL = "SELECT snap_id FROM SnapIds ORDER BY snap_id"


def qs_oldest(count: int) -> str:
    return (f"SELECT snap_id FROM SnapIds WHERE snap_id <= {count} "
            f"ORDER BY snap_id")


def _open_session(disk: SimulatedDisk, aux_disk: SimulatedDisk,
                  snapshot_cache_pages: Optional[int] = None) -> RQLSession:
    if snapshot_cache_pages is None:
        db = Database(disk=disk, aux_disk=aux_disk)
    else:
        db = Database(
            engine=StorageEngine(disk,
                                 snapshot_cache_pages=snapshot_cache_pages),
            aux_engine=StorageEngine(aux_disk))
    return RQLSession(db=db, clock=fixed_clock, workers=1)


# ---------------------------------------------------------------------------
# Layer probes that apply to any environment
# ---------------------------------------------------------------------------

def frontend_probes(session: RQLSession, qq: str,
                    snapshot_id: int) -> Dict[str, float]:
    """The SQL front end on the workload's own per-snapshot statement."""
    rewritten = rewrite_qq(qq, snapshot_id)
    return {
        "core.rewrite.rewrite_qq_s":
            time_calls(lambda: rewrite_qq(qq, snapshot_id)),
        "sql.lexer.tokenize_s": time_calls(lambda: tokenize(rewritten)),
        "sql.parser.parse_s": time_calls(lambda: parse_one(rewritten)),
        "sql.planner.explain_s":
            time_calls(lambda: session.execute("EXPLAIN " + rewritten)),
    }


def storage_probes(engine: StorageEngine, table: str) -> Dict[str, float]:
    """Record codec, B-tree and Retro map probes on ``table`` as the
    workload left it (read context; the scratch insert tree is private).
    """
    out: Dict[str, float] = {}
    with engine.begin_read() as ctx:
        source = engine.read_source(ctx)
        info = Catalog(source, engine.pager.get_root("catalog")) \
            .get_table(table)
        if info is None:
            raise WorkloadError(f"probe table {table!r} is missing")
        tree = BTree(source, info.root_id)
        cells = list(tree.scan_all())
        key, raw = cells[len(cells) // 2]
        row = decode_record(raw)
        out["storage.record.decode_record_us"] = \
            time_calls(lambda: decode_record(raw)) * 1e6
        out["storage.record.encode_record_us"] = \
            time_calls(lambda: encode_record(row)) * 1e6
        out["storage.btree.get_s"] = time_calls(lambda: tree.get(key))
        out["storage.btree.pages_per_get"] = float(tree.height())
        scan_s = time_calls(lambda: sum(1 for _ in tree.scan_all()),
                            min_calls=3)
        out["storage.btree.scan_rows_per_s"] = ratio(len(cells), scan_s)
    scratch = BTree.create(EphemeralPageSource(PAGE_SIZE))
    started = time.perf_counter()
    for cell_key, cell_raw in cells:
        scratch.insert(cell_key, cell_raw)
    out["storage.btree.insert_s"] = ratio(
        time.perf_counter() - started, len(cells))

    retro = engine.retro
    latest = retro.latest_snapshot_id
    out["retro.maplog.build_spt_old_s"] = \
        time_calls(lambda: retro.build_spt(1))
    out["retro.maplog.build_spt_recent_s"] = \
        time_calls(lambda: retro.build_spt(latest))
    out["retro.maplog.diff_pages_s"] = \
        time_calls(lambda: retro.diff_pages(1, latest))
    if retro.pagelog.durable_slots:
        out["retro.pagelog.read_s"] = \
            time_calls(lambda: retro.pagelog.read(0))
    return out


def _metered_s(iteration) -> float:
    """Seconds the program's own meters account for in one iteration."""
    return (iteration.spt_build_seconds + iteration.query_eval_seconds
            + iteration.udf_seconds + iteration.index_creation_seconds)


def _hot_mean(sinks: Sequence, attribute: str) -> float:
    values = [getattr(it, attribute)
              for sink in sinks for it in sink.iterations[1:]]
    return ratio(sum(values), len(values))


# ---------------------------------------------------------------------------
# TPC-H read workloads: scan_agg, point_history, table_fold
# ---------------------------------------------------------------------------

class TpchEnv:
    """TPC-H at ``TPCH_SCALE`` plus a UW30 snapshot history on explicit
    disks (so probes can reopen them)."""

    def __init__(self, seed: int, snapshots: int) -> None:
        self.disk = SimulatedDisk(PAGE_SIZE)
        self.aux_disk = SimulatedDisk(PAGE_SIZE)
        self.session = _open_session(self.disk, self.aux_disk)
        self.builder = SnapshotHistoryBuilder(
            self.session, scale_factor=TPCH_SCALE, seed=seed)
        self.builder.load_initial()
        self.session.checkpoint()
        self.snapshot_ids = self.builder.build_history(UW30, snapshots)
        self.per_snapshot = UW30.orders_per_snapshot(
            self.builder.generator.orders_count)

    def clear_snapshot_cache(self) -> None:
        self.session.db.engine.retro.cache.clear()

    def reopen(self, snapshot_cache_pages: int) -> None:
        self.session.close()
        self.session = _open_session(self.disk, self.aux_disk,
                                     snapshot_cache_pages)


class TpchWorkload(Workload):
    """A workload whose environment is one :class:`TpchEnv`."""

    def __init__(self) -> None:
        self.env: Optional[TpchEnv] = None

    def close(self) -> None:
        if self.env is not None:
            self.env.session.close()
            self.env = None

    def engines(self):
        db = self.env.session.db
        return db.engine, db.aux_engine


class MechanismWorkload(TpchWorkload):
    """One RQL mechanism call per op over the shared TPC-H history, the
    snapshot page cache cleared first (paper section 5: every RQL query
    starts cold, so an op is 1 cold + N-1 hot iterations).

    ``QQ`` is a template: ``{as_of}`` is empty for the mechanism (the
    program injects the pin itself) and `` AS OF sid`` for the oracle's
    stand-alone statements, so the oracle never goes through
    ``rewrite_qq``.
    """

    QQ = ""
    MECHANISM = ""       # RQLSession method
    CERTIFICATE = ""     # mechanism name as rqlint spells it
    ARG: object = None
    QS_COUNT = 0         # oldest snapshots iterated (0 = all)
    RESULT = "ledger_result"

    def __init__(self) -> None:
        super().__init__()
        self.seed = 0
        self.rng = random.Random(0)
        self._oracles: Dict[str, object] = {}

    # -- environment -----------------------------------------------------

    def setup(self, seed: int) -> None:
        self.env = TpchEnv(seed, TPCH_HISTORY)
        self.seed = seed
        self.rng = random.Random(seed)
        self._oracles = {}
        count = self.QS_COUNT or len(self.env.snapshot_ids)
        self.qs_ids = self.env.snapshot_ids[:count]
        self.qs = qs_oldest(count) if self.QS_COUNT else QS_ALL
        self.prepare()

    def prepare(self) -> None:
        """Seeded per-workload inputs (default: none)."""

    # -- the op ----------------------------------------------------------

    def next_params(self) -> Dict[str, object]:
        """Template parameters of the next op (seeded)."""
        return {}

    def mechanism_qq(self, params: Dict[str, object]) -> str:
        return self.QQ.format(as_of="", sid="current_snapshot()", **params)

    def invoke(self, qq: str, workers: int = 1):
        method = getattr(self.env.session, self.MECHANISM)
        args = (self.qs, qq, self.RESULT)
        if self.ARG is not None:
            args += (self.ARG,)
        return method(*args, workers=workers)

    def op(self) -> Tuple[float, bool]:
        params = self.next_params()
        qq = self.mechanism_qq(params)
        self.env.clear_snapshot_cache()
        started = time.perf_counter()
        self.invoke(qq)
        seconds = time.perf_counter() - started
        return seconds, self.matches_oracle(qq, params)

    # -- the oracle ------------------------------------------------------

    def snapshot_rows(self, params: Dict[str, object],
                      snapshot_id: int) -> List[tuple]:
        sql = self.QQ.format(as_of=f" AS OF {snapshot_id}",
                             sid=snapshot_id, **params)
        return [tuple(r) for r in self.env.session.execute(sql).rows]

    def fold(self, per_snapshot: List[List[tuple]]) -> object:
        """The benchmark's own fold of the per-snapshot row sets."""
        raise NotImplementedError

    def read_result(self) -> object:
        raise NotImplementedError

    def agrees(self, got: object, expected: object) -> bool:
        return got == expected

    def matches_oracle(self, qq: str, params: Dict[str, object]) -> bool:
        """Oracle computed once per distinct op, outside the timed part."""
        got = self.read_result()
        if qq not in self._oracles:
            self._oracles[qq] = self.fold(
                [self.snapshot_rows(params, sid) for sid in self.qs_ids])
        return self.agrees(got, self._oracles[qq])

    # -- traced pass and layer probes ------------------------------------

    def decomposed_iteration(self, tracer: Tracer, sql: str,
                             first: bool) -> None:
        """One snapshot's share of the decomposed op: the program's
        per-snapshot statement, called directly."""
        with tracer.span("sql.database"):
            self.env.session.execute(sql)

    def layers(self, tracer: Tracer, budget_s: float) -> Dict[str, float]:
        session = self.env.session
        # The traced ops' parameters, and so the counts below, must not
        # depend on how many ops the reference block got through.
        self.rng = random.Random(self.seed)
        deadline = time.perf_counter() + budget_s * 0.45
        folds: List[float] = []
        coverage: List[float] = []
        sinks = []
        overheads: List[float] = []
        op_id = 0
        while True:
            qq = self.mechanism_qq(self.next_params())
            self.env.clear_snapshot_cache()
            with tracer.span("op.integrated", op_id) as whole:
                result = self.invoke(qq)
            integrated = whole["end"] - whole["start"]
            sink = result.metrics
            sinks.append(sink)
            overheads.append(ratio(
                integrated - sum(_metered_s(it) for it in sink.iterations),
                len(sink.iterations)))

            # The same op as the benchmark's own loop over the Qs ids,
            # one span per call into a layer.
            self.env.clear_snapshot_cache()
            with tracer.span("op.decomposed", op_id + 1):
                for n, sid in enumerate(self.qs_ids):
                    with tracer.span("core.rewrite"):
                        sql = rewrite_qq(qq, sid)
                    self.decomposed_iteration(tracer, sql, first=not n)
            own = tracer.self_times(op_id + 1)
            own.pop("op.decomposed")
            coverage.append(ratio(sum(own.values()), integrated))
            folds.append(integrated - sum(
                tracer.durations("sql.database", op_id + 1)))
            op_id += 2
            if len(folds) >= 3 and time.perf_counter() >= deadline:
                break

        selects = [tracer.durations("sql.database", n)
                   for n in range(1, op_id, 2)]
        iterations = [it for sink in sinks for it in sink.iterations]
        params = self.next_params()
        qq = self.mechanism_qq(params)
        current_sql = self.QQ.format(as_of="", sid=0, **params)
        out = {
            "core.mechanisms.fold_s_per_op": median(folds),
            "core.mechanisms.loop_overhead_s_per_iter": median(overheads),
            "bench.trace_coverage_ratio": median(coverage),
            "sql.database.asof_select_cold_s":
                median([op[0] for op in selects]),
            "sql.database.asof_select_hot_s":
                median([s for op in selects for s in op[1:]]),
            "sql.database.current_select_s":
                time_calls(lambda: session.execute(current_sql)),
            "sql.database.rows_examined_per_row_out":
                self.rows_examined_per_row_out(qq, iterations),
            "retro.metrics.cold_iter_s":
                median([_metered_s(s.iterations[0]) for s in sinks]),
            "retro.metrics.spt_build_s_per_iter":
                _hot_mean(sinks, "spt_build_seconds"),
            "retro.metrics.query_eval_s_per_iter":
                _hot_mean(sinks, "query_eval_seconds"),
            "retro.metrics.udf_s_per_iter":
                _hot_mean(sinks, "udf_seconds"),
            "retro.maplog.spt_entries_scanned_per_iter": ratio(
                sum(it.spt_entries_scanned for it in iterations),
                len(iterations)),
            # the first three ops: every run traces at least those
            "retro.pagelog.reads_per_op":
                median([s.total_pagelog_reads() for s in sinks[:3]]),
            "analysis.query.certify_s": time_calls(
                lambda: session.certify(self.CERTIFICATE, self.qs, qq,
                                        self.ARG)),
        }
        out.update(frontend_probes(session, qq, self.qs_ids[-1]))
        out.update(storage_probes(session.db.engine, "orders"))
        out.update(self.extra_layers())
        return out

    def rows_examined_per_row_out(self, qq: str, iterations) -> float:
        """Rows the access path visits per row Qq returns: the table's
        row count when EXPLAIN reports a full scan of ``orders``, one
        when it reports an index search."""
        session = self.env.session
        plan = [str(r[0]) for r in session.execute(
            "EXPLAIN " + rewrite_qq(qq, self.qs_ids[0])).rows]
        rows_out = ratio(sum(it.qq_rows for it in iterations),
                         len(iterations))
        if any(line.startswith("SCAN orders") for line in plan):
            examined = float(session.execute(
                f"SELECT AS OF {self.qs_ids[0]} COUNT(*) FROM orders"
            ).scalar())
        else:
            examined = rows_out
        return ratio(examined, rows_out)

    def extra_layers(self) -> Dict[str, float]:
        """Probes only this workload's shape can host (default: none)."""
        return {}


class ScanAgg(MechanismWorkload):
    name = "scan_agg"
    QQ = "SELECT{as_of} COUNT(*) FROM orders WHERE o_orderstatus = 'O'"
    MECHANISM = "aggregate_data_in_variable"
    CERTIFICATE = "AggregateDataInVariable"
    ARG = "avg"
    QS_COUNT = 32

    def fold(self, per_snapshot):
        counts = [rows[0][0] for rows in per_snapshot if rows]
        return sum(counts) / len(counts)

    def read_result(self):
        return self.env.session.execute(
            f'SELECT * FROM "{self.RESULT}"').scalar()

    def agrees(self, got, expected) -> bool:
        return math.isclose(float(got), expected, rel_tol=1e-12)

    def extra_layers(self) -> Dict[str, float]:
        """The same op through the partition/merge executor, then with a
        snapshot cache smaller than the op's working set (reopens the
        environment, so it runs last)."""
        qq = self.mechanism_qq({})
        parallel: List[float] = []
        merges: List[float] = []
        for _ in range(3):
            self.env.clear_snapshot_cache()
            started = time.perf_counter()
            result = self.invoke(qq, workers=2)
            parallel.append(time.perf_counter() - started)
            merges.append(result.parallel.merge_seconds)
        self.env.reopen(SMALL_CACHE_PAGES)
        small: List[float] = []
        for _ in range(3):
            self.env.clear_snapshot_cache()
            started = time.perf_counter()
            self.invoke(qq)
            small.append(time.perf_counter() - started)
        return {
            "core.parallel.workers2_op_s": median(parallel),
            "core.parallel.merge_s": median(merges),
            "retro.snapshot_cache.small_cache_op_s": median(small),
        }


class PointHistory(MechanismWorkload):
    name = "point_history"
    QQ = ("SELECT{as_of} o_totalprice, {sid} FROM orders "
          "WHERE o_orderkey = {key}")
    MECHANISM = "collate_data"
    CERTIFICATE = "CollateData"
    KEYS = 8

    def prepare(self) -> None:
        # Keys loaded initially and never refreshed away: every op
        # returns one row per snapshot, so ops cost the same.
        refresh = self.env.builder.refresh
        loaded = self.env.builder.generator.orders_count
        survivors = sorted(refresh.live_orderkeys())[:loaded // 4]
        self.keys = self.rng.sample(survivors, self.KEYS)

    def next_params(self):
        return {"key": self.rng.choice(self.keys)}

    def fold(self, per_snapshot):
        return [row for rows in per_snapshot for row in rows]

    def decomposed_iteration(self, tracer: Tracer, sql: str,
                             first: bool) -> None:
        """CollateData's iteration spelled out: a transaction around the
        per-snapshot statement and the result-table inserts (with a PK
        probe as Qq these, not the statement, are a third of the op)."""
        db = self.env.session.db
        scratch = "ledger_scratch"
        if first:
            db.execute(f'DROP TABLE IF EXISTS "{scratch}"')
        with tracer.span("storage.engine.txn"):
            with db.transaction():
                with tracer.span("sql.database"):
                    result = db.execute(sql)
                with tracer.span("storage.btree.result_insert"):
                    if first:
                        db.execute(
                            f'CREATE TEMP TABLE "{scratch}" (price, snap)')
                    _, writer = db.table_writer(scratch)
                    for row in result.rows:
                        writer.insert(row)

    def read_result(self):
        return [tuple(r) for r in self.env.session.execute(
            f'SELECT * FROM "{self.RESULT}"').rows]


class TableFold(MechanismWorkload):
    name = "table_fold"
    QQ = ("SELECT{as_of} o_custkey, COUNT(*) AS cn, "
          "AVG(o_totalprice) AS av FROM orders GROUP BY o_custkey")
    MECHANISM = "aggregate_data_in_table"
    CERTIFICATE = "AggregateDataInTable"
    ARG = [("cn", "max"), ("av", "max")]
    QS_COUNT = 8

    def fold(self, per_snapshot):
        best: Dict[object, Tuple[object, object]] = {}
        for rows in per_snapshot:
            for custkey, cn, av in rows:
                seen = best.get(custkey)
                best[custkey] = (cn, av) if seen is None else (
                    max(seen[0], cn), max(seen[1], av))
        return sorted((k, cn, av) for k, (cn, av) in best.items())

    def read_result(self):
        return sorted(tuple(r) for r in self.env.session.execute(
            f'SELECT o_custkey, cn, av FROM "{self.RESULT}"').rows)

    def extra_layers(self) -> Dict[str, float]:
        """The interval-stitch fold, the third fold shape (sizing run:
        most of it is ``TableWriter.update``)."""
        session = self.env.session
        samples: List[float] = []
        for _ in range(3):
            started = time.perf_counter()
            session.collate_data_into_intervals(
                qs_oldest(4), "SELECT o_orderkey, o_custkey FROM orders",
                "ledger_intervals")
            samples.append(time.perf_counter() - started)
        return {"core.mechanisms.intervals_fold_s": median(samples)}


# ---------------------------------------------------------------------------
# update_history: the write side
# ---------------------------------------------------------------------------

class UpdateHistory(TpchWorkload):
    """One UW30 refresh pair (delete + insert 2 % of orders with their
    lineitems) committed WITH SNAPSHOT per op, on its own environment.
    """

    name = "update_history"

    def __init__(self) -> None:
        super().__init__()
        self.acknowledged: List[Tuple[int, int]] = []
        self.expected_keys: List[int] = []

    def setup(self, seed: int) -> None:
        self.env = TpchEnv(seed, UPDATE_HISTORY)
        self.acknowledged = []
        self.expected_keys = sorted(self.env.builder.refresh.live_orderkeys())

    def _advance_model(self) -> None:
        """The benchmark's own model of what one refresh pair does:
        the oldest keys go, the generator's next keys arrive."""
        count = self.env.per_snapshot
        first_new = self.env.builder.generator.next_orderkey
        self.expected_keys = self.expected_keys[count:] + list(
            range(first_new, first_new + count))

    def _check_current(self) -> bool:
        lo, hi, rows = self.env.session.execute(
            "SELECT MIN(o_orderkey), MAX(o_orderkey), COUNT(*) "
            "FROM orders").rows[0]
        keys = self.expected_keys
        return (lo, hi, rows) == (keys[0], keys[-1], len(keys))

    def op(self) -> Tuple[float, bool]:
        session = self.env.session
        self._advance_model()
        started = time.perf_counter()
        with session.transaction(with_snapshot=True) as txn:
            self.env.builder.refresh.refresh_pair(self.env.per_snapshot)
        seconds = time.perf_counter() - started
        self.acknowledged.append(
            (txn.snapshot_id, len(self.expected_keys)))
        return seconds, self._check_current()

    def _recover(self) -> float:
        """Power loss, then reopen: the engines' volatile state is
        dropped (``StorageEngine.crash``), so only bytes that reached
        the simulated disks survive."""
        db = self.env.session.db
        db.engine.crash()
        db.aux_engine.crash()
        started = time.perf_counter()
        self.env.session = _open_session(self.env.disk, self.env.aux_disk)
        return time.perf_counter() - started

    def verify(self) -> Tuple[int, int]:
        """Durability: every acknowledged snapshot answers after a crash
        restart with the row count it was acknowledged with."""
        self._recover()
        session = self.env.session
        failed = 0
        for snapshot_id, rows in self.acknowledged:
            try:
                got = session.execute(
                    f"SELECT AS OF {snapshot_id} COUNT(*) FROM orders"
                ).scalar()
            except ReproError:
                got = None
            if got != rows:
                failed += 1
        if not self._check_current():
            failed += 1
        return len(self.acknowledged) + 1, failed

    def layers(self, tracer: Tracer, budget_s: float) -> Dict[str, float]:
        session = self.env.session
        refresh = self.env.builder.refresh
        count = self.env.per_snapshot
        deadline = time.perf_counter() + budget_s * 0.4
        user_bytes = written_pages = 0
        op_id = 0
        while True:
            self._advance_model()
            stats_before = [e.disk.stats.snapshot() for e in self.engines()]
            with tracer.span("op.integrated", op_id):
                session.execute("BEGIN")
                with tracer.span("sql.database.delete"):
                    refresh.rf2_delete(refresh.pick_deletions(count))
                with tracer.span("storage.btree.insert"):
                    new_keys = refresh.rf1_insert(count)
                with tracer.span("storage.engine.commit"):
                    snapshot_id = session.commit_with_snapshot()
            self.acknowledged.append(
                (snapshot_id, len(self.expected_keys)))
            for engine, before in zip(self.engines(), stats_before):
                delta = engine.disk.stats.delta(before)
                written_pages += delta.random_writes + delta.log_writes
            user_bytes += self._inserted_bytes(new_keys)
            op_id += 1
            if op_id >= 5 and time.perf_counter() >= deadline:
                break
        # COMMIT WITH SNAPSHOT checkpoints by itself; a checkpoint with
        # work to do follows a plain commit.
        checkpoints: List[float] = []
        for _ in range(3):
            self._advance_model()
            with session.transaction():
                refresh.refresh_pair(count)
            started = time.perf_counter()
            session.checkpoint()
            checkpoints.append(time.perf_counter() - started)
        delete_sql = "DELETE FROM orders WHERE o_orderkey = 1"
        out = {
            "storage.engine.commit_s":
                median(tracer.durations("storage.engine.commit")),
            "storage.engine.checkpoint_s": median(checkpoints),
            "storage.disk.bytes_written_per_user_byte":
                ratio(written_pages * PAGE_SIZE, user_bytes),
            "sql.lexer.tokenize_s": time_calls(lambda: tokenize(delete_sql)),
            "sql.parser.parse_s": time_calls(lambda: parse_one(delete_sql)),
            "bench.trace_coverage_ratio": ratio(
                sum(tracer.durations("sql.database.delete"))
                + sum(tracer.durations("storage.btree.insert"))
                + sum(tracer.durations("storage.engine.commit")),
                sum(tracer.durations("op.integrated"))),
        }
        out.update(storage_probes(session.db.engine, "orders"))
        out["storage.engine.recovery_s"] = self._recover()
        return out

    def _inserted_bytes(self, orderkeys: Sequence[int]) -> int:
        """Encoded size of the rows one refresh pair inserted."""
        session = self.env.session
        lo, hi = orderkeys[0], orderkeys[-1]
        total = 0
        for table, column in (("orders", "o_orderkey"),
                              ("lineitem", "l_orderkey")):
            rows = session.execute(
                f"SELECT * FROM {table} WHERE {column} BETWEEN {lo} "
                f"AND {hi}").rows
            total += sum(len(encode_record(row)) for row in rows)
        return total


# ---------------------------------------------------------------------------
# view_refresh: incremental maintenance
# ---------------------------------------------------------------------------

class ViewRefresh(Workload):
    """Two materialized views over an ``events``/``noise`` history; per
    op two untimed snapshot transactions (one touches the views' read
    table, one does not), then the timed refresh of both views."""

    name = "view_refresh"
    VIEWS = (
        ("ledger_sum", "AggregateDataInTable", "(val, sum)"),
        ("ledger_spans", "CollateDataIntoIntervals", None),
    )
    QQ = "SELECT grp, val FROM events"

    def __init__(self) -> None:
        self.session: Optional[RQLSession] = None
        self.rng = random.Random(0)

    def setup(self, seed: int) -> None:
        self.rng = rng = random.Random(seed)
        self.session = session = _open_session(
            SimulatedDisk(PAGE_SIZE), SimulatedDisk(PAGE_SIZE))
        session.execute("CREATE TABLE events (grp INTEGER, val INTEGER)")
        session.execute("CREATE TABLE noise (x INTEGER)")
        with session.transaction():
            for n in range(VIEW_ROWS):
                session.execute(
                    f"INSERT INTO events VALUES ({n % VIEW_GROUPS}, "
                    f"{rng.randrange(1000)})")
        for sid in range(1, VIEW_HISTORY + 1):
            if sid % 2:
                session.execute(
                    f"INSERT INTO events VALUES "
                    f"({rng.randrange(VIEW_GROUPS)}, {rng.randrange(1000)})")
            else:
                self._touch_events()
            session.declare_snapshot()
        for name, mechanism, arg in self.VIEWS:
            session.create_materialized_view(name, mechanism, self.QQ,
                                             arg=arg)
        self.noise = 0

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def engines(self):
        return self.session.db.engine, self.session.db.aux_engine

    def _touch_events(self) -> None:
        self.session.execute(
            f"UPDATE events SET val = val + 1 "
            f"WHERE grp = {self.rng.randrange(VIEW_GROUPS)}")

    def _advance_history(self) -> None:
        session = self.session
        self._touch_events()
        session.declare_snapshot()
        self.noise += 1
        session.execute(f"INSERT INTO noise VALUES ({self.noise})")
        session.declare_snapshot()

    def op(self) -> Tuple[float, bool]:
        self._advance_history()
        session = self.session
        started = time.perf_counter()
        reports = [session.refresh_view(name) for name, _, _ in self.VIEWS]
        seconds = time.perf_counter() - started
        target = session.latest_snapshot_id
        ok = all(r.mode == "delta" and r.target == target
                 and r.evaluated_snapshots == 2 for r in reports)
        return seconds, ok

    def _view_rows(self) -> List[List[tuple]]:
        return [[tuple(r) for r in self.session.execute(
            f'SELECT * FROM "{name}"').rows] for name, _, _ in self.VIEWS]

    def verify(self) -> Tuple[int, int]:
        """The delta-maintained tables must equal a full rebuild."""
        maintained = self._view_rows()
        for name, _, _ in self.VIEWS:
            self.session.refresh_view(name, full=True)
        rebuilt = self._view_rows()
        failed = sum(1 for a, b in zip(maintained, rebuilt) if a != b)
        return len(self.VIEWS), failed

    def layers(self, tracer: Tracer, budget_s: float) -> Dict[str, float]:
        session = self.session
        deadline = time.perf_counter() + budget_s * 0.5
        delta_s: List[float] = []
        full_s: List[float] = []
        reads: List[int] = []
        reports = []
        op_id = 0
        while True:
            self._advance_history()
            op_reports = []
            with tracer.span("op.integrated", op_id) as whole:
                for name, _, _ in self.VIEWS:
                    with tracer.span(f"retro.views.refresh.{name}"):
                        op_reports.append(session.refresh_view(name))
            delta_s.append(whole["end"] - whole["start"])
            reads.append(sum(r.pagelog_reads for r in op_reports))
            reports.extend(op_reports)
            op_id += 1
            if op_id % 3 == 0:
                # A forced rebuild of the same views at the same target:
                # what the ladder's delta rung saves.
                started = time.perf_counter()
                for name, _, _ in self.VIEWS:
                    session.refresh_view(name, full=True)
                full_s.append(time.perf_counter() - started)
            if op_id >= 3 and time.perf_counter() >= deadline:
                break
        refreshes = sum(
            sum(tracer.durations(f"retro.views.refresh.{name}"))
            for name, _, _ in self.VIEWS)
        out = {
            "retro.views.delta_refresh_s": median(delta_s),
            "retro.views.full_refresh_s": median(full_s),
            "retro.views.refresh_pagelog_reads": median(reads),
            "retro.views.evaluated_snapshots": ratio(
                sum(r.evaluated_snapshots for r in reports), len(reports)),
            "retro.views.mode_delta_share": ratio(
                sum(1 for r in reports if r.mode == "delta"), len(reports)),
            "retro.pagelog.reads_per_op": median(reads),
            "core.mechanisms.intervals_fold_s":
                median(tracer.durations("retro.views.refresh.ledger_spans")),
            "bench.trace_coverage_ratio": ratio(
                refreshes, sum(tracer.durations("op.integrated"))),
        }
        out.update(frontend_probes(session, self.QQ,
                                   session.latest_snapshot_id))
        out.update(storage_probes(session.db.engine, "events"))
        return out


# ---------------------------------------------------------------------------
# server_mixed: the multi-session server over the wire
# ---------------------------------------------------------------------------

class ServerMixed(Workload):
    """``RQLServer`` + ``WireServer`` on loopback, closed-loop
    ``WireClient`` threads: every fifth request a write transaction, the
    rest retrospective ``aggregate_data_in_table`` calls over the seeded
    history (snapshot ids <= ``SERVER_HISTORY``, so the query's work does
    not grow while the transactions add rows)."""

    name = "server_mixed"
    #: long blocks: a block's tail, where one client has stopped and the
    #: other is still in a request, is not two-client load
    BLOCK_S = 1.0
    QS = qs_oldest(SERVER_HISTORY)
    QQ = ("SELECT grp, COUNT(*) AS cn, SUM(val) AS sv FROM events "
          "GROUP BY grp")
    ARG = [["cn", "max"], ["sv", "max"]]

    def __init__(self) -> None:
        self.server: Optional[RQLServer] = None
        self.wire: Optional[WireServer] = None
        self.clients: List[WireClient] = []

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.server = RQLServer(disk=SimulatedDisk(PAGE_SIZE),
                                aux_disk=SimulatedDisk(PAGE_SIZE),
                                gate_timeout=60.0, clock=fixed_clock,
                                workers=1)
        with self.server.connect("seed") as seeder:
            seeder.execute("CREATE TABLE events (grp INTEGER, val INTEGER)")
            for _ in range(SERVER_HISTORY):
                with seeder.transaction(with_snapshot=True):
                    for _ in range(SERVER_ROWS_PER_SNAPSHOT):
                        seeder.execute(
                            f"INSERT INTO events VALUES "
                            f"({rng.randrange(SERVER_GROUPS)}, "
                            f"{rng.randrange(1000)})")
            self.expected = self._oracle(seeder)
        self.wire = WireServer(self.server).start()
        host, port = self.wire.address
        self.clients = [WireClient(host, port)
                        for _ in range(SERVER_CLIENTS)]
        # Seeded per-client request payloads for the write transactions.
        self.txn_values = [
            [(rng.randrange(SERVER_GROUPS), rng.randrange(1000))
             for _ in range(64)] for _ in range(SERVER_CLIENTS)]
        self.sent = [0] * SERVER_CLIENTS
        self.acknowledged_txns = 0
        #: (attempted, failed) of requests sent by the traced pass
        self.layer_checks = (0, 0)

    def _oracle(self, handle) -> List[tuple]:
        """Group-wise max of per-snapshot (COUNT, SUM), folded here from
        stand-alone AS OF statements."""
        best: Dict[object, Tuple[object, object]] = {}
        for sid in range(1, SERVER_HISTORY + 1):
            rows = handle.execute(
                f"SELECT AS OF {sid} grp, COUNT(*), SUM(val) FROM events "
                f"GROUP BY grp").rows
            for grp, cn, sv in rows:
                seen = best.get(grp)
                best[grp] = (cn, sv) if seen is None else (
                    max(seen[0], cn), max(seen[1], sv))
        return sorted((g, cn, sv) for g, (cn, sv) in best.items())

    def _disconnect(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.wire is not None:
            self.wire.close()
            self.wire = None

    def close(self) -> None:
        self._disconnect()
        if self.server is not None:
            self.server.close()
            self.server = None

    def engines(self):
        return self.server.store.engine, self.server.store.aux_engine

    # -- requests --------------------------------------------------------

    def _mechanism_request(self, index: int) -> dict:
        return {"op": "mechanism", "mechanism": "aggregate_data_in_table",
                "qs": self.QS, "qq": self.QQ,
                "table": f"ledger_r{index}", "arg": self.ARG}

    def _txn_request(self, index: int, number: int) -> dict:
        values = self.txn_values[index]
        grp, val = values[number % len(values)]
        return {"op": "script",
                "sql": f"BEGIN; INSERT INTO events VALUES ({grp}, {val}); "
                       f"COMMIT;"}

    def _request(self, index: int, number: int) -> Tuple[float, bool, bool]:
        """Request ``number`` of client ``index``'s closed loop:
        (seconds, is_txn, ok)."""
        is_txn = number % SERVER_TXN_EVERY == 0
        payload = self._txn_request(index, number) if is_txn \
            else self._mechanism_request(index)
        started = time.perf_counter()
        reply = self.clients[index].request(payload)
        seconds = time.perf_counter() - started
        ok = bool(reply.get("ok"))
        if ok and not is_txn:
            ok = reply.get("rows") == len(self.expected)
        return seconds, is_txn, ok

    def op(self) -> Tuple[float, bool]:
        self.sent[0] += 1
        seconds, is_txn, ok = self._request(0, self.sent[0])
        if is_txn and ok:
            self.acknowledged_txns += 1
        return seconds, ok

    def _client_loop(self, index: int, first: int, deadline: float,
                     out: List[Tuple[float, bool, bool]],
                     errors: List[BaseException]) -> None:
        """Client thread: requests ``first``, ``first + 1``, ... until the
        deadline.  Writes only to its own ``out``; the starting thread
        folds the results in after the join."""
        number = first
        try:
            while True:
                out.append(self._request(index, number))
                number += 1
                if time.perf_counter() >= deadline:
                    return
        except (ReproError, OSError, ValueError) as exc:
            errors.append(exc)

    def run_block(self, deadline: float,
                  clients: int = SERVER_CLIENTS) -> Block:
        results: List[List[Tuple[float, bool, bool]]] = [
            [] for _ in range(clients)]
        errors: List[BaseException] = []
        threads = [
            threading.Thread(target=self._client_loop,
                             args=(n, self.sent[n] + 1, deadline,
                                   results[n], errors))
            for n in range(clients)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        block = Block(busy_s=time.perf_counter() - started)
        block.attempted = block.failed = len(errors)
        for n, sent in enumerate(results):
            self.sent[n] += len(sent)
        for seconds, is_txn, ok in (r for rs in results for r in rs):
            block.attempted += 1
            block.completed += 1
            (block.txn_latencies if is_txn
             else block.latencies).append(seconds)
            if not ok:
                block.failed += 1
            elif is_txn:
                self.acknowledged_txns += 1
        return block

    def verify(self) -> Tuple[int, int]:
        """Result tables match the oracle, every acknowledged insert is
        there, and the server holds nothing once the clients are gone."""
        checks, failed = self.layer_checks
        for index, client in enumerate(self.clients):
            reply = client.execute(
                f'SELECT grp, cn, sv FROM "ledger_r{index}"')
            checks += 1
            rows = sorted(tuple(r) for r in reply.get("rows", []))
            if rows != self.expected:
                failed += 1
        reply = self.clients[0].execute("SELECT COUNT(*) FROM events")
        checks += 1
        if reply.get("rows") != [[
                SERVER_HISTORY * SERVER_ROWS_PER_SNAPSHOT
                + self.acknowledged_txns]]:
            failed += 1
        self._disconnect()
        leaks = self.server.leak_report()
        checks += 1
        if any(leaks.values()):
            failed += 1
        return checks, failed

    def layers(self, tracer: Tracer, budget_s: float) -> Dict[str, float]:
        client = self.clients[0]
        wire_s: List[float] = []
        for op_id in range(5):
            with tracer.span("op.integrated", op_id) as span:
                client.request(self._mechanism_request(0))
            wire_s.append(span["end"] - span["start"])
        direct_s: List[float] = []
        txn_alone: List[float] = []
        with self.server.connect("ledger-direct") as handle:
            for op_id in range(5):
                with tracer.span("server.scheduler.direct",
                                 100 + op_id) as span:
                    handle.aggregate_data_in_table(
                        self.QS, self.QQ, "ledger_direct",
                        [tuple(pair) for pair in self.ARG])
                direct_s.append(span["end"] - span["start"])
            certify_s = time_calls(lambda: handle.session.certify(
                "AggregateDataInTable", self.QS, self.QQ,
                [tuple(pair) for pair in self.ARG]))
            frontend = frontend_probes(handle.session, self.QQ,
                                       SERVER_HISTORY)
        for _ in range(10):
            started = time.perf_counter()
            self.sent[0] += 1
            reply = client.request(self._txn_request(0, self.sent[0]))
            txn_alone.append(time.perf_counter() - started)
            if reply.get("ok"):
                self.acknowledged_txns += 1
        ping_s = time_calls(lambda: client.request({"op": "ping"}))

        share = budget_s * 0.25
        one = self.run_block(time.perf_counter() + share, clients=1)
        two = self.run_block(time.perf_counter() + share)
        one_rate = ratio(one.completed, one.busy_s)
        self.layer_checks = (one.attempted + two.attempted,
                             one.failed + two.failed)
        out = {
            "server.wire.ping_rtt_s": ping_s,
            "server.wire.overhead_s": median(wire_s) - median(direct_s),
            "server.store.txn_alone_s": median(txn_alone),
            "server.store.txn_p50_s": median(two.txn_latencies),
            "server.store.gate_wait_s":
                median(two.txn_latencies) - median(txn_alone),
            "server.scheduler.one_client_ops_per_s": one_rate,
            "server.scheduler.scaling_ratio":
                ratio(ratio(two.completed, two.busy_s), one_rate),
            "analysis.query.certify_s": certify_s,
            "bench.trace_coverage_ratio":
                ratio(median(direct_s), median(wire_s)),
            # the traced requests ran alone: compare with one client
            "bench.trace_overhead_ratio":
                ratio(median(wire_s), median(one.latencies)),
        }
        out.update(frontend)
        out.update(storage_probes(self.server.store.engine, "events"))
        return out


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    cls.name: cls for cls in (ScanAgg, PointHistory, TableFold,
                              UpdateHistory, ViewRefresh, ServerMixed)
}
