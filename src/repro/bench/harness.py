"""Benchmark harness: environments, queries, and cost accounting.

Reproduces the paper's Section 5 methodology:

* TPC-H database + snapshot histories built by the refresh workloads
  (environments are cached per configuration — histories are immutable
  once built, and RQL queries never mutate application data);
* the snapshot page cache is cleared before every RQL query ("we assume
  the snapshot page cache is empty at the start of an RQL query");
* ``all_cold_cost`` measures the paper's all-cold baseline: a
  stand-alone snapshot query per snapshot with the cache cleared each
  time, so every iteration pays cold-iteration I/O;
* ratio C = (RQL query cost) / (all-cold cost), reported both in
  simulated seconds and in raw Pagelog-read counts (the deterministic
  form of the same quantity).

Cost model: the per-page Pagelog charge is scaled up relative to the
paper's SSD so that the I/O-to-CPU ratio of a cold Qq_io iteration
matches the paper's Figure 8 (pure-Python query evaluation is ~50x
slower than SQLite's C, so the simulated device is slowed by a similar
factor).  Shapes — who wins, crossovers, convergence — are invariant to
this constant; see EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.core import RQLSession
from repro.core.mechanisms import RQLResult
from repro.core.rewrite import rewrite_qq
from repro.retro.metrics import IoCharges, IterationMetrics, MetricsSink
from repro.workloads import SnapshotHistoryBuilder, UpdateWorkload

#: Paper Table 1, reproduced verbatim (queries are used as written; the
#: update workloads are realized at the configured scale factor).
PAPER_PARAMETERS: Dict[str, str] = {
    "UW15": "Delete and insert 15K orders and their lineitem records "
            "per snapshot (1% of orders; overwrite cycle ~100)",
    "UW30": "Delete and insert 30K orders and their lineitem records "
            "per snapshot (2% of orders; overwrite cycle ~50)",
    "Qs_N": "Query that determines the snapshot interval length N",
    "Qq_io": "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'O'",
    "Qq_cpu": "SELECT SUM(l_extendedprice) AS revenue FROM lineitem, "
              "part WHERE p_partkey = l_partkey and p_type = "
              "'STANDARD POLISHED TIN'",
    "Qq_collate": "SELECT o_orderkey FROM orders WHERE o_orderdate "
                  "< '[DATE]'",
    "Qq_agg": "SELECT o_custkey, COUNT(*) AS cn, AVG(o_totalprice) AS av "
              "FROM orders GROUP BY o_custkey",
    "Qq_int": "SELECT o_orderkey, o_custkey FROM orders",
}

QQ_IO = "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'O'"
QQ_CPU = ("SELECT SUM(l_extendedprice) AS revenue FROM lineitem, part "
          "WHERE p_partkey = l_partkey AND p_type = "
          "'STANDARD POLISHED TIN'")
QQ_AGG = ("SELECT o_custkey, COUNT(*) AS cn, AVG(o_totalprice) AS av "
          "FROM orders GROUP BY o_custkey")
QQ_INT = "SELECT o_orderkey, o_custkey FROM orders"


def qq_collate(date: str) -> str:
    return f"SELECT o_orderkey FROM orders WHERE o_orderdate < '{date}'"


#: Scaled device model (see module docstring + EXPERIMENTS.md).
BENCH_CHARGES = IoCharges(
    pagelog_read_seconds=1e-3,
    db_read_seconds=5e-6,
    spt_entry_seconds=2e-6,
    cache_hit_seconds=2e-6,
)

#: Default simulation scale factor; override with REPRO_BENCH_SCALE.
DEFAULT_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.001"))


@dataclass
class BenchEnv:
    """One loaded TPC-H database + snapshot history."""

    session: RQLSession
    builder: SnapshotHistoryBuilder
    workload: UpdateWorkload
    snapshot_ids: List[int]
    native_indexes: Tuple[str, ...] = ()

    @property
    def last_snapshot(self) -> int:
        return self.snapshot_ids[-1]

    def clear_snapshot_cache(self) -> None:
        self.session.db.engine.retro.cache.clear()

    def qs_interval(self, first: int, length: int, step: int = 1) -> str:
        """Qs selecting `length` snapshots from `first`, strided."""
        last = first + (length - 1) * step
        predicate = f"snap_id BETWEEN {first} AND {last}"
        if step > 1:
            predicate += f" AND (snap_id - {first}) % {step} = 0"
        return (f"SELECT snap_id FROM SnapIds WHERE {predicate} "
                f"ORDER BY snap_id")


_ENV_CACHE: Dict[tuple, BenchEnv] = {}


def get_env(workload: UpdateWorkload, snapshots: int,
            scale_factor: float = DEFAULT_SCALE, seed: int = 7,
            native_indexes: Sequence[Tuple[str, str, str]] = ()) -> BenchEnv:
    """Build (or reuse) a snapshot-history environment.

    ``native_indexes`` are (name, table, column) triples created BEFORE
    the history, so every snapshot captures them (Figure 9's "native
    index" configuration).
    """
    key = (workload.name, snapshots, scale_factor, seed,
           tuple(native_indexes))
    env = _ENV_CACHE.get(key)
    if env is not None:
        return env
    session = RQLSession()
    builder = SnapshotHistoryBuilder(session, scale_factor=scale_factor,
                                     seed=seed)
    builder.load_initial()
    for name, table, column in native_indexes:
        session.execute(f"CREATE INDEX {name} ON {table} ({column})")
    session.db.checkpoint()
    ids = builder.build_history(workload, snapshots)
    env = BenchEnv(
        session=session, builder=builder, workload=workload,
        snapshot_ids=ids,
        native_indexes=tuple(n for n, _, _ in native_indexes),
    )
    _ENV_CACHE[key] = env
    return env


def clear_env_cache() -> None:
    _ENV_CACHE.clear()


# ---------------------------------------------------------------------------
# Cost extraction
# ---------------------------------------------------------------------------

@dataclass
class CostSummary:
    """One run's cost in both accounting schemes."""

    simulated_seconds: float
    pagelog_reads: int
    cache_hits: int
    db_reads: int
    iterations: int
    breakdown: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_sink(cls, sink: MetricsSink,
                  charges: IoCharges = BENCH_CHARGES) -> "CostSummary":
        breakdown: Dict[str, float] = {}
        for iteration in sink.iterations:
            for part, seconds in iteration.breakdown(charges).items():
                breakdown[part] = breakdown.get(part, 0.0) + seconds
        return cls(
            simulated_seconds=sum(
                it.total_seconds(charges) for it in sink.iterations
            ),
            pagelog_reads=sink.total_pagelog_reads(),
            cache_hits=sum(it.cache_hits for it in sink.iterations),
            db_reads=sum(it.db_reads for it in sink.iterations),
            iterations=len(sink.iterations),
            breakdown=breakdown,
        )


def iteration_breakdown(metrics: IterationMetrics,
                        charges: IoCharges = BENCH_CHARGES) -> Dict[str, float]:
    return metrics.breakdown(charges)


def run_rql(env: BenchEnv, mechanism: str, qs: str, qq: str, table: str,
            arg=None, clear_cache: bool = True) -> RQLResult:
    """Run one RQL query under the paper's cache methodology, through
    the reference loop: its per-iteration sink is what the figures
    break down."""
    if clear_cache:
        env.clear_snapshot_cache()
    return env.session.run_reference(mechanism, qs, qq, table, arg)


def parallel_makespan_seconds(info, charges: IoCharges = BENCH_CHARGES,
                              ) -> float:
    """Simulated wall-clock of a parallel run under ``charges``.

    Workers run concurrently, so the evaluation phase costs as much as
    the slowest partition; the merge phase is serial and is added on
    top.  (Measured thread wall-clock would be meaningless under the
    GIL — the simulated cost model is the deterministic equivalent, the
    same accounting the serial benchmarks use.)
    """
    per_worker = [
        sum(it.total_seconds(charges) for it in sink.iterations)
        for sink in info.worker_sinks
    ]
    return max(per_worker, default=0.0) + info.merge_seconds


def metered_statement(session: RQLSession, sql: str,
                      snapshot_id: int = 0):
    """Run one statement as one metered iteration of its own sink:
    returns (result, the iteration's metrics).  Plain ``execute`` names
    no sink, so the statement meters into the facade's default — set
    for exactly this statement."""
    sink = MetricsSink(BENCH_CHARGES)
    previous = session.db.metrics
    session.db.attach_metrics(sink)
    try:
        sink.begin_iteration(snapshot_id)
        result = session.execute(sql)
        sink.end_iteration()
    finally:
        session.db.attach_metrics(previous)
    return result, sink.iterations[0]


def standalone_snapshot_query(env: BenchEnv, qq: str,
                              snapshot_id: int,
                              clear_cache: bool = True) -> IterationMetrics:
    """One stand-alone snapshot query with its own metrics."""
    if clear_cache:
        env.clear_snapshot_cache()
    return metered_statement(env.session, rewrite_qq(qq, snapshot_id),
                             snapshot_id)[1]


def current_state_query(env: BenchEnv, qq: str) -> IterationMetrics:
    """The same Qq on the current database (Figure 8's last bar)."""
    return metered_statement(env.session, qq.rstrip(";"))[1]


def all_cold_cost(env: BenchEnv, qq: str,
                  snapshot_ids: Sequence[int]) -> CostSummary:
    """The paper's all-cold baseline: every iteration pays cold I/O."""
    sink = MetricsSink(BENCH_CHARGES)
    for snapshot_id in snapshot_ids:
        iteration = standalone_snapshot_query(env, qq, snapshot_id,
                                              clear_cache=True)
        sink.iterations.append(iteration)
    return CostSummary.from_sink(sink)


def qs_snapshot_ids(env: BenchEnv, qs: str) -> List[int]:
    return [int(r[0]) for r in env.session.execute(qs).rows]


def ratio_c(env: BenchEnv, mechanism: str, qs: str, qq: str, table: str,
            arg=None) -> Dict[str, float]:
    """Ratio C for one (Qs, Qq) pair: measured RQL cost / all-cold cost.

    Returns both the simulated-latency ratio and the deterministic
    Pagelog-read-count ratio.
    """
    snapshot_ids = qs_snapshot_ids(env, qs)
    result = run_rql(env, mechanism, qs, qq, table, arg)
    rql = CostSummary.from_sink(result.metrics)
    # Force bench charges for the RQL sink (mechanisms default IoCharges).
    rql_seconds = sum(
        it.total_seconds(BENCH_CHARGES) for it in result.metrics.iterations
    )
    cold = all_cold_cost(env, qq, snapshot_ids)
    return {
        "c_simulated": rql_seconds / cold.simulated_seconds
        if cold.simulated_seconds else float("nan"),
        "c_pagelog": rql.pagelog_reads / cold.pagelog_reads
        if cold.pagelog_reads else float("nan"),
        "rql_seconds": rql_seconds,
        "all_cold_seconds": cold.simulated_seconds,
        "rql_pagelog_reads": float(rql.pagelog_reads),
        "all_cold_pagelog_reads": float(cold.pagelog_reads),
        "iterations": float(len(snapshot_ids)),
    }


def recovery_time_summary(seed: int = 0, tear: bool = False,
                          crash_points: Sequence[int] = None,
                          ) -> Dict[str, float]:
    """Recovery-cost metric: what a crash costs to come back from.

    Runs the chaos crash-point sweep (see :mod:`repro.chaos`) and
    reduces it to the durability numbers the bench report tracks: mean
    and total wall-clock seconds spent inside recovery (``Database``
    reopen after a simulated power loss) and the simulated device
    seconds the recovery I/O was charged.  Every crash point is also
    oracle-verified, so the metric cannot be "fast because wrong".
    """
    from repro.chaos import run_crash_sweep

    result = run_crash_sweep(seed=seed, tear=tear,
                             crash_points=crash_points)
    points = result.crash_points or 1
    return {
        "crash_points": float(result.crash_points),
        "verified": float(result.verified),
        "mean_recovery_wall_seconds": result.mean_recovery_wall_seconds,
        "total_recovery_wall_seconds": result.recovery_wall_seconds,
        "mean_recovery_sim_seconds": result.recovery_sim_seconds / points,
        "total_recovery_sim_seconds": result.recovery_sim_seconds,
    }
