"""One experiment function per figure of the paper's evaluation.

Scaled experiment design (documented per DESIGN.md §2): the paper runs
TPC-H at SF 1 with snapshot intervals of up to 100; we run a smaller
scale factor with proportionally smaller intervals.  Overwrite cycles
come from the workload *fractions*, so the interval-vs-cycle geometry —
which snapshots are "old", how far the sliding window moved — matches
the paper exactly, in units of overwrite cycles:

* the paper's interval of 50 at cycle 50 (UW30) == our interval equal
  to one UW-cycle;
* the paper's "Slast-50" (one UW30 cycle back) == our "Slast-cycle".

Each function returns a :class:`FigureResult` whose ``series`` carry the
same labels the paper's figures use, plus ``checks`` — the qualitative
claims (who wins, where curves converge) asserted by the benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.bench.harness import (
    BENCH_CHARGES,
    QQ_AGG,
    QQ_CPU,
    QQ_INT,
    QQ_IO,
    BenchEnv,
    current_state_query,
    get_env,
    qq_collate,
    ratio_c,
    run_rql,
    standalone_snapshot_query,
)
from repro.core.mechanisms import AggregateDataInTableRun
from repro.retro.metrics import IterationMetrics, MetricsSink
from repro.workloads import UW15, UW30, UW60, UW7_5, UpdateWorkload


@dataclass
class FigureResult:
    """Reproduced data for one paper figure."""

    figure: str
    title: str
    #: label -> list of (x, {metric: value}) points
    series: Dict[str, List[Tuple[object, Dict[str, float]]]]
    notes: List[str] = field(default_factory=list)

    def format_text(self) -> str:
        lines = [f"=== {self.figure}: {self.title} ==="]
        for note in self.notes:
            lines.append(f"  note: {note}")
        for label, points in self.series.items():
            lines.append(f"  [{label}]")
            for x, metrics in points:
                rendered = ", ".join(
                    f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in metrics.items()
                )
                lines.append(f"    x={x}: {rendered}")
        return "\n".join(lines)


# Scaled experiment constants.
INTERVAL = 16          # the paper's 50-snapshot interval, scaled
OLD_START = 1          # oldest snapshots sit at the front of the history


def _history_length(workload: UpdateWorkload, max_span: int) -> int:
    """Snapshots needed so an interval starting at 1 is fully old."""
    return max_span + workload.overwrite_cycle + 4


def _env_fig6(workload: UpdateWorkload) -> BenchEnv:
    # Max span: step-10 series with 6 points spans 51 snapshots.
    return get_env(workload, _history_length(workload, 56))


# ---------------------------------------------------------------------------
# Figure 6 — ratio C vs snapshot interval length (old snapshots)
# ---------------------------------------------------------------------------

FIG6_LENGTHS = (1, 2, 5, 10, 16, 24, 32)
FIG6_STEP10_LENGTHS = (1, 2, 4, 6)


def run_fig6() -> FigureResult:
    series: Dict[str, List[Tuple[object, Dict[str, float]]]] = {}
    for workload in (UW30, UW15):
        env = _env_fig6(workload)
        for step, lengths in ((1, FIG6_LENGTHS),
                              (10, FIG6_STEP10_LENGTHS)):
            label = f"{workload.name}, AggV(Qs_N"
            label += " with step 10" if step == 10 else ""
            label += ", Qq_io, AVG)"
            points = []
            for length in lengths:
                qs = env.qs_interval(OLD_START, length, step=step)
                ratios = ratio_c(
                    env, "AggregateDataInVariable",
                    qs, QQ_IO, "fig6_result", "avg",
                )
                points.append((length, ratios))
            series[label] = points
    return FigureResult(
        figure="Figure 6",
        title="Ratio C with old snapshots: impact of sharing between "
              "snapshots",
        series=series,
        notes=[
            f"interval lengths scaled from the paper's 0-100 to "
            f"{FIG6_LENGTHS}",
            "c_simulated uses the scaled device model; c_pagelog is the "
            "deterministic I/O-count form",
        ],
    )


def fig6_checks(result: FigureResult) -> None:
    """The paper's qualitative claims for Figure 6."""
    for label, points in result.series.items():
        by_x = {x: m for x, m in points}
        # C is highest for the shortest interval (cold dominates).
        assert by_x[1]["c_pagelog"] >= 0.99, (label, by_x[1])
        longest = points[-1][1]["c_pagelog"]
        assert longest < by_x[1]["c_pagelog"], label
        # For long intervals, C converges: last two lengths close.
        last_two = [m["c_pagelog"] for _, m in points[-2:]]
        assert abs(last_two[0] - last_two[1]) < 0.25, (label, last_two)
    # More sharing -> lower C: UW15 step-1 below UW30 step-1 at the
    # longest interval (UW15 diffs are half the size).
    uw30 = result.series["UW30, AggV(Qs_N, Qq_io, AVG)"][-1][1]
    uw15 = result.series["UW15, AggV(Qs_N, Qq_io, AVG)"][-1][1]
    assert uw15["c_pagelog"] <= uw30["c_pagelog"] * 1.1, (uw15, uw30)
    # Skipping snapshots reduces sharing -> step-10 C above step-1 C.
    for workload in ("UW30", "UW15"):
        step1 = dict(result.series[
            f"{workload}, AggV(Qs_N, Qq_io, AVG)"])
        step10 = dict(result.series[
            f"{workload}, AggV(Qs_N with step 10, Qq_io, AVG)"])
        for length in FIG6_STEP10_LENGTHS[2:]:
            if length in step1:
                assert step10[length]["c_pagelog"] >= \
                    step1[length]["c_pagelog"], (workload, length)


# ---------------------------------------------------------------------------
# Figure 7 — ratio C vs interval start (recent snapshots)
# ---------------------------------------------------------------------------

def run_fig7() -> FigureResult:
    series: Dict[str, List[Tuple[object, Dict[str, float]]]] = {}
    for workload in (UW30, UW15):
        env = _env_fig6(workload)
        cycle = workload.overwrite_cycle
        last = env.last_snapshot
        # Interval starts from one cycle (+margin) back up to the most
        # recent possible; every interval must fit before Slast.
        offsets = sorted(
            {cycle + 20, cycle, (3 * cycle) // 4, cycle // 2,
             max(cycle // 4, INTERVAL), INTERVAL},
            reverse=True,
        )
        label = f"{workload.name}, AggV(Qs_{INTERVAL}, Qq_io, AVG)"
        points = []
        for offset in offsets:
            start = max(1, last - offset)
            qs = env.qs_interval(start, INTERVAL)
            ratios = ratio_c(
                env, "AggregateDataInVariable",
                qs, QQ_IO, "fig7_result", "avg",
            )
            points.append((f"Slast-{offset}", ratios))
        series[label] = points
    return FigureResult(
        figure="Figure 7",
        title="Ratio C with recent snapshots: impact of sharing with "
              "current state",
        series=series,
        notes=[
            f"interval length {INTERVAL} (paper: 50); offsets expressed "
            f"in snapshots before Slast, spanning one overwrite cycle",
        ],
    )


def fig7_checks(result: FigureResult) -> None:
    for label, points in result.series.items():
        values = [m["all_cold_seconds"] for _, m in points]
        # All-cold cost drops as the interval becomes more recent
        # (sharing with the current state).
        assert values[0] > values[-1], (label, values)
        # Absolute RQL cost also drops for recent intervals.
        rql = [m["rql_seconds"] for _, m in points]
        assert rql[0] > rql[-1], (label, rql)


# ---------------------------------------------------------------------------
# Figure 8 — single-iteration breakdown, cold/hot, old/recent/current
# ---------------------------------------------------------------------------

def _cold_iteration(env: BenchEnv, qq: str, sid: int) -> IterationMetrics:
    return standalone_snapshot_query(env, qq, sid, clear_cache=True)


def _hot_iteration(env: BenchEnv, qq: str, sid: int) -> IterationMetrics:
    """Warm the cache with the preceding snapshot, then measure sid."""
    env.clear_snapshot_cache()
    warm = max(1, sid - 1)
    standalone_snapshot_query(env, qq, warm, clear_cache=False)
    return standalone_snapshot_query(env, qq, sid, clear_cache=False)


def run_fig8() -> FigureResult:
    env = _env_fig6(UW30)
    cycle = UW30.overwrite_cycle
    last = env.last_snapshot
    bars: List[Tuple[str, IterationMetrics]] = [
        ("Old snapshot cold iteration",
         _cold_iteration(env, QQ_IO, OLD_START + 1)),
        ("Old snapshot hot iteration",
         _hot_iteration(env, QQ_IO, OLD_START + 1)),
        (f"Slast-{cycle} cold iteration",
         _cold_iteration(env, QQ_IO, last - cycle)),
        (f"Slast-{cycle} hot iteration",
         _hot_iteration(env, QQ_IO, last - cycle)),
        (f"Slast-{cycle // 2} hot iteration",
         _hot_iteration(env, QQ_IO, last - cycle // 2)),
        ("Slast hot iteration", _hot_iteration(env, QQ_IO, last)),
        ("Current State", current_state_query(env, QQ_IO)),
    ]
    series = {
        label: [("breakdown", _augment(metrics))]
        for label, metrics in bars
    }
    return FigureResult(
        figure="Figure 8",
        title="Single-iteration cost for AggV(Qs, Qq_io, AVG), UW30: "
              "I/O vs SPT build vs query eval vs UDF",
        series=series,
        notes=[f"'Slast-{cycle}' maps the paper's Slast-50 (one UW30 "
               f"overwrite cycle before the last snapshot)"],
    )


def _augment(metrics: IterationMetrics) -> Dict[str, float]:
    out = dict(metrics.breakdown(BENCH_CHARGES))
    out["total"] = metrics.total_seconds(BENCH_CHARGES)
    out["pagelog_reads"] = float(metrics.pagelog_reads)
    out["db_reads"] = float(metrics.db_reads)
    out["cache_hits"] = float(metrics.cache_hits)
    return out


def fig8_checks(result: FigureResult) -> None:
    def bar(label_prefix: str) -> Dict[str, float]:
        for label, points in result.series.items():
            if label.startswith(label_prefix):
                return points[0][1]
        raise AssertionError(f"missing bar {label_prefix}")

    old_cold = bar("Old snapshot cold")
    old_hot = bar("Old snapshot hot")
    slast_hot = bar("Slast hot")
    current = bar("Current State")
    # Cold reads far more from the Pagelog than hot.
    assert old_cold["pagelog_reads"] > 4 * old_hot["pagelog_reads"]
    # Recent snapshots read mostly from the database (shared pages).
    assert slast_hot["pagelog_reads"] < old_cold["pagelog_reads"] / 4
    assert slast_hot["db_reads"] > 0
    # Current state does no snapshot I/O at all.
    assert current["pagelog_reads"] == 0
    # Old cold iteration is the most expensive bar.
    assert old_cold["total"] >= max(
        old_hot["total"], slast_hot["total"], current["total"],
    )


# ---------------------------------------------------------------------------
# Figure 9 — CPU-intensive Qq: covering-index creation dominates
# ---------------------------------------------------------------------------

FIG9_INTERVAL = 6


def _fig9_env(with_native_index: bool) -> BenchEnv:
    indexes = (("lineitem_partkey", "lineitem", "l_partkey"),) \
        if with_native_index else ()
    return get_env(UW30, _history_length(UW30, FIG9_INTERVAL),
                   native_indexes=indexes)


def run_fig9() -> FigureResult:
    series: Dict[str, List[Tuple[object, Dict[str, float]]]] = {}
    # The last run is the yardstick the paper reads Qq_cpu against: Qq_io
    # over the same snapshots of the same (index-free) environment.
    for qq, with_index, suffix in ((QQ_CPU, False, "w/o index"),
                                   (QQ_CPU, True, "w/ index"),
                                   (QQ_IO, False, "Qq_io")):
        env = _fig9_env(with_index)
        qs = env.qs_interval(OLD_START, FIG9_INTERVAL)
        result = run_rql(env, "AggregateDataInVariable", qs, qq,
                         "fig9_result", "avg")
        iterations = result.metrics.iterations
        cold = _augment(iterations[0])
        hot = _mean_breakdown(iterations[1:])
        series[f"cold iteration {suffix}"] = [("breakdown", cold)]
        series[f"hot iteration {suffix}"] = [("breakdown", hot)]
    return FigureResult(
        figure="Figure 9",
        title="Single-iteration cost for AggV(Qs, Qq_cpu, AVG), UW30: "
              "ad-hoc (auto covering index) vs native index",
        series=series,
        notes=["the auto covering index on lineitem(l_partkey) is "
               "rebuilt per iteration when no native index exists",
               "'Qq_io' is AggV(Qs, Qq_io, AVG) over the same snapshots "
               "without the index: its cold/hot gap is what Qq_cpu's is "
               "compared with"],
    )


def _mean_breakdown(iterations: Sequence[IterationMetrics]) -> Dict[str, float]:
    if not iterations:
        return {}
    out: Dict[str, float] = {}
    for iteration in iterations:
        for key, value in _augment(iteration).items():
            out[key] = out.get(key, 0.0) + value
    return {k: v / len(iterations) for k, v in out.items()}


def fig9_checks(result: FigureResult) -> None:
    cold_wo = result.series["cold iteration w/o index"][0][1]
    hot_wo = result.series["hot iteration w/o index"][0][1]
    cold_w = result.series["cold iteration w/ index"][0][1]
    hot_w = result.series["hot iteration w/ index"][0][1]
    # Without a native index, the per-iteration covering-index build is
    # the dominant CPU cost, and dominates hot iterations outright.
    assert cold_wo["index_creation"] > cold_wo["query_eval"], cold_wo
    assert hot_wo["index_creation"] > hot_wo["query_eval"], hot_wo
    assert hot_wo["index_creation"] > hot_wo["io"], hot_wo
    # With a native index there is no per-iteration index build.
    assert cold_w["index_creation"] == 0.0
    assert hot_w["index_creation"] == 0.0
    # Native-index iterations are cheaper overall.
    assert hot_w["total"] < hot_wo["total"]
    # The cold-vs-hot gap is smaller than Qq_io's over the same
    # snapshots: I/O is only part of the total (paper: "the cost
    # difference ... is less").  Both sides are measured here — a
    # constant would set real CPU against simulated I/O and go stale
    # whenever either got cheaper.
    cold_io = result.series["cold iteration Qq_io"][0][1]
    hot_io = result.series["hot iteration Qq_io"][0][1]
    assert cold_wo["total"] / hot_wo["total"] \
        < cold_io["total"] / hot_io["total"], \
        (cold_wo, hot_wo, cold_io, hot_io)


# ---------------------------------------------------------------------------
# Figure 10 — CollateData UDF cost vs Qq output size
# ---------------------------------------------------------------------------

FIG10_INTERVAL = 10
#: Order-date quantile fractions mapping the paper's output sizes
#: (500 / 100K / 500K / 1.6M rows at SF 1 = ~0.03% / 6.7% / 33% / 100%).
FIG10_FRACTIONS = (0.0005, 0.067, 0.33, 1.0)


def _date_quantile(env: BenchEnv, fraction: float) -> str:
    rows = env.session.execute(
        "SELECT o_orderdate FROM orders ORDER BY o_orderdate"
    ).rows
    index = min(len(rows) - 1, int(fraction * len(rows)))
    if fraction >= 1.0:
        return "1999-12-31"
    return str(rows[index][0])


def run_fig10() -> FigureResult:
    env = _env_fig6(UW30)
    qs = env.qs_interval(OLD_START, FIG10_INTERVAL)
    series: Dict[str, List[Tuple[object, Dict[str, float]]]] = {}
    for fraction in FIG10_FRACTIONS:
        date = _date_quantile(env, fraction)
        result = run_rql(env, "CollateData", qs, qq_collate(date),
                         "fig10_result")
        iterations = result.metrics.iterations
        rows_per_snapshot = result.result_rows / max(1, result.iterations)
        label = f"~{int(rows_per_snapshot)} records"
        series[f"cold iteration {label}"] = [
            ("breakdown", _augment(iterations[0])),
        ]
        series[f"hot iteration {label}"] = [
            ("breakdown", _mean_breakdown(iterations[1:])),
        ]
    return FigureResult(
        figure="Figure 10",
        title="Single-iteration cost for CollateData(Qs, Qq_collate) "
              "with varying Qq output size, UW30",
        series=series,
        notes=["output sizes are the paper's fractions of the orders "
               "table (0.03%% to 100%%), realized at simulation scale"],
    )


def fig10_checks(result: FigureResult) -> None:
    hot_bars = [(label, points[0][1])
                for label, points in result.series.items()
                if label.startswith("hot")]
    udf = [m["rql_udf"] for _, m in hot_bars]
    # UDF cost grows with output size and dominates at the largest.
    assert udf[-1] > udf[0] * 3, udf
    largest = hot_bars[-1][1]
    assert largest["rql_udf"] > largest["io"], largest
    assert largest["rql_udf"] > largest["query_eval"] * 0.5, largest


# ---------------------------------------------------------------------------
# Figure 11 — CollateData + SQL vs AggregateDataInTable (+memory)
# ---------------------------------------------------------------------------

FIG11_INTERVAL = INTERVAL


def run_fig11() -> FigureResult:
    env = _env_fig6(UW30)
    session = env.session
    qs = env.qs_interval(OLD_START, FIG11_INTERVAL)
    series: Dict[str, List[Tuple[object, Dict[str, float]]]] = {}

    def total_seconds(sink: MetricsSink) -> float:
        return sum(i.total_seconds(BENCH_CHARGES) for i in sink.iterations)

    for n_aggs, (agg_spec, extra_sql) in {
        1: ([("cn", "max")],
            'SELECT o_custkey, MAX(cn) FROM "fig11_coll" '
            "GROUP BY o_custkey"),
        2: ([("cn", "max"), ("av", "max")],
            'SELECT o_custkey, MAX(cn), MAX(av) FROM "fig11_coll" '
            "GROUP BY o_custkey"),
    }.items():
        agg_result = run_rql(env, "AggregateDataInTable", qs, QQ_AGG,
                             "fig11_agg", agg_spec)
        coll_result = run_rql(env, "CollateData", qs, QQ_AGG, "fig11_coll")
        extra_started = time.perf_counter()
        session.execute(extra_sql)
        extra_seconds = time.perf_counter() - extra_started
        series[f"CollateData + agg query ({n_aggs} AggFunc)"] = [(
            "totals", {
                "total_seconds": total_seconds(coll_result.metrics)
                + extra_seconds,
                "extra_agg_seconds": extra_seconds,
                "result_bytes": float(coll_result.result_table_bytes),
                "result_rows": float(coll_result.result_rows),
            },
        )]
        series[f"AggregateDataInTable ({n_aggs} AggFunc)"] = [(
            "totals", {
                "total_seconds": total_seconds(agg_result.metrics),
                "extra_agg_seconds": 0.0,
                "result_bytes": float(agg_result.result_table_bytes
                                      + agg_result.result_index_bytes),
                "result_rows": float(agg_result.result_rows),
            },
        )]
    return FigureResult(
        figure="Figure 11",
        title="Same result via CollateData+SQL vs AggregateDataInTable, "
              "1 and 2 aggregations (total time and memory footprint)",
        series=series,
    )


def fig11_checks(result: FigureResult) -> None:
    coll1 = result.series["CollateData + agg query (1 AggFunc)"][0][1]
    coll2 = result.series["CollateData + agg query (2 AggFunc)"][0][1]
    agg1 = result.series["AggregateDataInTable (1 AggFunc)"][0][1]
    agg2 = result.series["AggregateDataInTable (2 AggFunc)"][0][1]
    # AggT's memory footprint is much smaller (paper: >1GB vs <100MB).
    # The 2-AggFunc variant groups on o_custkey alone, the regime of
    # the paper's setup; CollateData's table instead scales with the
    # snapshot-set size.
    assert agg2["result_bytes"] < coll2["result_bytes"] / 3
    assert agg2["result_rows"] < coll2["result_rows"] / 10
    assert agg1["result_rows"] < coll1["result_rows"]
    # AggT costs at most modest overhead over CollateData (paper: ~6%,
    # we allow a loose factor for Python timing noise).
    assert agg2["total_seconds"] < coll2["total_seconds"] * 2.5
    # An extra aggregation adds no significant overhead.
    assert agg2["total_seconds"] < agg1["total_seconds"] * 1.6


# ---------------------------------------------------------------------------
# Figure 12 — per-iteration CollateData vs AggregateDataInTable
# ---------------------------------------------------------------------------

def run_fig12() -> FigureResult:
    # Aggregating both cn and av makes o_custkey the only grouping
    # column, so Qq records repeatedly hit the same stored group — the
    # paper's regime (1M records per snapshot over ~22K groups).
    env = _env_fig6(UW30)
    qs = env.qs_interval(OLD_START, FIG11_INTERVAL)
    coll_result = run_rql(env, "CollateData", qs, QQ_AGG, "fig12_coll")
    env.clear_snapshot_cache()
    env.session.db.execute('DROP TABLE IF EXISTS "fig12_agg"')
    agg = AggregateDataInTableRun(env.session.db, QQ_AGG, "fig12_agg",
                                  [("cn", "max"), ("av", "max")])
    agg_result = agg.run(qs)
    agg_hot = _mean_breakdown(agg_result.metrics.iterations[1:])
    # Operation counts — the paper's explanation of the cost gap:
    # AggT runs a select (probe) per Qq record PLUS inserts/updates,
    # CollateData only inserts.
    agg_hot["probes"] = float(agg.probes)
    agg_hot["updates_applied"] = float(agg.updates_applied)
    agg_hot["rows_inserted"] = float(agg.rows_inserted)
    coll_hot = _mean_breakdown(coll_result.metrics.iterations[1:])
    coll_hot["rows_inserted"] = float(coll_result.result_rows)
    series = {
        "CollateData cold iteration": [
            ("breakdown", _augment(coll_result.metrics.iterations[0])),
        ],
        "CollateData hot iteration": [("breakdown", coll_hot)],
        "AggregateDataInTable cold iteration": [
            ("breakdown", _augment(agg_result.metrics.iterations[0])),
        ],
        "AggregateDataInTable hot iteration": [("breakdown", agg_hot)],
    }
    return FigureResult(
        figure="Figure 12",
        title="Single-iteration cost: CollateData vs "
              "AggregateDataInTable on Qq_agg, UW30",
        series=series,
        notes=["AggT's cold iteration includes result-index creation; "
               "its hot iterations probe the index per Qq record"],
    )


def fig12_checks(result: FigureResult) -> None:
    coll_cold = result.series["CollateData cold iteration"][0][1]
    coll_hot = result.series["CollateData hot iteration"][0][1]
    agg_cold = result.series["AggregateDataInTable cold iteration"][0][1]
    agg_hot = result.series["AggregateDataInTable hot iteration"][0][1]
    # Cold: AggT pays for result-index creation + indexed inserts.
    assert agg_cold["rql_udf"] > coll_cold["rql_udf"]
    # Hot: AggT performs strictly more operations — one index probe per
    # Qq record PLUS its inserts/updates, vs CollateData's inserts only
    # (the paper's "1M select operations ... and a number of inserts or
    # updates" vs "1M insert operations").  Operation counts are the
    # deterministic form of the claim; the timing assertion is tolerant
    # because a pure-Python probe is relatively cheaper than SQLite's.
    agg_ops = (agg_hot["probes"] + agg_hot["updates_applied"]
               + agg_hot["rows_inserted"])
    assert agg_ops > coll_hot["rows_inserted"], (agg_hot, coll_hot)
    assert agg_hot["probes"] > 0 and agg_hot["updates_applied"] > 0
    # No hot-timing assertion: in this substrate a probe+update of the
    # small result table is cheaper than an insert into CollateData's
    # ever-growing one, inverting the paper's per-operation balance.
    # Recorded as a documented deviation in EXPERIMENTS.md.


# ---------------------------------------------------------------------------
# Figure 13 — aggregate-function sensitivity (MAX vs SUM)
# ---------------------------------------------------------------------------

def run_fig13() -> FigureResult:
    env = _env_fig6(UW30)
    qs = env.qs_interval(OLD_START, FIG11_INTERVAL)
    series: Dict[str, List[Tuple[object, Dict[str, float]]]] = {}
    for func in ("max", "sum"):
        env.clear_snapshot_cache()
        env.session.db.execute(f'DROP TABLE IF EXISTS "fig13_{func}"')
        run = AggregateDataInTableRun(
            env.session.db, QQ_AGG, f"fig13_{func}", [("cn", func)],
        )
        result = run.run(qs)
        label = f"{func.upper()} aggregation"
        cold = _augment(result.metrics.iterations[0])
        hot = _mean_breakdown(result.metrics.iterations[1:])
        hot["updates_applied"] = float(run.updates_applied)
        hot["probes"] = float(run.probes)
        hot["rows_inserted"] = float(run.rows_inserted)
        series[f"cold iteration {label}"] = [("breakdown", cold)]
        series[f"hot iteration {label}"] = [("breakdown", hot)]
    return FigureResult(
        figure="Figure 13",
        title="AggregateDataInTable: MAX vs SUM aggregate function "
              "(hot iterations of SUM update per record)",
        series=series,
    )


def fig13_checks(result: FigureResult) -> None:
    max_hot = result.series["hot iteration MAX aggregation"][0][1]
    sum_hot = result.series["hot iteration SUM aggregation"][0][1]
    max_cold = result.series["cold iteration MAX aggregation"][0][1]
    sum_cold = result.series["cold iteration SUM aggregation"][0][1]
    # Same probes, far more updates for SUM (paper: 1M vs 22K).
    assert sum_hot["probes"] == max_hot["probes"]
    assert sum_hot["updates_applied"] > 3 * max_hot["updates_applied"]
    # Hence SUM's hot iterations cost more UDF time.
    assert sum_hot["rql_udf"] > max_hot["rql_udf"]
    # Cold iterations do the same work (insert + index build).
    ratio = sum_cold["rql_udf"] / max_cold["rql_udf"]
    assert 0.5 < ratio < 2.0, ratio


# ---------------------------------------------------------------------------
# Section 5.3 — memory costs: CollateData vs CollateDataIntoIntervals
# ---------------------------------------------------------------------------

SEC53_INTERVAL = INTERVAL
SEC53_WORKLOADS = (UW7_5, UW15, UW30, UW60)


def run_sec53() -> FigureResult:
    series: Dict[str, List[Tuple[object, Dict[str, float]]]] = {}
    for workload in SEC53_WORKLOADS:
        env = get_env(workload, SEC53_INTERVAL + 4)
        qs = env.qs_interval(1, SEC53_INTERVAL)
        coll = run_rql(env, "CollateData", qs, QQ_INT, "sec53_coll")
        intervals = run_rql(env, "CollateDataIntoIntervals", qs, QQ_INT,
                            "sec53_ivl")
        series[workload.name] = [(
            "memory", {
                "collate_rows": float(coll.result_rows),
                "collate_bytes": float(coll.result_table_bytes),
                "interval_rows": float(intervals.result_rows),
                "interval_bytes": float(intervals.result_table_bytes),
                "interval_index_bytes": float(
                    intervals.result_index_bytes),
                "index_overhead_pct": 100.0
                * intervals.result_index_bytes
                / max(1, intervals.result_table_bytes),
            },
        )]
    return FigureResult(
        figure="Section 5.3",
        title="Result-table memory: CollateData vs "
              "CollateDataIntoIntervals under UW7.5/15/30/60",
        series=series,
        notes=["paper: 75M collate rows (3GB) vs 1.86M-4.4M interval "
               "rows (89-204MB) + ~50% index overhead"],
    )


def sec53_checks(result: FigureResult) -> None:
    rows = {label: points[0][1]
            for label, points in result.series.items()}
    for label, metrics in rows.items():
        # Intervals are always (much) smaller than the raw collation.
        assert metrics["interval_rows"] < metrics["collate_rows"] / 2, label
        assert metrics["interval_bytes"] < metrics["collate_bytes"], label
    # Interval result grows with update volume, sub-proportionally.
    r = [rows[w.name]["interval_rows"] for w in SEC53_WORKLOADS]
    assert r[0] < r[1] < r[2] < r[3], r
    # 8x more updates (UW7.5 -> UW60) must NOT mean 8x more rows.
    assert r[3] < 8 * r[0], r
    # CollateData's size is workload-independent (same Qq output).
    c = [rows[w.name]["collate_rows"] for w in SEC53_WORKLOADS]
    assert max(c) - min(c) <= 0.02 * max(c), c
