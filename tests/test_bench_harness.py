"""Bench-harness unit tests (the machinery behind the figure benches).

Uses a deliberately tiny environment so these run inside the normal
test suite; the real figure runs live in benchmarks/.
"""

from types import SimpleNamespace

import pytest

from repro.bench.harness import (
    BENCH_CHARGES,
    PAPER_PARAMETERS,
    QQ_IO,
    CostSummary,
    all_cold_cost,
    clear_env_cache,
    current_state_query,
    get_env,
    parallel_makespan_seconds,
    qq_collate,
    qs_snapshot_ids,
    ratio_c,
    standalone_snapshot_query,
)
from repro.retro.metrics import MetricsSink
from repro.workloads import UW30


@pytest.fixture(scope="module")
def tiny_env():
    env = get_env(UW30, snapshots=8, scale_factor=0.0005, seed=21)
    yield env


class TestPaperParameters:
    def test_table1_queries_present(self):
        for key in ("Qq_io", "Qq_cpu", "Qq_collate", "Qq_agg", "Qq_int",
                    "UW15", "UW30", "Qs_N"):
            assert key in PAPER_PARAMETERS

    def test_qq_collate_binds_date(self):
        assert "'1995-01-01'" in qq_collate("1995-01-01")


class TestEnvironment:
    def test_history_built(self, tiny_env):
        assert tiny_env.snapshot_ids == list(range(1, 9))
        assert tiny_env.last_snapshot == 8
        assert tiny_env.workload is UW30

    def test_env_cached(self, tiny_env):
        again = get_env(UW30, snapshots=8, scale_factor=0.0005, seed=21)
        assert again is tiny_env

    def test_qs_interval(self, tiny_env):
        qs = tiny_env.qs_interval(2, 3)
        assert qs_snapshot_ids(tiny_env, qs) == [2, 3, 4]
        strided = tiny_env.qs_interval(1, 3, step=2)
        assert qs_snapshot_ids(tiny_env, strided) == [1, 3, 5]

    def test_clear_snapshot_cache(self, tiny_env):
        standalone_snapshot_query(tiny_env, QQ_IO, 1, clear_cache=False)
        tiny_env.clear_snapshot_cache()
        assert len(tiny_env.session.db.engine.retro.cache) == 0


class TestCostAccounting:
    def test_standalone_query_meters(self, tiny_env):
        metrics = standalone_snapshot_query(tiny_env, QQ_IO, 1)
        assert metrics.snapshot_id == 1
        assert metrics.pagelog_reads + metrics.db_reads > 0
        assert metrics.total_seconds(BENCH_CHARGES) > 0

    def test_cache_not_cleared_reuses(self, tiny_env):
        tiny_env.clear_snapshot_cache()
        first = standalone_snapshot_query(tiny_env, QQ_IO, 1,
                                          clear_cache=False)
        second = standalone_snapshot_query(tiny_env, QQ_IO, 1,
                                           clear_cache=False)
        assert second.pagelog_reads == 0
        assert second.cache_hits >= first.pagelog_reads

    def test_all_cold_scales_with_interval(self, tiny_env):
        short = all_cold_cost(tiny_env, QQ_IO, [1, 2])
        longer = all_cold_cost(tiny_env, QQ_IO, [1, 2, 3, 4])
        assert longer.pagelog_reads > short.pagelog_reads
        assert longer.iterations == 4

    def test_current_state_has_no_snapshot_io(self, tiny_env):
        metrics = current_state_query(tiny_env, QQ_IO)
        assert metrics.pagelog_reads == 0
        assert metrics.spt_entries_scanned == 0

    def test_cost_summary_from_sink(self):
        sink = MetricsSink(BENCH_CHARGES)
        m = sink.begin_iteration(1)
        m.pagelog_reads = 10
        m.query_eval_seconds = 0.5
        sink.end_iteration()
        summary = CostSummary.from_sink(sink)
        assert summary.pagelog_reads == 10
        assert summary.iterations == 1
        assert summary.breakdown["query_eval"] == 0.5
        assert summary.simulated_seconds == pytest.approx(
            0.5 + 10 * BENCH_CHARGES.pagelog_read_seconds, rel=1e-6,
        )


    def test_makespan_does_not_depend_on_which_partition_ran_first(self):
        # Two partitions over one shared cache: whichever runs first
        # reads the 10 shared pages from the Pagelog, the other hits
        # them.  One core per partition means one cache each, so both
        # first iterations are priced cold and the order cannot show.
        def sink(reads, hits, more_hits):
            out = MetricsSink(BENCH_CHARGES)
            first = out.begin_iteration(1)
            first.pagelog_reads, first.cache_hits = reads, hits
            out.end_iteration()
            out.begin_iteration(2).cache_hits = more_hits
            out.end_iteration()
            return out

        def makespan(*sinks):
            return parallel_makespan_seconds(SimpleNamespace(
                worker_sinks=list(sinks), merge_seconds=0.0))

        cold, warm = sink(10, 2, 12), sink(0, 12, 12)
        cold_first, warm_first = makespan(cold, warm), makespan(warm, cold)
        assert cold_first == pytest.approx(warm_first)
        assert cold_first == pytest.approx(
            12 * BENCH_CHARGES.pagelog_read_seconds
            + 12 * BENCH_CHARGES.cache_hit_seconds)
        # A partition that found every page cached still pays its own
        # cold start.
        assert makespan(warm) == pytest.approx(cold_first)


class TestRatioC:
    def test_single_snapshot_is_one(self, tiny_env):
        ratios = ratio_c(
            tiny_env, "AggregateDataInVariable",
            tiny_env.qs_interval(1, 1), QQ_IO, "harness_r", "avg",
        )
        assert ratios["c_pagelog"] == pytest.approx(1.0, abs=0.05)
        assert ratios["iterations"] == 1.0

    def test_sharing_lowers_ratio(self, tiny_env):
        ratios = ratio_c(
            tiny_env, "AggregateDataInVariable",
            tiny_env.qs_interval(1, 5), QQ_IO, "harness_r", "avg",
        )
        assert ratios["c_pagelog"] < 0.9
        assert ratios["rql_pagelog_reads"] < \
            ratios["all_cold_pagelog_reads"]


class TestRecoveryMetric:
    def test_recovery_time_summary_is_verified_and_positive(self):
        from repro.bench.harness import recovery_time_summary

        summary = recovery_time_summary(seed=0, crash_points=[12, 30])
        assert summary["crash_points"] == 2.0
        assert summary["verified"] == 2.0  # fast-because-wrong is ruled out
        assert summary["mean_recovery_wall_seconds"] > 0.0
        assert summary["total_recovery_wall_seconds"] == pytest.approx(
            2 * summary["mean_recovery_wall_seconds"])
        assert summary["total_recovery_sim_seconds"] >= 0.0

    def test_recovery_time_summary_torn(self):
        from repro.bench.harness import recovery_time_summary

        summary = recovery_time_summary(seed=5, tear=True,
                                        crash_points=[25])
        assert summary["verified"] == 1.0
