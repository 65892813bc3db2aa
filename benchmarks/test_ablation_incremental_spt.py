"""Ablation — incremental SPT derivation (paper Section 7 future work).

"Our future work includes performance optimizations for RQL programs
exploring how computations can be shared across multiple snapshots."
One such optimization implemented here: when an RQL query iterates
consecutive snapshots, SPT(S+1) is derived from SPT(S) by refreshing
only the mappings that expire — cost proportional to diff(S, S+1)
instead of a fresh ~n log n Skippy scan per iteration.
"""

from repro.bench import QQ_IO, print_figure, run_rql
from repro.bench.figures import FigureResult, _env_fig6, OLD_START, INTERVAL
from repro.bench.report import save_figure
from repro.workloads import UW30


def run_ablation_incremental_spt():
    env = _env_fig6(UW30)
    retro = env.session.db.engine.retro
    qs = env.qs_interval(OLD_START, INTERVAL)
    series = {}
    try:
        for mode in ("full rebuild (paper)", "incremental advance"):
            retro.incremental_spt = mode.startswith("incremental")
            retro._spt_cache = None
            result = run_rql(env, "AggregateDataInVariable", qs, QQ_IO,
                             "abl_ispt", "avg")
            iterations = result.metrics.iterations
            hot = iterations[1:]
            series[mode] = [(
                "totals", {
                    "spt_entries_total": float(sum(
                        i.spt_entries_scanned for i in iterations)),
                    "spt_entries_hot_mean": sum(
                        i.spt_entries_scanned for i in hot) / len(hot),
                    "spt_seconds_total": sum(
                        i.spt_build_seconds for i in iterations),
                    "avg_result": 1.0,  # value equality checked below
                },
            )]
        results = {}
        for mode in series:
            retro.incremental_spt = mode.startswith("incremental")
            retro._spt_cache = None
            env.session.run_reference("AggregateDataInVariable", qs, QQ_IO,
                                      "abl_ispt_check", "avg")
            results[mode] = env.session.execute(
                'SELECT * FROM "abl_ispt_check"').scalar()
        assert len(set(results.values())) == 1, results
    finally:
        retro.incremental_spt = False
        retro._spt_cache = None
    return FigureResult(
        figure="Ablation incremental SPT",
        title="SPT construction per RQL iteration: full Skippy rebuild "
              "vs incremental advance (future-work optimization)",
        series=series,
    )


def test_ablation_incremental_spt(benchmark):
    result = benchmark.pedantic(run_ablation_incremental_spt, rounds=1,
                                iterations=1)
    save_figure(result)
    print_figure(result)
    full = result.series["full rebuild (paper)"][0][1]
    inc = result.series["incremental advance"][0][1]
    assert inc["spt_entries_hot_mean"] < full["spt_entries_hot_mean"]
    assert inc["spt_entries_total"] < full["spt_entries_total"]
