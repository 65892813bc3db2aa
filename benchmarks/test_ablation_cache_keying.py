"""Ablation (DESIGN.md §7) — snapshot cache keyed by Pagelog slot vs by
(snapshot, page).

The paper attributes RQL's hot-iteration savings to COW page sharing:
consecutive snapshots reference the SAME Pagelog pre-state, so caching
by slot turns shared(S1,S2) into hits.  Keying by (snapshot, page)
destroys exactly that and must push hot-iteration I/O back to cold
levels — quantifying how much of the speedup the paper's design choice
is worth.
"""

from repro.bench import BENCH_CHARGES, QQ_IO, print_figure, run_rql
from repro.bench.figures import FigureResult, _env_fig6, OLD_START
from repro.bench.report import save_figure
from repro.workloads import UW30


def run_ablation_cache():
    env = _env_fig6(UW30)
    retro = env.session.db.engine.retro
    qs = env.qs_interval(OLD_START, 12)
    series = {}
    try:
        for keying in ("by_slot", "by_snapshot_page"):
            retro.share_cache_by_slot = keying == "by_slot"
            result = run_rql(env, "AggregateDataInVariable", qs, QQ_IO,
                             "abl_cache", "avg")
            iterations = result.metrics.iterations
            hot = iterations[1:]
            series[keying] = [(
                "totals", {
                    "cold_pagelog_reads": float(
                        iterations[0].pagelog_reads),
                    "hot_pagelog_reads_mean": sum(
                        i.pagelog_reads for i in hot) / len(hot),
                    "hot_cache_hits_mean": sum(
                        i.cache_hits for i in hot) / len(hot),
                    "total_seconds": sum(
                        i.total_seconds(BENCH_CHARGES)
                        for i in iterations),
                },
            )]
    finally:
        retro.share_cache_by_slot = True
    return FigureResult(
        figure="Ablation cache keying",
        title="Snapshot cache keyed by Pagelog slot (paper design) vs "
              "by (snapshot, page)",
        series=series,
    )


def test_ablation_cache_keying(benchmark):
    result = benchmark.pedantic(run_ablation_cache, rounds=1, iterations=1)
    save_figure(result)
    print_figure(result)
    by_slot = result.series["by_slot"][0][1]
    by_pair = result.series["by_snapshot_page"][0][1]
    # Slot keying turns shared pages into hits; pair keying cannot.
    assert by_slot["hot_pagelog_reads_mean"] < \
        by_pair["hot_pagelog_reads_mean"] / 4
    assert by_pair["hot_pagelog_reads_mean"] > \
        by_pair["cold_pagelog_reads"] * 0.5
    assert by_slot["total_seconds"] < by_pair["total_seconds"]
