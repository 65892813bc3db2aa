"""Plan crossover (ISSUE 10) — the costed planner flips seq-scan to
index-scan as selectivity tightens, on a cold old snapshot.

Figure-9 companion: Figure 9 shows what access paths *cost* inside a
snapshot iteration; this bench shows the statistics catalog actually
*choosing* between them.  A snapshot query pinned at the ANALYZE stamp
plans with real statistics, so a narrow `o_orderkey <=` bound seeks
the orders tree by its rowid alias (few Pagelog pages) while a wide
bound seq-scans the whole table (every orders page through the
Pagelog).
"""

from repro.bench import print_figure
from repro.bench.figures import FigureResult
from repro.bench.harness import metered_statement
from repro.bench.report import save_figure
from repro.core import RQLSession
from repro.core.rewrite import rewrite_qq
from repro.workloads import UW30, SnapshotHistoryBuilder

#: Snapshots before ANALYZE (the stats stamp = the pinned snapshot) and
#: after it (ages the pinned snapshot's pages out of the current state).
PRE_SNAPSHOTS = 3
POST_CYCLES = 1.25

#: Selectivity ladder, as fractions of the orders key domain.  The cost
#: model flips around matched ~= page_count (probe+fetch vs scan), i.e.
#: a few percent of the table — keep points clear of the boundary.
FRACTIONS = (0.002, 0.01, 0.1, 0.4, 1.0)


def _build_env():
    session = RQLSession()
    builder = SnapshotHistoryBuilder(session, scale_factor=0.001, seed=7)
    builder.load_initial()
    ids = builder.build_history(UW30, PRE_SNAPSHOTS)
    session.execute("ANALYZE orders")
    post = int(UW30.overwrite_cycle * POST_CYCLES) + 2
    ids += builder.build_history(UW30, post)
    return session, ids[PRE_SNAPSHOTS - 1]


def _measured_count(session, qq, pin):
    session.db.engine.retro.cache.clear()
    result, metrics = metered_statement(session, rewrite_qq(qq, pin), pin)
    return result.scalar(), metrics


def run_plan_crossover() -> FigureResult:
    session, pin = _build_env()
    lo, hi = session.execute(rewrite_qq(
        "SELECT MIN(o_orderkey), MAX(o_orderkey) FROM orders", pin,
    )).rows[0]
    series = {}
    for fraction in FRACTIONS:
        bound = int(lo + fraction * (hi - lo))
        qq = f"SELECT COUNT(*) FROM orders WHERE o_orderkey <= {bound}"
        notes = [row[0] for row in session.execute(
            "EXPLAIN " + rewrite_qq(qq, pin)).rows]
        (access,) = [n for n in notes
                     if n.startswith(("SCAN orders", "SEARCH orders"))]
        (cost,) = [n for n in notes if n.startswith("COST: orders")]
        count, metrics = _measured_count(session, qq, pin)
        series[f"selectivity {fraction:g}"] = [(
            "crossover", {
                "matched_rows": float(count),
                "pagelog_reads": float(metrics.pagelog_reads),
                "db_reads": float(metrics.db_reads),
                "index_chosen": float(access.startswith("SEARCH")),
                "access": access,
                "cost_line": cost,
            },
        )]
    return FigureResult(
        figure="Plan crossover",
        title="Costed access-path choice AS OF a cold old snapshot: "
              "index probe vs seq scan by predicate selectivity",
        series=series,
        notes=[
            f"orders ANALYZEd at snapshot {pin}; queried AS OF that "
            f"snapshot with a cold page cache",
            "the crossover sits where matched-row fetches outweigh a "
            "full-table page scan (~page_count rows)",
        ],
    )


def plan_crossover_checks(result: FigureResult) -> None:
    points = [result.series[f"selectivity {f:g}"][0][1]
              for f in FRACTIONS]
    # Tight selectivity takes the index; the full range seq-scans.
    assert points[0]["access"].startswith(
        "SEARCH orders USING INTEGER PRIMARY KEY"), points[0]
    assert points[-1]["access"] == "SCAN orders", points[-1]
    # Every point carries a real costed line (no heuristic fallback:
    # the statistics are visible AS OF the pinned snapshot).
    for point in points:
        assert "est. rows" in point["cost_line"], point
    # Once the planner flips to a scan it never flips back: chosen
    # paths are monotone in selectivity.
    flags = [point["index_chosen"] for point in points]
    assert flags == sorted(flags, reverse=True), flags
    assert flags[0] == 1.0 and flags[-1] == 0.0
    # Pagelog reads at the extremes: the probe touches a handful of
    # cold pages, the seq scan pays for the whole table.
    tight, wide = points[0], points[-1]
    assert tight["pagelog_reads"] > 0, tight
    assert tight["pagelog_reads"] * 3 < wide["pagelog_reads"], \
        (tight["pagelog_reads"], wide["pagelog_reads"])
    # Matched rows grow with the bound; the widest matches everything.
    counts = [point["matched_rows"] for point in points]
    assert counts == sorted(counts), counts
    assert counts[-1] > counts[0]


def test_plan_crossover(benchmark):
    result = benchmark.pedantic(run_plan_crossover, rounds=1,
                                iterations=1)
    save_figure(result)
    print_figure(result)
    plan_crossover_checks(result)
