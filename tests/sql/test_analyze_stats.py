"""ANALYZE: statistics gathering, __rql_stats persistence, and the
AS OF consistency rule for the statistics catalog."""

import pytest

from repro.errors import SqlError
from repro.sql.stats import (
    ColumnStats,
    TableStats,
    compute_table_stats,
    stats_from_rows,
    stats_to_rows,
)


@pytest.fixture
def analyzed(db):
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, grp TEXT, "
               "n INTEGER)")
    db.execute("CREATE TABLE u (k INTEGER, label TEXT)")
    db.execute("INSERT INTO t VALUES (1,'a',10), (2,'b',20), (3,'a',30)")
    db.execute("INSERT INTO u VALUES (1,'one')")
    return db


def explain(db, sql):
    return [row[0] for row in db.execute("EXPLAIN " + sql).rows]


def cost_lines(db, sql):
    return [n for n in explain(db, sql) if n.startswith("COST:")]


def snapshot(db):
    db.executescript("BEGIN; COMMIT WITH SNAPSHOT;")
    return db.latest_snapshot_id


class TestAnalyzeStatement:
    def test_analyze_all_tables(self, analyzed):
        result = analyzed.execute("ANALYZE")
        assert result.columns == ["table", "row_count", "page_count"]
        assert sorted(result.rows) == [("t", 3, 1), ("u", 1, 1)]

    def test_analyze_one_table(self, analyzed):
        result = analyzed.execute("ANALYZE t")
        assert result.rows == [("t", 3, 1)]

    def test_analyze_unknown_table(self, analyzed):
        with pytest.raises(SqlError):
            analyzed.execute("ANALYZE nope")

    def test_stats_persist_in_aux_table(self, analyzed):
        analyzed.execute("ANALYZE t")
        rows = analyzed.execute(
            "SELECT tbl, snap, col, row_count, n_distinct "
            "FROM __rql_stats").rows
        assert ("t", 0, "", 3, 0) in rows          # table-level row
        assert ("t", 0, "grp", 3, 2) in rows       # 2 distinct groups
        assert ("t", 0, "k", 3, 3) in rows

    def test_reanalyze_replaces_same_snapshot(self, analyzed):
        analyzed.execute("ANALYZE t")
        analyzed.execute("INSERT INTO t VALUES (4,'c',40)")
        analyzed.execute("ANALYZE t")
        rows = analyzed.execute(
            "SELECT row_count FROM __rql_stats "
            "WHERE tbl = 't' AND col = ''").rows
        assert rows == [(4,)]                      # replaced, not stacked

    def test_snapshots_stack_histories(self, analyzed):
        analyzed.execute("ANALYZE t")
        snapshot(analyzed)
        analyzed.execute("INSERT INTO t VALUES (4,'c',40)")
        analyzed.execute("ANALYZE t")
        rows = analyzed.execute(
            "SELECT snap, row_count FROM __rql_stats "
            "WHERE tbl = 't' AND col = ''").rows
        assert sorted(rows) == [(0, 3), (1, 4)]

    def test_stats_table_is_not_analyzed(self, analyzed):
        analyzed.execute("ANALYZE")
        result = analyzed.execute("ANALYZE")
        assert all(name != "__rql_stats" for name, _r, _p in result.rows)


class TestPlannerUsesStats:
    def test_tiny_table_prefers_seq_scan(self, analyzed):
        # Heuristics always take the eq seek; the cost model knows a
        # one-page table is cheaper to scan (SQLite behaves the same).
        before = explain(analyzed, "SELECT * FROM t WHERE k = 2")
        assert any("USING INTEGER PRIMARY KEY (rowid=?)" in n for n in before)
        analyzed.execute("ANALYZE t")
        after = explain(analyzed, "SELECT * FROM t WHERE k = 2")
        assert "SCAN t" in after
        assert any("via seq scan" in n for n in after)

    def test_large_table_switches_to_index(self, db):
        db.execute("CREATE TABLE big (k INTEGER PRIMARY KEY, v TEXT)")
        db.executescript("BEGIN;" + "".join(
            f"INSERT INTO big VALUES ({i}, 'payload-{i:04d}');"
            for i in range(500)) + "COMMIT;")
        db.execute("ANALYZE big")
        notes = explain(db, "SELECT v FROM big WHERE k = 250")
        assert any("USING INTEGER PRIMARY KEY (rowid=?)" in n for n in notes)
        assert any("via integer primary key (=)" in n for n in notes)

    def test_cost_line_reports_estimates(self, analyzed):
        analyzed.execute("ANALYZE t")
        (line,) = cost_lines(analyzed, "SELECT * FROM t WHERE grp = 'a'")
        assert "est. rows" in line and "est. pages" in line
        assert "cost" in line

    def test_unanalyzed_table_reports_heuristic(self, analyzed):
        (line,) = cost_lines(analyzed, "SELECT * FROM u")
        assert line == "COST: u no statistics (heuristic access path)"


class TestAsOfConsistency:
    def test_stats_after_pin_are_invisible(self, analyzed):
        snapshot(analyzed)                         # snapshot 1
        analyzed.execute("INSERT INTO t VALUES (4,'c',40)")
        snapshot(analyzed)                         # snapshot 2
        analyzed.execute("ANALYZE t")              # stamped snap 2
        pinned = cost_lines(analyzed, "SELECT AS OF 1 * FROM t")
        assert pinned == ["COST: t no statistics "
                          "(heuristic access path)"]
        current = cost_lines(analyzed, "SELECT * FROM t")
        assert "est. rows 4" in current[0]

    def test_pinned_query_plans_with_pinned_stats(self, analyzed):
        analyzed.execute("ANALYZE t")              # snap 0: 3 rows
        snapshot(analyzed)                         # snapshot 1
        analyzed.execute("INSERT INTO t VALUES (4,'c',40), (5,'d',50)")
        snapshot(analyzed)                         # snapshot 2
        analyzed.execute("ANALYZE t")              # snap 2: 5 rows
        old = cost_lines(analyzed, "SELECT AS OF 1 * FROM t")
        new = cost_lines(analyzed, "SELECT * FROM t")
        assert "est. rows 3" in old[0]
        assert "est. rows 5" in new[0]


class TestStatsUnits:
    def test_eq_selectivity(self):
        stats = TableStats(
            table="t", snapshot_id=1, row_count=100, page_count=4,
            columns={"g": ColumnStats(column="g", distinct=4)})
        assert stats.eq_selectivity("g") == 0.25
        assert stats.eq_selectivity("missing") == 0.1   # default

    def test_range_selectivity_interpolates(self):
        stats = TableStats(
            table="t", snapshot_id=1, row_count=100, page_count=4,
            columns={"k": ColumnStats(column="k", distinct=100,
                                      min_value=0, max_value=100)})
        assert stats.range_selectivity("k", lo=0, hi=25) == 0.25

    def test_range_selectivity_is_unclamped(self):
        # Reversed domain -> negative selectivity; RQL114 needs the raw
        # value, so the model must not clamp here.
        stats = TableStats(
            table="t", snapshot_id=1, row_count=100, page_count=4,
            columns={"k": ColumnStats(column="k", distinct=100,
                                      min_value=100, max_value=0)})
        assert stats.range_selectivity("k", lo=10, hi=90) < 0

    def test_rows_round_trip(self):
        stats = TableStats(
            table="t", snapshot_id=3, row_count=7, page_count=2,
            columns={"k": ColumnStats(column="k", distinct=7,
                                      min_value=1, max_value=7)})
        rebuilt = stats_from_rows("t", stats_to_rows(stats))
        assert rebuilt == stats

    def test_as_of_picks_newest_at_or_before(self):
        history = []
        for snap, rows in ((1, 10), (3, 30), (5, 50)):
            history.extend(stats_to_rows(TableStats(
                table="t", snapshot_id=snap, row_count=rows,
                page_count=1)))
        assert stats_from_rows("t", history, as_of=4).row_count == 30
        assert stats_from_rows("t", history, as_of=1).row_count == 10
        assert stats_from_rows("t", history).row_count == 50
        assert stats_from_rows("t", history, as_of=0) is None

    def test_compute_stats_via_scan(self, analyzed):
        from repro.sql.catalog import Catalog
        from repro.sql.executor import TableAccess

        engine = analyzed.engine
        ctx = engine.begin_read()
        try:
            source = engine.read_source(ctx)
            catalog = Catalog(source, engine.pager.get_root("catalog"))
            info = catalog.get_table("t")
            stats = compute_table_stats(
                TableAccess(info, source), snapshot_id=9)
        finally:
            ctx.close()
        assert stats.row_count == 3
        assert stats.snapshot_id == 9
        assert stats.column("k").min_value == 1
        assert stats.column("k").max_value == 3
        assert stats.column("grp").distinct == 2
