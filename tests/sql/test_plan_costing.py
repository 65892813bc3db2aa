"""Cost-based planning: index-vs-scan crossover, join order from
estimated cardinalities, and heuristic equivalence without statistics."""

import pytest


def explain(db, sql):
    return [row[0] for row in db.execute("EXPLAIN " + sql).rows]


def access(db, sql):
    return [n for n in explain(db, sql)
            if not n.startswith(("SEMANTIC:", "COST:"))]


@pytest.fixture
def scaled(db):
    db.execute("CREATE TABLE big (k INTEGER PRIMARY KEY, grp TEXT, "
               "pad TEXT)")
    db.execute("CREATE TABLE small (k INTEGER PRIMARY KEY, label TEXT)")
    db.executescript("BEGIN;" + "".join(
        f"INSERT INTO big VALUES ({i}, 'g{i % 10}', "
        f"'padding-padding-{i:05d}');"
        for i in range(500)) + "COMMIT;")
    db.executescript("BEGIN;" + "".join(
        f"INSERT INTO small VALUES ({i}, 'label-{i}');"
        for i in range(5)) + "COMMIT;")
    db.execute("ANALYZE")
    return db


class TestCrossover:
    """Figure-9 style: the access path flips as selectivity tightens."""

    def test_point_lookup_uses_index(self, scaled):
        notes = explain(scaled, "SELECT pad FROM big WHERE k = 250")
        assert "SEARCH big USING INTEGER PRIMARY KEY (rowid=?)" in notes

    def test_narrow_range_uses_index(self, scaled):
        notes = explain(
            scaled, "SELECT pad FROM big WHERE k BETWEEN 10 AND 12")
        assert ("SEARCH big USING INTEGER PRIMARY KEY "
                "(rowid>? AND rowid<?)") in notes

    def test_wide_range_uses_seq_scan(self, scaled):
        notes = explain(
            scaled, "SELECT pad FROM big WHERE k BETWEEN 10 AND 400")
        assert "SCAN big" in notes
        assert any("via seq scan" in n for n in notes)

    def test_unfiltered_scan_estimates_full_table(self, scaled):
        (line,) = [n for n in explain(scaled, "SELECT k FROM big")
                   if n.startswith("COST:")]
        assert "est. rows 500" in line

    def test_index_cost_below_scan_cost_when_chosen(self, scaled):
        notes = explain(scaled, "SELECT pad FROM big WHERE k = 250")
        (line,) = [n for n in notes if n.startswith("COST:")]
        # probe (1) + one fetched row (1.01): far under ~13 pages.
        assert "cost 2.01" in line

    def test_results_identical_across_crossover(self, scaled):
        # The flip is a physical choice only: same rows either way.
        narrow = scaled.execute(
            "SELECT k, pad FROM big WHERE k BETWEEN 10 AND 12").rows
        assert narrow == [(i, f"padding-padding-{i:05d}")
                          for i in (10, 11, 12)]
        wide = scaled.execute(
            "SELECT COUNT(*) FROM big WHERE k BETWEEN 10 AND 400").rows
        assert wide == [(391,)]


class TestJoinOrdering:
    def test_smaller_table_becomes_outer(self, scaled):
        # Heuristics keep FROM order (big first); estimated
        # cardinalities put small (5 rows) on the outside.
        notes = access(
            scaled, "SELECT label FROM big, small WHERE big.k = small.k")
        assert notes[0] == "SCAN small"
        assert notes[1] == "SEARCH big USING INTEGER PRIMARY KEY (rowid=?)"

    def test_filtered_cardinality_drives_outer_choice(self, scaled):
        # An equality filter on big (1/500) makes it smaller than
        # small's 5 rows, overriding raw table sizes.
        notes = access(
            scaled,
            "SELECT label FROM small, big "
            "WHERE big.k = small.k AND big.k = 3")
        assert notes[0].startswith("SEARCH big")

    def test_join_cost_lines_cover_every_step(self, scaled):
        notes = explain(
            scaled, "SELECT label FROM big, small WHERE big.k = small.k")
        costed = [n for n in notes if n.startswith("COST:")]
        assert len(costed) == 2
        assert any("join" in n for n in costed)


class TestHeuristicEquivalence:
    """Without statistics the reworked planner must reproduce the
    original fixed heuristics line for line."""

    CASES = (
        "SELECT * FROM t",
        "SELECT * FROM t WHERE k = 1",
        "SELECT * FROM t WHERE k > 1",
        "SELECT * FROM t WHERE grp = 'a' AND n > 5",
        "SELECT * FROM u, t WHERE u.k = t.k",
        "SELECT * FROM t, u WHERE t.grp = 'a' AND t.n = u.k",
        "SELECT * FROM t, u",
    )

    @pytest.fixture
    def unanalyzed(self, db):
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, grp TEXT, "
                   "n INTEGER)")
        db.execute("CREATE TABLE u (k INTEGER, label TEXT)")
        db.execute("INSERT INTO t VALUES (1,'a',10), (2,'b',20)")
        db.execute("INSERT INTO u VALUES (1,'one'), (2,'two')")
        return db

    @pytest.mark.parametrize("sql", CASES)
    def test_heuristic_notes(self, unanalyzed, sql):
        expected = {
            "SELECT * FROM t": ["SCAN t"],
            "SELECT * FROM t WHERE k = 1":
                ["SEARCH t USING INTEGER PRIMARY KEY (rowid=?)"],
            "SELECT * FROM t WHERE k > 1":
                ["SEARCH t USING INTEGER PRIMARY KEY (rowid>?)"],
            "SELECT * FROM t WHERE grp = 'a' AND n > 5": ["SCAN t"],
            "SELECT * FROM u, t WHERE u.k = t.k":
                ["SCAN u", "SEARCH t USING INTEGER PRIMARY KEY (rowid=?)"],
            "SELECT * FROM t, u WHERE t.grp = 'a' AND t.n = u.k":
                ["SCAN t",
                 "SEARCH u USING AUTOMATIC COVERING INDEX (k=?)"],
            "SELECT * FROM t, u": ["SCAN t", "CROSS JOIN u"],
        }
        assert access(unanalyzed, sql) == expected[sql]

    def test_every_step_reports_heuristic_cost(self, unanalyzed):
        notes = explain(unanalyzed,
                        "SELECT * FROM u, t WHERE u.k = t.k")
        costed = [n for n in notes if n.startswith("COST:")]
        assert costed == [
            "COST: u no statistics (heuristic access path)",
            "COST: t no statistics (heuristic access path)",
        ]


class TestStaticPlanningPurity:
    def test_static_plan_is_deterministic(self):
        from repro.sql.parser import parse_sql
        from repro.sql.planner import render_plan
        from repro.sql.semantic import StaticSchema
        from repro.sql.stats import ColumnStats, DeclaredStats, TableStats

        schema = StaticSchema.from_ddl(
            "CREATE TABLE t (k INTEGER PRIMARY KEY, n INTEGER)")
        stats = DeclaredStats([TableStats(
            table="t", snapshot_id=1, row_count=400, page_count=20,
            columns={"k": ColumnStats(column="k", distinct=400,
                                      min_value=1, max_value=400)})])
        select = parse_sql("SELECT n FROM t WHERE k = 7")[0]
        first = render_plan(select, schema, stats)
        assert first == render_plan(select, schema, stats)
        assert first[0] == "SEARCH t USING INTEGER PRIMARY KEY (rowid=?)"

    def test_static_matches_live_explain(self, db):
        # The same pure planner serves EXPLAIN and the static path.
        from repro.sql.parser import parse_sql
        from repro.sql.planner import render_plan
        from repro.sql.semantic import ContextSchema
        from repro.sql.stats import DeclaredStats

        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, n INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        live = [n for n in explain(db, "SELECT n FROM t WHERE k = 1")
                if not n.startswith("SEMANTIC:")]
        select = parse_sql("SELECT n FROM t WHERE k = 1")[0]
        with db.reading() as ctx:
            static = render_plan(select, ContextSchema(ctx),
                                 DeclaredStats())
        assert static == live
