"""EXPLAIN: access-path plan reporting."""

import pytest

from repro.errors import SqlError


@pytest.fixture
def planned(db):
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, grp TEXT, n INTEGER)")
    db.execute("CREATE TABLE u (k INTEGER, label TEXT)")
    db.execute("INSERT INTO t VALUES (1, 'a', 10), (2, 'b', 20)")
    db.execute("INSERT INTO u VALUES (1, 'one'), (2, 'two')")
    return db


def plan(db, sql):
    return [row[0] for row in db.execute("EXPLAIN " + sql).rows]


def access_plan(notes):
    """The access-path lines, without the COST and SEMANTIC summaries."""
    return [n for n in notes
            if not n.startswith(("SEMANTIC:", "COST:"))]


class TestExplain:
    def test_seq_scan(self, planned):
        notes = plan(planned, "SELECT * FROM t")
        assert access_plan(notes) == ["SCAN t"]

    def test_pk_equality_search(self, planned):
        notes = plan(planned, "SELECT * FROM t WHERE k = 1")
        assert any("USING INTEGER PRIMARY KEY (rowid=?)" in n for n in notes)

    def test_pk_range_search(self, planned):
        notes = plan(planned, "SELECT * FROM t WHERE k > 1")
        assert any("(rowid>?)" in n for n in notes)

    def test_secondary_index_preferred(self, planned):
        planned.execute("CREATE INDEX t_grp ON t (grp)")
        notes = plan(planned, "SELECT * FROM t WHERE grp = 'a'")
        assert any("t_grp" in n for n in notes)

    def test_join_with_native_index(self, planned):
        notes = plan(planned,
                     "SELECT * FROM u, t WHERE u.k = t.k")
        joined = " | ".join(notes)
        assert "SCAN u" in joined
        assert "SEARCH t USING INTEGER PRIMARY KEY (rowid=?)" in joined

    def test_join_without_index_uses_auto_index(self, planned):
        notes = plan(planned,
                     "SELECT * FROM t, u WHERE t.grp = 'a' "
                     "AND t.n = u.k")
        joined = " | ".join(notes)
        assert "AUTOMATIC COVERING INDEX" in joined

    def test_pipeline_stages(self, planned):
        notes = plan(planned,
                     "SELECT DISTINCT grp, COUNT(*) FROM t GROUP BY grp "
                     "ORDER BY grp LIMIT 1")
        joined = " | ".join(notes)
        assert "AGGREGATE" in joined
        assert "DISTINCT" in joined
        assert "ORDER BY" in joined
        assert "LIMIT" in joined

    def test_as_of_noted(self, planned):
        planned.executescript("BEGIN; COMMIT WITH SNAPSHOT;")
        notes = plan(planned, "SELECT AS OF 1 * FROM t")
        assert notes[0].startswith("AS OF snapshot")

    def test_explain_does_not_execute(self, planned):
        calls = []
        planned.register_function("probe", lambda v: calls.append(v) or v)
        planned.execute("EXPLAIN SELECT probe(k) FROM t")
        assert calls == []

    def test_explain_non_select_rejected(self, planned):
        with pytest.raises(SqlError):
            planned.execute("EXPLAIN DELETE FROM t")


class TestExplainSemantics:
    """The rqlint summary appended to every EXPLAIN."""

    def test_read_set_and_merge_class(self, planned):
        notes = plan(planned, "SELECT grp FROM t WHERE n > 5")
        joined = " | ".join(notes)
        assert "SEMANTIC: reads t(" in joined
        assert "grp" in joined and "n" in joined
        assert any(n.startswith("SEMANTIC: merge class concat")
                   for n in notes)

    def test_pushdown_reports_index_and_candidate(self, planned):
        planned.execute("CREATE INDEX t_grp ON t (grp)")
        notes = plan(planned,
                     "SELECT * FROM t WHERE grp = 'a' AND n > 5")
        joined = " | ".join(notes)
        assert "SEMANTIC: pushdown grp = 'a' [index t_grp]" in joined
        assert "SEMANTIC: pushdown n > 5 [full scan; " \
               "index candidate t(n)]" in joined

    def test_join_predicate_not_pushable(self, planned):
        notes = plan(planned, "SELECT * FROM t, u WHERE t.k = u.k")
        assert any(n.startswith("SEMANTIC: join predicate t.k = u.k")
                   for n in notes)

    def test_monoid_classification(self, planned):
        notes = plan(planned, "SELECT COUNT(*) FROM t")
        assert any(n.startswith("SEMANTIC: merge class monoid")
                   for n in notes)

    def test_stored_row_classification(self, planned):
        notes = plan(planned,
                     "SELECT grp, SUM(n) FROM t GROUP BY grp")
        assert any(n.startswith("SEMANTIC: merge class stored-row")
                   for n in notes)

    def test_serial_only_classification(self, planned):
        notes = plan(planned, "SELECT GROUP_CONCAT(grp) FROM t")
        assert any(n.startswith("SEMANTIC: merge class serial-only")
                   for n in notes)

    def test_semantic_lines_follow_access_plan(self, planned):
        notes = plan(planned, "SELECT * FROM t WHERE k = 1")
        first_semantic = next(
            i for i, n in enumerate(notes) if n.startswith("SEMANTIC:"))
        assert all(n.startswith("SEMANTIC:")
                   for n in notes[first_semantic:])

    def test_semantics_do_not_execute(self, planned):
        calls = []
        planned.register_function("probe", lambda v: calls.append(v) or v)
        notes = plan(planned, "SELECT probe(k) FROM t WHERE n > 1")
        assert calls == []
        assert any(n.startswith("SEMANTIC:") for n in notes)


class TestExplainCost:
    """The PLAN/COST section appended to every EXPLAIN."""

    def test_unified_section_order(self, planned):
        # access plan, then pipeline stages, then COST, then SEMANTIC —
        # one unified report per query.
        planned.execute("ANALYZE")
        notes = plan(planned,
                     "SELECT grp, COUNT(*) FROM t WHERE k > 0 "
                     "GROUP BY grp")
        kinds = []
        for note in notes:
            if note.startswith("COST:"):
                kinds.append("cost")
            elif note.startswith("SEMANTIC:"):
                kinds.append("semantic")
            else:
                kinds.append("access")
        assert kinds == sorted(
            kinds, key=["access", "cost", "semantic"].index)
        assert kinds.count("cost") == 1

    def test_cost_line_per_from_table(self, planned):
        planned.execute("ANALYZE")
        notes = plan(planned, "SELECT * FROM u, t WHERE u.k = t.k")
        costed = [n for n in notes if n.startswith("COST:")]
        assert len(costed) == 2
        assert costed[0].startswith("COST: u ")
        assert costed[1].startswith("COST: t ")

    def test_heuristic_cost_line_without_stats(self, planned):
        notes = plan(planned, "SELECT * FROM t")
        assert "COST: t no statistics (heuristic access path)" in notes

    def test_explain_does_not_mutate_statistics(self, planned):
        planned.execute("ANALYZE")
        before = planned.execute(
            "SELECT * FROM __rql_stats ORDER BY tbl, col").rows
        planned.execute("EXPLAIN SELECT * FROM t WHERE k = 1")
        planned.execute("EXPLAIN SELECT COUNT(*) FROM u")
        after = planned.execute(
            "SELECT * FROM __rql_stats ORDER BY tbl, col").rows
        assert after == before

    def test_explain_estimates_go_stale_not_refreshed(self, planned):
        # EXPLAIN reads the catalog, never re-gathers: after the table
        # doubles, estimates still reflect the last ANALYZE.
        planned.execute("ANALYZE")
        planned.execute("INSERT INTO t VALUES (3, 'c', 30), (4, 'd', 40)")
        (line,) = [n for n in plan(planned, "SELECT * FROM t")
                   if n.startswith("COST:")]
        assert "est. rows 2" in line

    def test_explain_costing_does_not_execute(self, planned):
        planned.execute("ANALYZE")
        calls = []
        planned.register_function("probe", lambda v: calls.append(v) or v)
        notes = plan(planned, "SELECT probe(k) FROM t WHERE k > 0")
        assert calls == []
        assert any(n.startswith("COST:") for n in notes)
