"""Static semantic analysis: positions, resolution, types, pushability,
Qs bounds (the front half of rqlint)."""

import pytest

from repro.sql import ast
from repro.sql.lexer import tokenize
from repro.sql.parser import parse_sql
from repro.sql.semantic import (
    QsRange,
    StaticSchema,
    analyze_qs,
    render_expr,
    resolve_select,
)

DDL = """
CREATE TABLE t (k INTEGER PRIMARY KEY, grp TEXT, n INTEGER);
CREATE TABLE u (k INTEGER, label TEXT);
CREATE INDEX t_grp ON t (grp);
"""


@pytest.fixture
def schema():
    return StaticSchema.from_ddl(DDL)


def select(sql):
    statements = parse_sql(sql)
    assert len(statements) == 1 and isinstance(statements[0], ast.Select)
    return statements[0]


class TestPositions:
    def test_tokens_carry_line_and_col(self):
        tokens = tokenize("SELECT a\n  FROM t")
        assert (tokens[0].line, tokens[0].col) == (1, 1)   # SELECT
        assert (tokens[1].line, tokens[1].col) == (1, 8)   # a
        assert (tokens[2].line, tokens[2].col) == (2, 3)   # FROM
        assert (tokens[3].line, tokens[3].col) == (2, 8)   # t

    def test_string_token_position_is_its_start(self):
        tokens = tokenize("SELECT 'abcdef'")
        assert (tokens[1].line, tokens[1].col) == (1, 8)

    def test_ast_nodes_are_stamped(self):
        node = select("SELECT a, b\nFROM t\nWHERE a = 1 AND b > 2")
        assert (node.line, node.col) == (1, 1)
        assert node.items[0].line == 1
        # The AND combinator sits on line 3; its operands too.
        assert node.where.line == 3
        assert node.where.left.line == 3

    def test_multiline_function_call(self):
        node = select("SELECT\n  SUM(n)\nFROM t")
        assert node.items[0].expr.line == 2

    def test_positions_do_not_affect_equality(self):
        """AST equality is load-bearing (planner substitution, agg
        dedup): stamped positions must stay out of __eq__."""
        a = select("SELECT a FROM t WHERE a = 1")
        b = select("\n\n  SELECT a FROM t WHERE a = 1")
        assert a.line != b.line
        assert a == b
        assert a.where == b.where

    def test_default_positions_are_zero(self):
        assert ast.Literal(1).line == 0
        assert ast.Literal(1).col == 0


class TestResolution:
    def test_read_set(self, schema):
        summary = resolve_select(
            select("SELECT grp FROM t WHERE n > 5"), schema)
        assert summary.tables == ["t"]
        assert sorted(summary.read_columns["t"]) == ["grp", "n"]
        assert summary.resolved

    def test_star_expansion(self, schema):
        summary = resolve_select(select("SELECT * FROM t"), schema)
        assert [o.name for o in summary.outputs] == ["k", "grp", "n"]
        assert summary.read_columns["t"] == ["k", "grp", "n"]

    def test_unknown_table(self, schema):
        summary = resolve_select(select("SELECT x FROM nope"), schema)
        assert any("no such table: nope" in i.message
                   for i in summary.issues)

    def test_unknown_column(self, schema):
        summary = resolve_select(select("SELECT missing FROM t"), schema)
        assert any("no such column: missing" in i.message
                   for i in summary.issues)

    def test_ambiguous_column(self, schema):
        summary = resolve_select(
            select("SELECT k FROM t, u"), schema)
        assert any("ambiguous column name: k" in i.message
                   for i in summary.issues)

    def test_qualified_refs_disambiguate(self, schema):
        summary = resolve_select(
            select("SELECT t.k, u.k FROM t, u"), schema)
        assert summary.resolved
        assert summary.read_columns == {"t": ["k"], "u": ["k"]}

    def test_alias_in_order_by_is_not_a_read(self, schema):
        summary = resolve_select(
            select("SELECT n + 1 AS bumped FROM t ORDER BY bumped"),
            schema)
        assert summary.resolved
        assert summary.read_columns["t"] == ["n"]

    def test_duplicate_binding(self, schema):
        summary = resolve_select(select("SELECT 1 FROM t, t"), schema)
        assert any("duplicate table binding" in i.message
                   for i in summary.issues)

    def test_unknown_table_mutes_column_checks(self, schema):
        """Can't decide a column against an unknown table: one issue,
        not a cascade."""
        summary = resolve_select(
            select("SELECT mystery FROM nope"), schema)
        assert len(summary.issues) == 1

    def test_qualified_star_expands_one_binding(self, schema):
        summary = resolve_select(
            select("SELECT t.* FROM t, u"), schema)
        assert [o.name for o in summary.outputs] == ["k", "grp", "n"]
        assert summary.read_columns["t"] == ["k", "grp", "n"]
        assert summary.read_columns.get("u", []) == []

    def test_qualified_star_unknown_binding(self, schema):
        summary = resolve_select(select("SELECT z.* FROM t"), schema)
        assert any("no such table: z" in i.message
                   for i in summary.issues)


class TestTypesAndOutputs:
    def test_output_kinds(self, schema):
        summary = resolve_select(
            select("SELECT grp, COUNT(*) AS c, 7 AS seven, n + 1 AS b "
                   "FROM t GROUP BY grp"), schema)
        kinds = {o.name: o.kind for o in summary.outputs}
        assert kinds == {"grp": "column", "c": "aggregate",
                         "seven": "constant", "b": "scalar"}

    def test_declared_and_inferred_types(self, schema):
        summary = resolve_select(
            select("SELECT grp, n, COUNT(*) AS c, SUM(n) AS s, "
                   "n + k AS add FROM t"), schema)
        types = {o.name: o.type_name for o in summary.outputs}
        assert types["grp"] == "TEXT"
        assert types["n"] == "INTEGER"
        assert types["c"] == "INTEGER"
        assert types["s"] == "REAL"
        assert types["add"] == "INTEGER"

    def test_aggregate_calls_collected(self, schema):
        summary = resolve_select(
            select("SELECT MIN(n), MAX(n) FROM t"), schema)
        assert sorted(c.name.lower() for c in summary.aggregate_calls) \
            == ["max", "min"]

    def test_stateful_and_unknown_functions(self, schema):
        summary = resolve_select(
            select("SELECT rql_workers(), mystery_fn(n) FROM t"), schema)
        assert summary.stateful_functions == {"rql_workers"}
        assert summary.unknown_functions == {"mystery_fn"}

    def test_registered_function_is_known(self, schema):
        schema.add_function("mystery_fn")
        summary = resolve_select(
            select("SELECT mystery_fn(n) FROM t"), schema)
        assert summary.unknown_functions == set()


class TestPushability:
    def test_single_table_conjunct_is_pushable(self, schema):
        summary = resolve_select(
            select("SELECT * FROM t WHERE grp = 'a' AND n > 5"), schema)
        assert [p.pushable for p in summary.predicates] == [True, True]

    def test_indexed_and_candidate(self, schema):
        summary = resolve_select(
            select("SELECT * FROM t WHERE grp = 'a' AND n > 5"), schema)
        by_text = {p.text: p for p in summary.predicates}
        assert by_text["grp = 'a'"].indexed_by == "t_grp"
        assert by_text["n > 5"].index_candidate == ("t", "n")

    def test_pk_counts_as_index(self, schema):
        summary = resolve_select(
            select("SELECT * FROM t WHERE k = 3"), schema)
        assert summary.predicates[0].indexed_by == "INTEGER PRIMARY KEY"

    def test_join_conjunct_not_pushable(self, schema):
        summary = resolve_select(
            select("SELECT * FROM t, u WHERE t.k = u.k"), schema)
        assert summary.predicates[0].pushable is False
        assert summary.predicates[0].tables == ("t", "u")

    def test_non_sargable_shape_has_no_candidate(self, schema):
        summary = resolve_select(
            select("SELECT * FROM t WHERE n + 1 = 5"), schema)
        predicate = summary.predicates[0]
        assert predicate.pushable
        assert predicate.indexed_by is None
        assert predicate.index_candidate is None

    def test_between_and_in_are_sargable(self, schema):
        """BETWEEN is served by an index range; the planner probes no
        index for an IN list, so one on an indexed column is neither
        index-served nor an index candidate: it filters the scan."""
        summary = resolve_select(
            select("SELECT * FROM t WHERE n BETWEEN 1 AND 9 "
                   "AND grp IN ('a', 'b')"), schema)
        by_text = {p.text: p for p in summary.predicates}
        assert by_text["n BETWEEN 1 AND 9"].index_candidate == ("t", "n")
        in_list = by_text["grp IN ('a', 'b')"]
        assert in_list.pushable
        assert in_list.indexed_by is None
        assert in_list.index_candidate is None

    def test_join_on_condition_classified(self, schema):
        summary = resolve_select(
            select("SELECT * FROM t JOIN u ON t.k = u.k"), schema)
        assert summary.predicates[0].pushable is False

    def test_not_between_pushable_but_not_sargable(self, schema):
        # The complement of a contiguous range is two ranges — still a
        # single-table filter, but no single index range serves it.
        summary = resolve_select(
            select("SELECT * FROM t WHERE n NOT BETWEEN 2 AND 5"),
            schema)
        predicate = summary.predicates[0]
        assert predicate.pushable
        assert predicate.indexed_by is None
        assert predicate.index_candidate is None

    def test_negated_between_via_not_also_not_sargable(self, schema):
        summary = resolve_select(
            select("SELECT * FROM t WHERE NOT (n BETWEEN 2 AND 5)"),
            schema)
        predicate = summary.predicates[0]
        assert predicate.pushable
        assert predicate.index_candidate is None


class TestRenderExpr:
    @pytest.mark.parametrize("sql", [
        "a = 1",
        "a BETWEEN 1 AND 2",
        "a IN (1, 2)",
        "a IS NOT NULL",
        "a NOT LIKE 'x%'",
        "-a * (b + 2)",
        "CASE WHEN a = 1 THEN 'one' ELSE 'other' END",
    ])
    def test_round_trips_through_parser(self, sql):
        first = select(f"SELECT 1 FROM t WHERE {sql}").where
        text = render_expr(first)
        again = select(f"SELECT 1 FROM t WHERE {text}").where
        assert render_expr(again) == text


class TestQsAnalysis:
    def qs(self, where=""):
        return select(f"SELECT snap_id FROM SnapIds {where}")

    def test_unbounded(self):
        issues, bounds = analyze_qs(self.qs())
        assert issues == []
        assert bounds == QsRange(None, None)
        assert not bounds.bounded

    def test_between(self):
        _, bounds = analyze_qs(self.qs("WHERE snap_id BETWEEN 2 AND 9"))
        assert (bounds.lower, bounds.upper) == (2, 9)
        assert bounds.describe() == "[2, 9]"

    def test_comparison_both_orders(self):
        _, bounds = analyze_qs(
            self.qs("WHERE snap_id >= 3 AND 7 >= snap_id"))
        assert (bounds.lower, bounds.upper) == (3, 7)

    def test_equality_pins_both(self):
        _, bounds = analyze_qs(self.qs("WHERE snap_id = 5"))
        assert (bounds.lower, bounds.upper) == (5, 5)

    def test_strict_bounds_are_tightened(self):
        _, bounds = analyze_qs(
            self.qs("WHERE snap_id > 2 AND snap_id < 9"))
        assert (bounds.lower, bounds.upper) == (3, 8)

    def test_in_list(self):
        _, bounds = analyze_qs(self.qs("WHERE snap_id IN (4, 2, 8)"))
        assert (bounds.lower, bounds.upper) == (2, 8)

    def test_inverted_is_statically_empty(self):
        _, bounds = analyze_qs(
            self.qs("WHERE snap_id > 5 AND snap_id < 3"))
        assert bounds.statically_empty
        assert bounds.describe() == "empty"

    def test_reversed_between_is_statically_empty(self):
        _, bounds = analyze_qs(
            self.qs("WHERE snap_id BETWEEN 9 AND 2"))
        assert bounds.statically_empty

    def test_contradictory_equalities_are_statically_empty(self):
        # Each equality pins both ends; the intersection inverts.
        _, bounds = analyze_qs(
            self.qs("WHERE snap_id = 3 AND snap_id = 7"))
        assert bounds.statically_empty

    def test_in_list_duplicates_collapse(self):
        _, bounds = analyze_qs(self.qs("WHERE snap_id IN (4, 4, 2)"))
        assert (bounds.lower, bounds.upper) == (2, 4)
        assert not bounds.statically_empty

    def test_as_of_rejected(self):
        issues, _ = analyze_qs(
            select("SELECT AS OF 3 snap_id FROM SnapIds"))
        assert any("AS OF" in i.message for i in issues)

    def test_multi_column_rejected(self):
        issues, _ = analyze_qs(
            select("SELECT snap_id, snap_ts FROM SnapIds"))
        assert any("single snapshot-id column" in i.message
                   for i in issues)


class TestStaticSchema:
    def test_from_ddl(self, schema):
        info, indexes = schema.table("T")
        assert [(c.name, c.type_name) for c in info.columns] == [
            ("k", "INTEGER"), ("grp", "TEXT"), ("n", "INTEGER")]
        assert schema.table("ghost") is None
        assert {index.name for index in indexes} == {"t_grp"}
        assert info.columns[info.rowid_alias].name == "k"
