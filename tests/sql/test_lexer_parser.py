"""Lexer and parser tests."""

import pytest

from repro.errors import LexerError, ParseError
from repro.sql import ast
from repro.sql.lexer import tokenize
from repro.sql.parser import parse_expression, parse_one, parse_sql


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select Select SELECT")
        assert [t.value for t in tokens[:3]] == ["SELECT"] * 3

    def test_string_escaping(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_numbers(self):
        tokens = tokenize("1 2.5 1e3 1.5e-2 .5")
        assert [t.value for t in tokens[:5]] == [1, 2.5, 1000.0, 0.015, 0.5]

    def test_blob_literal(self):
        tokens = tokenize("x'00ff'")
        assert tokens[0].value == b"\x00\xff"

    def test_comments_skipped(self):
        tokens = tokenize("SELECT -- line comment\n 1 /* block */ + 2")
        values = [t.value for t in tokens if t.value is not None]
        assert values == ["SELECT", 1, "+", 2]

    def test_quoted_identifier(self):
        tokens = tokenize('"weird name"')
        assert tokens[0].value == "weird name"

    def test_quoted_identifier_escaping(self):
        # "" inside a quoted identifier is one quote, as '' is in a
        # string: what the result-table quoter writes, the lexer reads.
        tokens = tokenize('"a""b" """" "x"" --; y" "p" "q"')
        assert [t.value for t in tokens[:5]] \
            == ['a"b', '"', 'x" --; y', "p", "q"]
        for text in ('"open', '"open""'):
            with pytest.raises(LexerError, match="unterminated quoted"):
                tokenize(text)

    def test_operators(self):
        tokens = tokenize("<> <= >= != || = < >")
        assert [t.value for t in tokens[:8]] == [
            "<>", "<=", ">=", "!=", "||", "=", "<", ">",
        ]

    def test_unterminated_string(self):
        with pytest.raises(LexerError):
            tokenize("'oops")

    def test_unexpected_character(self):
        with pytest.raises(LexerError):
            tokenize("SELECT @")


class TestSelectParsing:
    def test_simple(self):
        stmt = parse_one("SELECT a, b FROM t")
        assert isinstance(stmt, ast.Select)
        assert len(stmt.items) == 2
        assert stmt.source.name == "t"

    def test_star_and_table_star(self):
        stmt = parse_one("SELECT *, t.* FROM t")
        assert stmt.items[0].is_star
        assert stmt.items[1].star_table == "t"

    def test_aliases(self):
        stmt = parse_one("SELECT a AS x, b y FROM t u")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"
        assert stmt.source.alias == "u"

    def test_as_of(self):
        stmt = parse_one("SELECT AS OF 3 * FROM t")
        assert isinstance(stmt.as_of, ast.Literal)
        assert stmt.as_of.value == 3

    def test_as_of_with_distinct(self):
        stmt = parse_one("SELECT AS OF 5 DISTINCT a FROM t")
        assert stmt.as_of.value == 5
        assert stmt.distinct

    def test_group_by_having_order_limit(self):
        stmt = parse_one(
            "SELECT a, COUNT(*) AS c FROM t WHERE a > 0 GROUP BY a "
            "HAVING c > 1 ORDER BY c DESC, a LIMIT 10 OFFSET 5"
        )
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0].descending
        assert not stmt.order_by[1].descending
        assert stmt.limit.value == 10
        assert stmt.offset.value == 5

    def test_joins(self):
        stmt = parse_one(
            "SELECT * FROM a, b JOIN c ON a.x = c.y"
        )
        join = stmt.source
        assert isinstance(join, ast.Join)
        assert join.right.name == "c"
        assert join.condition is not None

    def test_count_distinct(self):
        stmt = parse_one("SELECT COUNT(DISTINCT a) FROM t")
        call = stmt.items[0].expr
        assert call.distinct

    def test_no_from(self):
        stmt = parse_one("SELECT 1 + 2")
        assert stmt.source is None

    def test_trailing_semicolon(self):
        assert isinstance(parse_one("SELECT 1;"), ast.Select)

    def test_multiple_statements(self):
        stmts = parse_sql("SELECT 1; SELECT 2;")
        assert len(stmts) == 2

    def test_left_join_unsupported(self):
        with pytest.raises(ParseError):
            parse_one("SELECT * FROM a LEFT JOIN b ON a.x = b.x")


class TestOtherStatements:
    def test_insert_values(self):
        stmt = parse_one(
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')"
        )
        assert stmt.columns == ["a", "b"]
        assert len(stmt.rows) == 2

    def test_insert_select(self):
        stmt = parse_one("INSERT INTO t SELECT * FROM u")
        assert stmt.select is not None

    def test_delete(self):
        stmt = parse_one("DELETE FROM t WHERE a = 1")
        assert stmt.table == "t"
        assert stmt.where is not None

    def test_update(self):
        stmt = parse_one("UPDATE t SET a = 1, b = b + 1 WHERE c = 2")
        assert len(stmt.assignments) == 2

    def test_create_table(self):
        stmt = parse_one(
            "CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT NOT NULL, "
            "c REAL DEFAULT 0)"
        )
        assert stmt.columns[0].primary_key
        assert stmt.columns[1].not_null
        assert stmt.columns[2].default.value == 0

    def test_create_table_composite_pk(self):
        stmt = parse_one(
            "CREATE TABLE t (a INTEGER, b INTEGER, PRIMARY KEY (a, b))"
        )
        assert stmt.primary_key == ["a", "b"]

    def test_create_temp_table_as_select(self):
        stmt = parse_one("CREATE TEMP TABLE t AS SELECT a FROM u")
        assert stmt.temporary
        assert stmt.as_select is not None

    def test_create_index(self):
        stmt = parse_one("CREATE UNIQUE INDEX ix ON t (a, b)")
        assert stmt.unique
        assert stmt.columns == ["a", "b"]

    def test_drop_if_exists(self):
        assert parse_one("DROP TABLE IF EXISTS t").if_exists
        assert parse_one("DROP INDEX IF EXISTS i").if_exists

    def test_transaction_statements(self):
        assert isinstance(parse_one("BEGIN"), ast.Begin)
        assert isinstance(parse_one("BEGIN TRANSACTION"), ast.Begin)
        commit = parse_one("COMMIT WITH SNAPSHOT")
        assert commit.with_snapshot
        assert not parse_one("COMMIT").with_snapshot
        assert isinstance(parse_one("ROLLBACK"), ast.Rollback)

    def test_parse_errors(self):
        for bad in ("SELECT", "SELECT FROM t", "INSERT t", "FOO BAR",
                    "CREATE VIEW v", "SELECT * FROM"):
            with pytest.raises(ParseError):
                parse_one(bad)


class TestExpressionParsing:
    def test_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_comparison_chain(self):
        expr = parse_expression("a = 1 AND b > 2 OR NOT c")
        assert expr.op == "OR"
        assert expr.left.op == "AND"

    def test_between_not_in_like(self):
        assert isinstance(parse_expression("a BETWEEN 1 AND 2"), ast.Between)
        expr = parse_expression("a NOT IN (1, 2)")
        assert isinstance(expr, ast.InList) and expr.negated
        expr = parse_expression("a NOT LIKE 'x%'")
        assert isinstance(expr, ast.Like) and expr.negated

    def test_is_null(self):
        assert isinstance(parse_expression("a IS NULL"), ast.IsNull)
        expr = parse_expression("a IS NOT NULL")
        assert expr.negated

    def test_case(self):
        expr = parse_expression(
            "CASE WHEN a = 1 THEN 'one' ELSE 'other' END"
        )
        assert isinstance(expr, ast.CaseExpr)
        assert expr.operand is None
        expr = parse_expression("CASE a WHEN 1 THEN 'x' END")
        assert expr.operand is not None

    def test_function_call(self):
        expr = parse_expression("coalesce(a, b, 0)")
        assert len(expr.args) == 3

    def test_qualified_column(self):
        expr = parse_expression("t.a")
        assert expr.table == "t" and expr.name == "a"

    def test_unary_minus(self):
        expr = parse_expression("-a * 2")
        assert expr.op == "*"
        assert isinstance(expr.left, ast.UnaryOp)

    def test_concat(self):
        expr = parse_expression("a || b")
        assert expr.op == "||"
