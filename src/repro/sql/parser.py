"""Recursive-descent SQL parser.

Grammar covers the subset RQL and the paper's workloads need: SELECT
(with ``AS OF``, joins, GROUP BY/HAVING, ORDER BY, LIMIT), INSERT,
UPDATE, DELETE, CREATE/DROP TABLE and INDEX, CREATE/REFRESH/DROP
MATERIALIZED VIEW, BEGIN / COMMIT [WITH SNAPSHOT] / ROLLBACK,
expressions with three-valued logic operators, CASE, IN, BETWEEN,
LIKE and function calls.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ParseError
from repro.sql import ast
from repro.sql.lexer import (
    BLOB,
    EOF,
    FLOAT,
    IDENT,
    INTEGER,
    KEYWORD,
    OPERATOR,
    STRING,
    Token,
    tokenize,
)

_COMPARISONS = ("=", "==", "!=", "<>", "<", "<=", ">", ">=")
_TYPE_KEYWORDS = ("INTEGER", "INT", "REAL", "TEXT", "BLOB", "DATE",
                  "NUMERIC")


def parse_sql(sql: str) -> List[ast.Statement]:
    """Parse one or more ;-separated statements."""
    return Parser(sql).parse_statements()


def parse_one(sql: str) -> ast.Statement:
    """Parse exactly one statement (trailing ';' allowed)."""
    statements = parse_sql(sql)
    if len(statements) != 1:
        raise ParseError(
            f"expected a single statement, found {len(statements)}"
        )
    return statements[0]


def parse_expression(sql: str) -> ast.Expr:
    """Parse a stand-alone expression (used by tests and tools)."""
    parser = Parser(sql)
    expr = parser._expr()
    parser._expect_eof()
    return expr


class Parser:
    def __init__(self, sql: str) -> None:
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        if not ahead:
            return self.tokens[self.pos]  # never past the EOF token
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def _next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def _accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        # Token.matches, inlined: this is the parser's most frequent call.
        tok = self.tokens[self.pos]
        if tok.kind == kind and (value is None or tok.value == value):
            return self._next()
        return None

    def _expect(self, kind: str, value: Optional[str] = None) -> Token:
        tok = self._peek()
        if not tok.matches(kind, value):
            wanted = value or kind
            raise ParseError(
                f"expected {wanted}, found {tok.value!r}", tok.position
            )
        return self._next()

    def _expect_eof(self) -> None:
        tok = self._peek()
        if tok.kind != EOF:
            raise ParseError(
                f"unexpected trailing input {tok.value!r}", tok.position
            )

    @staticmethod
    def _at(node, tok: Token):
        """Stamp a node with the 1-based source position of ``tok``."""
        node.line = tok.line
        node.col = tok.col
        return node

    def _ident(self) -> str:
        tok = self._peek()
        if tok.kind == IDENT:
            self._next()
            return str(tok.value)
        # Allow non-reserved keywords as identifiers where unambiguous.
        if tok.kind == KEYWORD and tok.value in (
            "DATE", "KEY", "INDEX", "TEMP", "COUNT", "SUM", "MIN", "MAX",
            "AVG", "TEXT", "BLOB", "REAL", "INTEGER", "NUMERIC", "OF",
        ):
            self._next()
            return str(tok.value)
        raise ParseError(f"expected identifier, found {tok.value!r}",
                         tok.position)

    # -- statements ------------------------------------------------------------

    def parse_statements(self) -> List[ast.Statement]:
        statements: List[ast.Statement] = []
        while True:
            while self._accept(OPERATOR, ";"):
                pass
            if self._peek().kind == EOF:
                return statements
            statements.append(self._statement())
            if self._peek().kind == EOF:
                return statements
            self._expect(OPERATOR, ";")

    def _statement(self) -> ast.Statement:
        tok = self._peek()
        if tok.kind != KEYWORD:
            raise ParseError(f"expected a statement, found {tok.value!r}",
                             tok.position)
        keyword = tok.value
        if keyword == "EXPLAIN":
            self._next()
            return ast.Explain(self._statement())
        if keyword == "SELECT":
            return self._select()
        if keyword == "INSERT":
            return self._insert()
        if keyword == "DELETE":
            return self._delete()
        if keyword == "UPDATE":
            return self._update()
        if keyword == "CREATE":
            return self._create()
        if keyword == "DROP":
            return self._drop()
        if keyword == "REFRESH":
            return self._refresh()
        if keyword == "BEGIN":
            self._next()
            self._accept(KEYWORD, "TRANSACTION")
            return ast.Begin()
        if keyword == "COMMIT":
            self._next()
            with_snapshot = False
            if self._accept(KEYWORD, "WITH"):
                self._expect(KEYWORD, "SNAPSHOT")
                with_snapshot = True
            return ast.Commit(with_snapshot=with_snapshot)
        if keyword == "ROLLBACK":
            self._next()
            return ast.Rollback()
        if keyword == "ANALYZE":
            self._next()
            nxt = self._peek()
            table = None
            if nxt.kind != EOF and not nxt.matches(OPERATOR, ";"):
                table = self._ident()
            return ast.Analyze(table=table)
        raise ParseError(f"unsupported statement {keyword}", tok.position)

    # -- SELECT ---------------------------------------------------------------

    def _select(self) -> ast.Select:
        select_tok = self._expect(KEYWORD, "SELECT")
        as_of: Optional[ast.Expr] = None
        if self._peek().matches(KEYWORD, "AS") and \
                self._peek(1).matches(KEYWORD, "OF"):
            self._next()
            self._next()
            as_of = self._primary()
        distinct = False
        if self._accept(KEYWORD, "DISTINCT"):
            distinct = True
        elif self._accept(KEYWORD, "ALL"):
            pass
        items = [self._select_item()]
        while self._accept(OPERATOR, ","):
            items.append(self._select_item())
        source = None
        if self._accept(KEYWORD, "FROM"):
            source = self._from_clause()
        where = self._expr() if self._accept(KEYWORD, "WHERE") else None
        group_by: List[ast.Expr] = []
        having = None
        if self._accept(KEYWORD, "GROUP"):
            self._expect(KEYWORD, "BY")
            group_by.append(self._expr())
            while self._accept(OPERATOR, ","):
                group_by.append(self._expr())
            if self._accept(KEYWORD, "HAVING"):
                having = self._expr()
        order_by: List[ast.OrderItem] = []
        if self._accept(KEYWORD, "ORDER"):
            self._expect(KEYWORD, "BY")
            order_by.append(self._order_item())
            while self._accept(OPERATOR, ","):
                order_by.append(self._order_item())
        limit = offset = None
        if self._accept(KEYWORD, "LIMIT"):
            limit = self._expr()
            if self._accept(KEYWORD, "OFFSET"):
                offset = self._expr()
            elif self._accept(OPERATOR, ","):
                # LIMIT offset, count (SQLite compatibility)
                offset = limit
                limit = self._expr()
        return self._at(ast.Select(
            items=items, source=source, where=where, group_by=group_by,
            having=having, order_by=order_by, limit=limit, offset=offset,
            distinct=distinct, as_of=as_of,
        ), select_tok)

    def _select_item(self) -> ast.SelectItem:
        start = self._peek()
        if self._accept(OPERATOR, "*"):
            return self._at(ast.SelectItem(expr=None, is_star=True), start)
        # 't.*'
        if (self._peek().kind == IDENT
                and self._peek(1).matches(OPERATOR, ".")
                and self._peek(2).matches(OPERATOR, "*")):
            table = self._ident()
            self._next()
            self._next()
            return self._at(
                ast.SelectItem(expr=None, is_star=True, star_table=table),
                start)
        expr = self._expr()
        alias = None
        if self._accept(KEYWORD, "AS"):
            alias = self._ident()
        elif self._peek().kind == IDENT:
            alias = self._ident()
        return self._at(ast.SelectItem(expr=expr, alias=alias), start)

    def _order_item(self) -> ast.OrderItem:
        start = self._peek()
        expr = self._expr()
        descending = False
        if self._accept(KEYWORD, "DESC"):
            descending = True
        else:
            self._accept(KEYWORD, "ASC")
        return self._at(ast.OrderItem(expr=expr, descending=descending),
                        start)

    def _from_clause(self):
        node: object = self._table_ref()
        while True:
            if self._accept(OPERATOR, ","):
                right = self._table_ref()
                node = ast.Join(left=node, right=right, condition=None)
                continue
            cross = self._accept(KEYWORD, "CROSS")
            inner = self._accept(KEYWORD, "INNER") if not cross else None
            left = self._accept(KEYWORD, "LEFT") if not (cross or inner) else None
            if left:
                raise ParseError("LEFT JOIN is not supported",
                                 self._peek().position)
            if cross or inner or self._peek().matches(KEYWORD, "JOIN"):
                self._expect(KEYWORD, "JOIN")
                right = self._table_ref()
                condition = None
                if self._accept(KEYWORD, "ON"):
                    condition = self._expr()
                node = ast.Join(left=node, right=right, condition=condition)
                continue
            return node

    def _table_ref(self) -> ast.TableRef:
        start = self._peek()
        name = self._ident()
        alias = None
        if self._accept(KEYWORD, "AS"):
            alias = self._ident()
        elif self._peek().kind == IDENT:
            alias = self._ident()
        return self._at(ast.TableRef(name=name, alias=alias), start)

    # -- INSERT / DELETE / UPDATE ------------------------------------------------

    def _insert(self) -> ast.Insert:
        self._expect(KEYWORD, "INSERT")
        self._expect(KEYWORD, "INTO")
        table = self._ident()
        columns: List[str] = []
        if self._accept(OPERATOR, "("):
            columns.append(self._ident())
            while self._accept(OPERATOR, ","):
                columns.append(self._ident())
            self._expect(OPERATOR, ")")
        if self._accept(KEYWORD, "VALUES"):
            rows: List[List[ast.Expr]] = []
            while True:
                self._expect(OPERATOR, "(")
                row = [self._expr()]
                while self._accept(OPERATOR, ","):
                    row.append(self._expr())
                self._expect(OPERATOR, ")")
                rows.append(row)
                if not self._accept(OPERATOR, ","):
                    break
            return ast.Insert(table=table, columns=columns, rows=rows)
        if self._peek().matches(KEYWORD, "SELECT"):
            select = self._select()
            return ast.Insert(table=table, columns=columns, select=select)
        raise ParseError("expected VALUES or SELECT in INSERT",
                         self._peek().position)

    def _delete(self) -> ast.Delete:
        self._expect(KEYWORD, "DELETE")
        self._expect(KEYWORD, "FROM")
        table = self._ident()
        where = self._expr() if self._accept(KEYWORD, "WHERE") else None
        return ast.Delete(table=table, where=where)

    def _update(self) -> ast.Update:
        self._expect(KEYWORD, "UPDATE")
        table = self._ident()
        self._expect(KEYWORD, "SET")
        assignments: List[Tuple[str, ast.Expr]] = []
        while True:
            column = self._ident()
            self._expect(OPERATOR, "=")
            assignments.append((column, self._expr()))
            if not self._accept(OPERATOR, ","):
                break
        where = self._expr() if self._accept(KEYWORD, "WHERE") else None
        return ast.Update(table=table, assignments=assignments, where=where)

    # -- CREATE / DROP ---------------------------------------------------------

    def _create(self) -> ast.Statement:
        self._expect(KEYWORD, "CREATE")
        temporary = bool(self._accept(KEYWORD, "TEMP")
                         or self._accept(KEYWORD, "TEMPORARY"))
        unique = bool(self._accept(KEYWORD, "UNIQUE"))
        if self._accept(KEYWORD, "TABLE"):
            if unique:
                raise ParseError("UNIQUE applies to indexes, not tables",
                                 self._peek().position)
            return self._create_table(temporary)
        if self._accept(KEYWORD, "INDEX"):
            if temporary:
                raise ParseError("temporary indexes are not supported",
                                 self._peek().position)
            return self._create_index(unique)
        if self._accept(KEYWORD, "MATERIALIZED"):
            if temporary or unique:
                raise ParseError(
                    "TEMP/UNIQUE do not apply to materialized views",
                    self._peek().position)
            self._expect(KEYWORD, "VIEW")
            return self._create_materialized_view()
        raise ParseError(
            "expected TABLE, INDEX or MATERIALIZED VIEW after CREATE",
            self._peek().position)

    def _if_not_exists(self) -> bool:
        if self._accept(KEYWORD, "IF"):
            self._expect(KEYWORD, "NOT")
            self._expect(KEYWORD, "EXISTS")
            return True
        return False

    def _create_table(self, temporary: bool) -> ast.CreateTable:
        if_not_exists = self._if_not_exists()
        name = self._ident()
        if self._accept(KEYWORD, "AS"):
            select = self._select()
            return ast.CreateTable(
                name=name, columns=[], temporary=temporary,
                if_not_exists=if_not_exists, as_select=select,
            )
        self._expect(OPERATOR, "(")
        columns: List[ast.ColumnDef] = []
        primary_key: List[str] = []
        while True:
            if self._peek().matches(KEYWORD, "PRIMARY"):
                self._next()
                self._expect(KEYWORD, "KEY")
                self._expect(OPERATOR, "(")
                primary_key.append(self._ident())
                while self._accept(OPERATOR, ","):
                    primary_key.append(self._ident())
                self._expect(OPERATOR, ")")
            else:
                columns.append(self._column_def(primary_key))
            if not self._accept(OPERATOR, ","):
                break
        self._expect(OPERATOR, ")")
        return ast.CreateTable(
            name=name, columns=columns, temporary=temporary,
            if_not_exists=if_not_exists, primary_key=primary_key,
        )

    def _column_def(self, primary_key_out: List[str]) -> ast.ColumnDef:
        name = self._ident()
        type_name = ""  # no affinity unless declared (SQLite-like)
        tok = self._peek()
        if tok.kind == KEYWORD and tok.value in _TYPE_KEYWORDS:
            self._next()
            type_name = str(tok.value)
        elif tok.kind == IDENT and str(tok.value).upper() in _TYPE_KEYWORDS:
            self._next()
            type_name = str(tok.value).upper()
        column = ast.ColumnDef(name=name, type_name=type_name)
        while True:
            if self._accept(KEYWORD, "PRIMARY"):
                self._expect(KEYWORD, "KEY")
                column.primary_key = True
                primary_key_out.append(name)
            elif self._accept(KEYWORD, "NOT"):
                self._expect(KEYWORD, "NULL")
                column.not_null = True
            elif self._accept(KEYWORD, "DEFAULT"):
                column.default = self._primary()
            elif self._accept(KEYWORD, "UNIQUE"):
                pass  # tolerated; uniqueness enforced only via PK/indexes
            else:
                return column

    def _create_index(self, unique: bool) -> ast.CreateIndex:
        if_not_exists = self._if_not_exists()
        name = self._ident()
        self._expect(KEYWORD, "ON")
        table = self._ident()
        self._expect(OPERATOR, "(")
        columns = [self._ident()]
        while self._accept(OPERATOR, ","):
            columns.append(self._ident())
        self._expect(OPERATOR, ")")
        return ast.CreateIndex(
            name=name, table=table, columns=columns, unique=unique,
            if_not_exists=if_not_exists,
        )

    def _create_materialized_view(self) -> ast.CreateMaterializedView:
        if_not_exists = self._if_not_exists()
        name = self._ident()
        self._expect(KEYWORD, "AS")
        mechanism = self._ident()
        self._expect(OPERATOR, "(")
        qq = self._string_literal("the defining Qq query")
        arg = None
        if self._accept(OPERATOR, ","):
            arg = self._string_literal("the aggregate argument")
        self._expect(OPERATOR, ")")
        return ast.CreateMaterializedView(
            name=name, mechanism=mechanism, qq=qq, arg=arg,
            if_not_exists=if_not_exists,
        )

    def _string_literal(self, what: str) -> str:
        tok = self._peek()
        if tok.kind != STRING:
            raise ParseError(
                f"expected a string literal for {what}, "
                f"found {tok.value!r}", tok.position)
        self._next()
        return str(tok.value)

    def _refresh(self) -> ast.RefreshMaterializedView:
        self._expect(KEYWORD, "REFRESH")
        self._expect(KEYWORD, "MATERIALIZED")
        self._expect(KEYWORD, "VIEW")
        name = self._ident()
        full = False
        tok = self._peek()
        if tok.kind == IDENT and str(tok.value).upper() == "FULL":
            self._next()
            full = True
        return ast.RefreshMaterializedView(name=name, full=full)

    def _drop(self) -> ast.Statement:
        self._expect(KEYWORD, "DROP")
        if self._accept(KEYWORD, "TABLE"):
            if_exists = self._if_exists()
            return ast.DropTable(name=self._ident(), if_exists=if_exists)
        if self._accept(KEYWORD, "INDEX"):
            if_exists = self._if_exists()
            return ast.DropIndex(name=self._ident(), if_exists=if_exists)
        if self._accept(KEYWORD, "MATERIALIZED"):
            self._expect(KEYWORD, "VIEW")
            if_exists = self._if_exists()
            return ast.DropMaterializedView(
                name=self._ident(), if_exists=if_exists)
        raise ParseError(
            "expected TABLE, INDEX or MATERIALIZED VIEW after DROP",
            self._peek().position)

    def _if_exists(self) -> bool:
        if self._accept(KEYWORD, "IF"):
            self._expect(KEYWORD, "EXISTS")
            return True
        return False

    # -- expressions (precedence climbing) ------------------------------------------

    def _expr(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        left = self._and_expr()
        while True:
            tok = self._accept(KEYWORD, "OR")
            if tok is None:
                return left
            left = self._at(ast.BinaryOp("OR", left, self._and_expr()), tok)

    def _and_expr(self) -> ast.Expr:
        left = self._not_expr()
        while True:
            tok = self._accept(KEYWORD, "AND")
            if tok is None:
                return left
            left = self._at(ast.BinaryOp("AND", left, self._not_expr()), tok)

    def _not_expr(self) -> ast.Expr:
        tok = self._accept(KEYWORD, "NOT")
        if tok is not None:
            return self._at(ast.UnaryOp("NOT", self._not_expr()), tok)
        return self._comparison()

    def _comparison(self) -> ast.Expr:
        left = self._additive()
        while True:
            tok = self._peek()
            if tok.kind == OPERATOR and tok.value in _COMPARISONS:
                self._next()
                op = "=" if tok.value == "==" else str(tok.value)
                op = "!=" if op == "<>" else op
                left = self._at(ast.BinaryOp(op, left, self._additive()),
                                tok)
                continue
            if tok.matches(KEYWORD, "IS"):
                self._next()
                negated = bool(self._accept(KEYWORD, "NOT"))
                self._expect(KEYWORD, "NULL")
                left = self._at(ast.IsNull(left, negated=negated), tok)
                continue
            negated = False
            if tok.matches(KEYWORD, "NOT") and self._peek(1).value in (
                    "IN", "BETWEEN", "LIKE"):
                self._next()
                negated = True
                tok = self._peek()
            if tok.matches(KEYWORD, "IN"):
                self._next()
                self._expect(OPERATOR, "(")
                items = [self._expr()]
                while self._accept(OPERATOR, ","):
                    items.append(self._expr())
                self._expect(OPERATOR, ")")
                left = self._at(ast.InList(left, items, negated=negated),
                                tok)
                continue
            if tok.matches(KEYWORD, "BETWEEN"):
                self._next()
                low = self._additive()
                self._expect(KEYWORD, "AND")
                high = self._additive()
                left = self._at(
                    ast.Between(left, low, high, negated=negated), tok)
                continue
            if tok.matches(KEYWORD, "LIKE"):
                self._next()
                pattern = self._additive()
                left = self._at(ast.Like(left, pattern, negated=negated),
                                tok)
                continue
            return left

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while True:
            tok = self._peek()
            if tok.kind == OPERATOR and tok.value in ("+", "-", "||"):
                self._next()
                left = self._at(
                    ast.BinaryOp(str(tok.value), left,
                                 self._multiplicative()), tok)
            else:
                return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while True:
            tok = self._peek()
            if tok.kind == OPERATOR and tok.value in ("*", "/", "%"):
                self._next()
                left = self._at(
                    ast.BinaryOp(str(tok.value), left, self._unary()), tok)
            else:
                return left

    def _unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind == OPERATOR and tok.value in ("-", "+"):
            self._next()
            return self._at(ast.UnaryOp(str(tok.value), self._unary()), tok)
        return self._primary()

    def _primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind in (INTEGER, FLOAT, STRING, BLOB):
            self._next()
            return self._at(ast.Literal(tok.value), tok)
        if tok.matches(KEYWORD, "NULL"):
            self._next()
            return self._at(ast.Literal(None), tok)
        if tok.matches(KEYWORD, "CASE"):
            return self._case()
        if tok.kind == OPERATOR and tok.value == "(":
            self._next()
            expr = self._expr()
            self._expect(OPERATOR, ")")
            return expr
        # Aggregate keywords used as function names.
        if tok.kind == KEYWORD and tok.value in (
                "COUNT", "SUM", "MIN", "MAX", "AVG", "DATE"):
            if self._peek(1).matches(OPERATOR, "("):
                name = str(self._next().value)
                return self._at(self._function_call(name), tok)
        if tok.kind == IDENT:
            if self._peek(1).matches(OPERATOR, "("):
                name = self._ident()
                return self._at(self._function_call(name), tok)
            name = self._ident()
            if self._accept(OPERATOR, "."):
                column = self._ident()
                return self._at(ast.ColumnRef(table=name, name=column), tok)
            return self._at(ast.ColumnRef(table=None, name=name), tok)
        raise ParseError(f"unexpected token {tok.value!r} in expression",
                         tok.position)

    def _function_call(self, name: str) -> ast.Expr:
        self._expect(OPERATOR, "(")
        if self._accept(OPERATOR, "*"):
            self._expect(OPERATOR, ")")
            return ast.FunctionCall(name=name, args=[], star=True)
        if self._accept(OPERATOR, ")"):
            return ast.FunctionCall(name=name, args=[])
        distinct = bool(self._accept(KEYWORD, "DISTINCT"))
        args = [self._expr()]
        while self._accept(OPERATOR, ","):
            args.append(self._expr())
        self._expect(OPERATOR, ")")
        return ast.FunctionCall(name=name, args=args, distinct=distinct)

    def _case(self) -> ast.Expr:
        case_tok = self._expect(KEYWORD, "CASE")
        operand = None
        if not self._peek().matches(KEYWORD, "WHEN"):
            operand = self._expr()
        branches: List[Tuple[ast.Expr, ast.Expr]] = []
        while self._accept(KEYWORD, "WHEN"):
            condition = self._expr()
            self._expect(KEYWORD, "THEN")
            result = self._expr()
            branches.append((condition, result))
        else_result = None
        if self._accept(KEYWORD, "ELSE"):
            else_result = self._expr()
        self._expect(KEYWORD, "END")
        if not branches:
            raise ParseError("CASE requires at least one WHEN branch",
                             self._peek().position)
        return self._at(ast.CaseExpr(operand=operand, branches=branches,
                                     else_result=else_result), case_tok)
