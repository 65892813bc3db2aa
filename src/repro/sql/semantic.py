"""Semantic analysis over parsed SELECTs (the front half of rqlint).

rqlint needs, statically, what a query reads, what type each output
has, which select items are aggregates, which WHERE conjuncts are
pushable into a single table's per-snapshot scan and whether an index
serves them.  None of it is worked out here a second time: the FROM
tables are the planner's :class:`~repro.sql.planner.TableDesc` objects,
names bind through its :class:`~repro.sql.expressions.Scope` with the
executor's alias, star and output-naming rules, and the index verdicts
are read off a :func:`~repro.sql.planner.plan_from` plan.  What this
module adds is what the planner does not compute: function
classification, output types, :func:`render_expr`, the DDL-backed
:class:`StaticSchema` and the Qs range analysis.

:mod:`repro.sql.certify` layers the mechanism-level
merge-class certification (RQL100-106) on top of the
:class:`QuerySummary` produced here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import PlanError, ReproError
from repro.sql import ast
from repro.sql.catalog import Column, IndexInfo, TableInfo, primary_key_storage
from repro.sql.expressions import (
    CURRENT_SNAPSHOT,
    Scope,
    classify_conjunct,
    conjuncts,
    contains_aggregate,
    walk,
)
from repro.sql.functions import BUILTIN_SCALARS
from repro.sql.parser import parse_sql
from repro.sql.planner import (
    ROWID_PATH,
    SelectPlan,
    TableDesc,
    _aggregation,
    _column_names,
    _descs_from_schema,
    _keyed_path,
    _resolve_order_expr,
    _Shape,
    expand_stars,
    output_name,
    plan_from,
    scope_of,
)

#: Builtins whose value depends on hidden mutable state: calling them
#: from a Qq makes the retrospection irreproducible and partition-order
#: dependent.
STATEFUL_FUNCTIONS = frozenset({"rql_workers"})
#: RQL names a run binds to its cursor's snapshot: one constant per
#: snapshot, deterministic by construction.
REWRITTEN_FUNCTIONS = frozenset({CURRENT_SNAPSHOT})
#: Scalars that always map equal inputs to equal outputs.
DETERMINISTIC_BUILTINS = frozenset(BUILTIN_SCALARS) | {"snapshot_id"}


# ---------------------------------------------------------------------------
# Schema providers
# ---------------------------------------------------------------------------


class SchemaProvider:
    """What resolution needs to know about the database.

    Two implementations: :class:`StaticSchema` (built from DDL text,
    used by the lint driver) and :class:`ContextSchema` (the live
    database: an adapter over the statement context EXPLAIN plans in
    and :meth:`~repro.sql.database.Database.reading` opens for a
    certificate).
    """

    def table(self, name: str,
              ) -> Optional[Tuple[TableInfo, List[IndexInfo]]]:
        """The catalog entry of table ``name`` and those of its indexes
        (a primary key stored as an index included), or None if there
        is no such table."""
        raise NotImplementedError

    def known_functions(self) -> Set[str]:
        """Lower-cased names of registered scalar functions."""
        return set()


class StaticSchema(SchemaProvider):
    """Dictionary-backed schema, typically built from DDL text."""

    def __init__(self) -> None:
        self._tables: Dict[str, TableInfo] = {}
        self._indexes: Dict[str, List[IndexInfo]] = {}
        self._functions: Set[str] = set()

    @classmethod
    def from_ddl(cls, ddl: str) -> "StaticSchema":
        schema = cls()
        schema.add_ddl(ddl)
        return schema

    def add_ddl(self, ddl: str) -> None:
        """Fold CREATE TABLE / CREATE INDEX statements into the schema."""
        for statement in parse_sql(ddl):
            if isinstance(statement, ast.CreateTable):
                self.add_table(
                    statement.name,
                    [(c.name, c.type_name) for c in statement.columns],
                    primary_key=list(statement.primary_key),
                )
            elif isinstance(statement, ast.CreateIndex):
                self.add_index(statement.name, statement.table,
                               list(statement.columns))

    def add_table(self, name: str,
                  columns: Sequence[Tuple[str, str]],
                  primary_key: Sequence[str] = ()) -> None:
        self._tables[name.lower()] = TableInfo(
            name=name, root_id=0,
            columns=[Column(*column) for column in columns],
            primary_key=list(primary_key))
        _alias, index = primary_key_storage(name, columns, primary_key)
        if index is not None:
            self.add_index(index, name, list(primary_key))

    def add_index(self, name: str, table: str,
                  columns: Sequence[str]) -> None:
        self._indexes.setdefault(table.lower(), []).append(
            IndexInfo(name=name, table=table, root_id=0,
                      columns=list(columns)))

    def add_function(self, name: str) -> None:
        self._functions.add(name.lower())

    def table(self, name: str,
              ) -> Optional[Tuple[TableInfo, List[IndexInfo]]]:
        info = self._tables.get(name.lower())
        if info is None:
            return None
        return info, list(self._indexes.get(name.lower(), []))

    def known_functions(self) -> Set[str]:
        return set(self._functions)


class ContextSchema(SchemaProvider):
    """Adapter over a planner ``ExecutionContext``: names resolve the
    way a statement opened in that context would resolve them, one
    lookup per table the query names."""

    def __init__(self, ctx) -> None:
        self._ctx = ctx

    def table(self, name: str,
              ) -> Optional[Tuple[TableInfo, List[IndexInfo]]]:
        try:
            access = self._ctx.open_table(name)
            indexes = self._ctx.open_indexes(access)
        except ReproError:
            return None
        return access.info, [index.info for index in indexes]

    def known_functions(self) -> Set[str]:
        return {name.lower() for name in self._ctx.functions}


# ---------------------------------------------------------------------------
# Query summary
# ---------------------------------------------------------------------------


@dataclass
class SemanticIssue:
    """A resolution/shape problem found statically (feeds RQL100)."""

    message: str
    line: int = 0
    col: int = 0


@dataclass
class OutputColumn:
    """One resolved select-list entry."""

    name: str
    type_name: str
    kind: str  # 'aggregate' | 'scalar' | 'column' | 'constant'


@dataclass
class Predicate:
    """One WHERE conjunct with its pushdown/index classification."""

    text: str
    tables: Tuple[str, ...]  # binding names the conjunct touches
    pushable: bool
    #: the index whose access consumed the conjunct in the plan, if
    #: any; ``INTEGER PRIMARY KEY`` for a seek of the table by its rowid
    #: alias
    indexed_by: Optional[str] = None
    #: ``(table, column)`` of an index-shaped single-table conjunct no
    #: index (nor the rowid) of that table leads with
    index_candidate: Optional[Tuple[str, str]] = None
    line: int = 0
    col: int = 0


@dataclass
class QuerySummary:
    """Everything rqlint knows statically about one SELECT."""

    tables: List[str] = field(default_factory=list)  # base tables, FROM order
    read_columns: Dict[str, List[str]] = field(default_factory=dict)
    outputs: List[OutputColumn] = field(default_factory=list)
    aggregate_calls: List[ast.FunctionCall] = field(default_factory=list)
    scalar_functions: Set[str] = field(default_factory=set)
    unknown_functions: Set[str] = field(default_factory=set)
    stateful_functions: Set[str] = field(default_factory=set)
    predicates: List[Predicate] = field(default_factory=list)
    has_group_by: bool = False
    has_order_by: bool = False
    has_limit: bool = False
    distinct: bool = False
    issues: List[SemanticIssue] = field(default_factory=list)

    @property
    def resolved(self) -> bool:
        return not self.issues

    @property
    def pushable_predicates(self) -> List[Predicate]:
        return [p for p in self.predicates if p.pushable]

    @property
    def index_candidates(self) -> List[Tuple[str, str]]:
        return [p.index_candidate for p in self.predicates
                if p.index_candidate is not None]


# ---------------------------------------------------------------------------
# Expression rendering (for diagnostics and EXPLAIN)
# ---------------------------------------------------------------------------


def render_expr(expr: Optional[ast.Expr]) -> str:
    """Render an expression back to compact SQL-ish text."""
    if expr is None:
        return ""
    if isinstance(expr, ast.Literal):
        if expr.value is None:
            return "NULL"
        if isinstance(expr.value, str):
            escaped = expr.value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(expr.value, bytes):
            return f"x'{expr.value.hex()}'"
        return repr(expr.value)
    if isinstance(expr, ast.ColumnRef):
        return expr.display()
    if isinstance(expr, ast.UnaryOp):
        sep = " " if expr.op.isalpha() else ""
        return f"{expr.op}{sep}{render_expr(expr.operand)}"
    if isinstance(expr, ast.BinaryOp):
        return (f"{render_expr(expr.left)} {expr.op} "
                f"{render_expr(expr.right)}")
    if isinstance(expr, ast.IsNull):
        middle = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"{render_expr(expr.operand)} {middle}"
    if isinstance(expr, ast.InList):
        items = ", ".join(render_expr(item) for item in expr.items)
        middle = "NOT IN" if expr.negated else "IN"
        return f"{render_expr(expr.operand)} {middle} ({items})"
    if isinstance(expr, ast.Between):
        middle = "NOT BETWEEN" if expr.negated else "BETWEEN"
        return (f"{render_expr(expr.operand)} {middle} "
                f"{render_expr(expr.low)} AND {render_expr(expr.high)}")
    if isinstance(expr, ast.Like):
        middle = "NOT LIKE" if expr.negated else "LIKE"
        return f"{render_expr(expr.operand)} {middle} {render_expr(expr.pattern)}"
    if isinstance(expr, ast.FunctionCall):
        if expr.star:
            return f"{expr.name}(*)"
        inner = ", ".join(render_expr(arg) for arg in expr.args)
        if expr.distinct:
            inner = f"DISTINCT {inner}"
        return f"{expr.name}({inner})"
    if isinstance(expr, ast.CaseExpr):
        parts = ["CASE"]
        if expr.operand is not None:
            parts.append(render_expr(expr.operand))
        for condition, result in expr.branches:
            parts.append(
                f"WHEN {render_expr(condition)} THEN {render_expr(result)}")
        if expr.else_result is not None:
            parts.append(f"ELSE {render_expr(expr.else_result)}")
        parts.append("END")
        return " ".join(parts)
    return f"<{type(expr).__name__}>"


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------


def resolve_select(select: ast.Select,
                   schema: SchemaProvider) -> QuerySummary:
    """Statically resolve one SELECT against a schema: its FROM tables
    looked up once, planned once without statistics (the plan DML and an
    un-ANALYZEd database run), then summarized (:func:`summarize`)."""
    shape = _Shape(select, run=False)
    known = schema.known_functions
    try:
        descs = _descs_from_schema(shape, schema)
        plan = plan_from(descs, shape.predicates(descs)[0], _no_statistics)
    except PlanError as exc:
        summary = _outline(select)
        clauses = [item.expr for item in select.items] + [
            select.where, *select.group_by, select.having,
            *(order.expr for order in select.order_by),
            *shape.on_conjuncts]
        for clause in clauses:
            if clause is not None:
                _bind(clause, None, [], summary, known)
        summary.issues.append(_issue(str(exc), select))
        return summary
    return summarize(shape, descs, plan, known)


def summarize(shape: _Shape, descs: List[TableDesc], plan: SelectPlan,
              known_functions: Callable[[], Set[str]]) -> QuerySummary:
    """The summary of ``shape``'s statement over its FROM tables
    ``descs`` (FROM order) as ``plan`` executes it.

    Names bind through the tables' :class:`Scope`, after the executor's
    star expansion and alias rules; outputs are named by
    :func:`~repro.sql.planner.output_name`, over the aggregated row when
    the statement aggregates; ``known_functions`` answers the names of
    the registered functions, asked only for a call no builtin explains.
    A conjunct is ``indexed_by`` the index,
    or the rowid, whose access consumed it in ``plan``, and an
    ``index_candidate`` when it is index-shaped, touches one table and
    no path of that table's leads with its column."""
    select = shape.select
    summary = _outline(select)
    scope = scope_of(descs)
    owners = [desc for desc in descs for _column in desc.columns]
    for desc in descs:
        if desc.table not in summary.tables:
            summary.tables.append(desc.table)
    predicates = shape.predicates(descs)[0]
    try:
        items = expand_stars(select.items, scope)
        columns = _column_names(descs) if shape.aliased else frozenset()
        if shape.aggregated:
            group_exprs, having, _calls, _to_post_agg, named = \
                _aggregation(select, items, columns, None)
        else:
            group_exprs, having, named = [], None, items
        orders = [_resolve_order_expr(order.expr, items, columns)
                  for order in select.order_by]
    except PlanError as exc:
        summary.issues.append(_issue(str(exc), select))
        return summary

    for expr in [item.expr for item in items] + group_exprs + [having] \
            + orders:
        if expr is not None:
            _bind(expr, scope, owners, summary, known_functions)
    types = [column.type_name for desc in descs
             for column in desc.info.columns]
    for position, (item, result) in enumerate(zip(items, named)):
        expr = item.expr
        if shape.aggregated and contains_aggregate(expr):
            kind = "aggregate"
        elif isinstance(expr, ast.ColumnRef):
            kind = "column"
        elif isinstance(expr, ast.Literal):
            kind = "constant"
        else:
            kind = "scalar"
        summary.outputs.append(OutputColumn(
            name=output_name(result, position),
            type_name=_infer_type(expr, scope, types), kind=kind))

    access = plan.steps[0].access if plan.steps else None
    for part in predicates:
        touched = _bind(part, scope, owners, summary, known_functions)
        predicate = Predicate(
            text=render_expr(part),
            tables=tuple(desc.table for desc in touched),
            pushable=len(touched) <= 1,
            line=getattr(part, "line", 0),
            col=getattr(part, "col", 0),
        )
        if access is not None and part is access.pred:
            predicate.indexed_by = access.index or ROWID_PATH
        elif len(touched) == 1:
            conjunct = classify_conjunct(part)
            if conjunct is not None and _keyed_path(
                    touched[0], conjunct.column.name)[0] is None:
                predicate.index_candidate = (touched[0].table,
                                             conjunct.column.name)
        summary.predicates.append(predicate)
    return summary


def _bind(expr: ast.Expr, scope: Optional[Scope], owners: List[TableDesc],
          summary: QuerySummary, known_functions: Callable[[], Set[str]],
          ) -> List[TableDesc]:
    """Walk ``expr`` once: classify its function calls and, given a
    ``scope``, bind its column references (a read, or an issue);
    returns the tables it reads, each once, in order."""
    touched: List[TableDesc] = []
    for node in walk(expr):
        if isinstance(node, ast.ColumnRef):
            if scope is None:
                continue
            try:
                pos = scope.resolve(node)
            except PlanError as exc:
                summary.issues.append(_issue(str(exc), node))
                continue
            owner = owners[pos]
            reads = summary.read_columns.setdefault(owner.table, [])
            column = scope.bindings[pos][1]
            if column not in reads:
                reads.append(column)
            if owner not in touched:
                touched.append(owner)
        elif isinstance(node, ast.FunctionCall):
            name = node.name.lower()
            if node.is_aggregate_name():
                summary.aggregate_calls.append(node)
                continue
            summary.scalar_functions.add(name)
            if name in STATEFUL_FUNCTIONS:
                summary.stateful_functions.add(name)
            elif name not in DETERMINISTIC_BUILTINS \
                    and name not in REWRITTEN_FUNCTIONS \
                    and name not in known_functions():
                summary.unknown_functions.add(name)
    return touched


def _no_statistics(_table: str) -> None:
    return None


def _issue(message: str, node) -> SemanticIssue:
    return SemanticIssue(message, getattr(node, "line", 0),
                         getattr(node, "col", 0))


def _outline(select: ast.Select) -> QuerySummary:
    """A summary holding what the statement's text alone says."""
    return QuerySummary(
        has_group_by=bool(select.group_by),
        has_order_by=bool(select.order_by),
        has_limit=select.limit is not None,
        distinct=select.distinct,
    )


def _infer_type(expr: ast.Expr, scope: Scope, types: List[str]) -> str:
    """The declared or inferred type of ``expr``'s value ("" unknown);
    ``types`` are the declared types of ``scope``'s columns."""
    if isinstance(expr, ast.Literal):
        if isinstance(expr.value, bool) or isinstance(expr.value, int):
            return "INTEGER"
        if isinstance(expr.value, float):
            return "REAL"
        if isinstance(expr.value, str):
            return "TEXT"
        if isinstance(expr.value, bytes):
            return "BLOB"
        return ""
    if isinstance(expr, ast.ColumnRef):
        pos = scope.try_resolve(expr)
        return "" if pos is None else types[pos]
    if isinstance(expr, ast.UnaryOp):
        if expr.op == "NOT":
            return "INTEGER"
        return _infer_type(expr.operand, scope, types)
    if isinstance(expr, ast.BinaryOp):
        if expr.op in ("AND", "OR", "=", "!=", "<", "<=", ">", ">="):
            return "INTEGER"  # three-valued logic result
        if expr.op == "||":
            return "TEXT"
        left = _infer_type(expr.left, scope, types)
        right = _infer_type(expr.right, scope, types)
        if "REAL" in (left, right) or expr.op == "/":
            return "REAL"
        if left == right == "INTEGER":
            return "INTEGER"
        return "NUMERIC"
    if isinstance(expr, (ast.IsNull, ast.InList, ast.Between, ast.Like)):
        return "INTEGER"
    if isinstance(expr, ast.FunctionCall):
        name = expr.name.lower()
        if name in ("count",):
            return "INTEGER"
        if name in ("sum", "total", "avg"):
            return "REAL"
        if name in ("min", "max") and expr.args:
            return _infer_type(expr.args[0], scope, types)
        if name in ("group_concat", "lower", "upper", "substr",
                    "substring"):
            return "TEXT"
        if name in ("abs", "round", "sqrt"):
            return "REAL"
        if name == "length":
            return "INTEGER"
        return ""
    if isinstance(expr, ast.CaseExpr):
        for _, result in expr.branches:
            inferred = _infer_type(result, scope, types)
            if inferred:
                return inferred
        if expr.else_result is not None:
            return _infer_type(expr.else_result, scope, types)
    return ""


# ---------------------------------------------------------------------------
# Qs (snapshot-set query) analysis
# ---------------------------------------------------------------------------


@dataclass
class QsRange:
    """Static bounds on the snapshot ids a Qs can produce."""

    lower: Optional[int] = None
    upper: Optional[int] = None

    @property
    def bounded(self) -> bool:
        return self.lower is not None and self.upper is not None

    @property
    def statically_empty(self) -> bool:
        return self.bounded and self.lower > self.upper  # type: ignore[operator]

    def describe(self) -> str:
        if self.statically_empty:
            return "empty"
        lo = "-inf" if self.lower is None else str(self.lower)
        hi = "+inf" if self.upper is None else str(self.upper)
        return f"[{lo}, {hi}]"


def analyze_qs(select: ast.Select) -> Tuple[List[SemanticIssue], QsRange]:
    """Validate Qs shape and extract static snapshot-range bounds.

    Mirrors :func:`repro.core.rewrite.validate_qs` (SELECT without AS
    OF) and additionally reads ``snap_id OP literal`` conjuncts so the
    certificate can carry ``[lo, hi]`` bounds — or report the range as
    unbounded/empty (RQL103).
    """
    issues: List[SemanticIssue] = []
    bounds = QsRange()
    if select.as_of is not None:
        issues.append(SemanticIssue(
            "Qs runs on the SnapIds table, not a snapshot (AS OF found)",
            select.line, select.col))
    id_column = _qs_id_column(select)
    if id_column is None:
        issues.append(SemanticIssue(
            "Qs must produce a single snapshot-id column",
            select.line, select.col))
        return issues, bounds
    for part in conjuncts(select.where):
        _narrow_bounds(bounds, part, id_column)
    return issues, bounds


def _qs_id_column(select: ast.Select) -> Optional[str]:
    if len(select.items) != 1:
        return None
    item = select.items[0]
    if item.is_star or item.expr is None:
        return None
    if isinstance(item.expr, ast.ColumnRef):
        return item.expr.name
    return None


def _narrow_bounds(bounds: QsRange, part: ast.Expr, id_column: str) -> None:
    def is_id(expr: ast.Expr) -> bool:
        return (isinstance(expr, ast.ColumnRef)
                and expr.name.lower() == id_column.lower())

    def int_value(expr: ast.Expr) -> Optional[int]:
        if isinstance(expr, ast.Literal) and isinstance(expr.value, int) \
                and not isinstance(expr.value, bool):
            return expr.value
        return None

    if isinstance(part, ast.BinaryOp):
        op, left, right = part.op, part.left, part.right
        value = None
        if is_id(left):
            value = int_value(right)
        elif is_id(right):
            value = int_value(left)
            flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
            op = flip.get(op, op)
        if value is None:
            return
        if op == "=":
            _raise_lower(bounds, value)
            _lower_upper(bounds, value)
        elif op == "<":
            _lower_upper(bounds, value - 1)
        elif op == "<=":
            _lower_upper(bounds, value)
        elif op == ">":
            _raise_lower(bounds, value + 1)
        elif op == ">=":
            _raise_lower(bounds, value)
    elif isinstance(part, ast.Between) and not part.negated \
            and is_id(part.operand):
        low = int_value(part.low)
        high = int_value(part.high)
        if low is not None:
            _raise_lower(bounds, low)
        if high is not None:
            _lower_upper(bounds, high)
    elif isinstance(part, ast.InList) and not part.negated \
            and is_id(part.operand):
        values = [int_value(item) for item in part.items]
        if values and all(v is not None for v in values):
            _raise_lower(bounds, min(values))  # type: ignore[type-var]
            _lower_upper(bounds, max(values))  # type: ignore[type-var]


def _raise_lower(bounds: QsRange, value: int) -> None:
    if bounds.lower is None or value > bounds.lower:
        bounds.lower = value


def _lower_upper(bounds: QsRange, value: int) -> None:
    if bounds.upper is None or value < bounds.upper:
        bounds.upper = value
