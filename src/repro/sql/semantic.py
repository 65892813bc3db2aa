"""Semantic analysis over parsed SELECTs (the front half of rqlint).

The planner resolves names lazily, one expression at a time, while it
executes.  rqlint needs the same information *statically*: which tables
and columns a query reads, what type each output has, which select items
are aggregates, which WHERE conjuncts are pushable into a single table's
per-snapshot scan and whether an index supports them.  This module
computes all of that from an :class:`repro.sql.ast.Select` plus a
:class:`SchemaProvider` without executing anything.

:mod:`repro.sql.certify` layers the mechanism-level
merge-class certification (RQL100-106) on top of the
:class:`QuerySummary` produced here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ReproError
from repro.sql import ast
from repro.sql.catalog import primary_key_storage
from repro.sql.expressions import (
    CURRENT_SNAPSHOT,
    classify_conjunct,
    conjuncts,
    flatten_from,
    walk,
)
from repro.sql.functions import BUILTIN_SCALARS
from repro.sql.parser import parse_sql

#: Builtins whose value depends on hidden mutable state: calling them
#: from a Qq makes the retrospection irreproducible and partition-order
#: dependent.
STATEFUL_FUNCTIONS = frozenset({"rql_workers"})
#: RQL names a run binds to its cursor's snapshot: one constant per
#: snapshot, deterministic by construction.
REWRITTEN_FUNCTIONS = frozenset({CURRENT_SNAPSHOT})
#: how EXPLAIN and a predicate's ``indexed_by`` name a seek of the table
#: tree by its rowid alias (SQLite's EXPLAIN QUERY PLAN wording)
ROWID_PATH = "INTEGER PRIMARY KEY"
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

    def table_columns(self, name: str) -> Optional[List[Tuple[str, str]]]:
        """``[(column, declared type), ...]`` or None if unknown."""
        raise NotImplementedError

    def table_indexes(self, name: str) -> List[Tuple[str, List[str]]]:
        """``[(index name, [columns...]), ...]`` including a PK stored
        as an index."""
        return []

    def rowid_alias(self, name: str) -> Optional[str]:
        """The column whose value is the table's rowid, or None
        (:func:`repro.sql.catalog.primary_key_storage`)."""
        return None

    def known_functions(self) -> Set[str]:
        """Lower-cased names of registered scalar functions."""
        return set()


class StaticSchema(SchemaProvider):
    """Dictionary-backed schema, typically built from DDL text."""

    def __init__(self) -> None:
        self._tables: Dict[str, List[Tuple[str, str]]] = {}
        self._indexes: Dict[str, List[Tuple[str, List[str]]]] = {}
        self._aliases: Dict[str, str] = {}
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
        self._tables[name.lower()] = list(columns)
        alias, index = primary_key_storage(name, columns, primary_key)
        if alias is not None:
            self._aliases[name.lower()] = alias
        if index is not None:
            self.add_index(index, name, list(primary_key))

    def add_index(self, name: str, table: str,
                  columns: Sequence[str]) -> None:
        self._indexes.setdefault(table.lower(), []).append(
            (name, list(columns)))

    def add_function(self, name: str) -> None:
        self._functions.add(name.lower())

    def table_columns(self, name: str) -> Optional[List[Tuple[str, str]]]:
        return self._tables.get(name.lower())

    def table_indexes(self, name: str) -> List[Tuple[str, List[str]]]:
        return list(self._indexes.get(name.lower(), []))

    def rowid_alias(self, name: str) -> Optional[str]:
        return self._aliases.get(name.lower())

    def known_functions(self) -> Set[str]:
        return set(self._functions)


class ContextSchema(SchemaProvider):
    """Adapter over a planner ``ExecutionContext``: names resolve the
    way a statement opened in that context would resolve them, one
    lookup per table the query names."""

    def __init__(self, ctx) -> None:
        self._ctx = ctx

    def table_columns(self, name: str) -> Optional[List[Tuple[str, str]]]:
        try:
            access = self._ctx.open_table(name)
        except ReproError:
            return None
        return [(c.name, c.type_name) for c in access.info.columns]

    def table_indexes(self, name: str) -> List[Tuple[str, List[str]]]:
        try:
            access = self._ctx.open_table(name)
            indexes = self._ctx.open_indexes(access)
        except ReproError:
            return []
        return [(ix.info.name, list(ix.info.columns)) for ix in indexes]

    def rowid_alias(self, name: str) -> Optional[str]:
        try:
            info = self._ctx.open_table(name).info
        except ReproError:
            return None
        alias = info.rowid_alias
        return None if alias is None else info.columns[alias].name

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
    #: supporting index, if any; ``INTEGER PRIMARY KEY`` for a seek of
    #: the table by its rowid alias
    indexed_by: Optional[str] = None
    index_candidate: Optional[Tuple[str, str]] = None  # (table, column)
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


class _Resolver:
    """Single-use name resolution state for one SELECT."""

    def __init__(self, select: ast.Select, schema: SchemaProvider) -> None:
        self.select = select
        self.schema = schema
        self.summary = QuerySummary()
        # binding (lower) -> (base table name, [(col, type)] or None)
        self.bindings: Dict[str, Tuple[str, Optional[List[Tuple[str, str]]]]] = {}
        self.binding_order: List[str] = []
        self.aliases: Set[str] = set()

    def issue(self, message: str, node=None) -> None:
        line = getattr(node, "line", 0) if node is not None else 0
        col = getattr(node, "col", 0) if node is not None else 0
        self.summary.issues.append(SemanticIssue(message, line, col))

    # -- FROM -------------------------------------------------------------

    def bind_from(self) -> List[ast.Expr]:
        refs, join_conjuncts = flatten_from(self.select.source)
        for ref in refs:
            binding = ref.binding.lower()
            if binding in self.bindings:
                self.issue(f"duplicate table binding: {ref.binding}", ref)
                continue
            columns = self.schema.table_columns(ref.name)
            if columns is None:
                self.issue(f"no such table: {ref.name}", ref)
            else:
                if ref.name not in self.summary.tables:
                    self.summary.tables.append(ref.name)
            self.bindings[binding] = (ref.name, columns)
            self.binding_order.append(binding)
        return join_conjuncts

    # -- column references -------------------------------------------------

    def resolve_ref(self, ref: ast.ColumnRef,
                    allow_aliases: bool = False) -> Optional[str]:
        """Resolve to the binding that owns the column (or None)."""
        name = ref.name.lower()
        if ref.table is not None:
            binding = ref.table.lower()
            if binding not in self.bindings:
                self.issue(f"no such table: {ref.table}", ref)
                return None
            base, columns = self.bindings[binding]
            if columns is None:
                return None  # unknown table already reported
            if not any(col.lower() == name for col, _ in columns):
                self.issue(f"no such column: {ref.display()}", ref)
                return None
            self._note_read(binding, ref.name)
            return binding
        owners = []
        for binding in self.binding_order:
            _, columns = self.bindings[binding]
            if columns is None:
                continue
            if any(col.lower() == name for col, _ in columns):
                owners.append(binding)
        if len(owners) > 1:
            self.issue(f"ambiguous column name: {ref.name}", ref)
            return None
        if not owners:
            if allow_aliases and name in self.aliases:
                return None  # refers to a select-list alias, not a read
            if any(columns is None for _, columns in self.bindings.values()):
                return None  # can't decide against an unknown table
            self.issue(f"no such column: {ref.name}", ref)
            return None
        self._note_read(owners[0], ref.name)
        return owners[0]

    def _note_read(self, binding: str, column: str) -> None:
        base, columns = self.bindings[binding]
        declared = column
        if columns is not None:
            for col, _ in columns:
                if col.lower() == column.lower():
                    declared = col
                    break
        reads = self.summary.read_columns.setdefault(base, [])
        if declared not in reads:
            reads.append(declared)

    def column_type(self, ref: ast.ColumnRef) -> str:
        name = ref.name.lower()
        candidates = ([ref.table.lower()] if ref.table is not None
                      else self.binding_order)
        for binding in candidates:
            if binding not in self.bindings:
                continue
            _, columns = self.bindings[binding]
            if columns is None:
                continue
            for col, type_name in columns:
                if col.lower() == name:
                    return type_name
        return ""

    # -- expression classification ----------------------------------------

    def scan_expr(self, expr: ast.Expr, allow_aliases: bool = False) -> None:
        """Resolve references and classify function calls in a subtree."""
        for node in walk(expr):
            if isinstance(node, ast.ColumnRef):
                self.resolve_ref(node, allow_aliases=allow_aliases)
            elif isinstance(node, ast.FunctionCall):
                self._classify_function(node)

    def _classify_function(self, call: ast.FunctionCall) -> None:
        name = call.name.lower()
        if call.is_aggregate_name():
            self.summary.aggregate_calls.append(call)
            return
        self.summary.scalar_functions.add(name)
        if name in STATEFUL_FUNCTIONS:
            self.summary.stateful_functions.add(name)
        elif name not in (DETERMINISTIC_BUILTINS | REWRITTEN_FUNCTIONS
                          | self.schema.known_functions()):
            self.summary.unknown_functions.add(name)

    # -- type inference ----------------------------------------------------

    def infer_type(self, expr: ast.Expr) -> str:
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
            return self.column_type(expr)
        if isinstance(expr, ast.UnaryOp):
            if expr.op == "NOT":
                return "INTEGER"
            return self.infer_type(expr.operand)
        if isinstance(expr, ast.BinaryOp):
            if expr.op in ("AND", "OR", "=", "!=", "<", "<=", ">", ">="):
                return "INTEGER"  # three-valued logic result
            if expr.op == "||":
                return "TEXT"
            left = self.infer_type(expr.left)
            right = self.infer_type(expr.right)
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
                return self.infer_type(expr.args[0])
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
                inferred = self.infer_type(result)
                if inferred:
                    return inferred
            if expr.else_result is not None:
                return self.infer_type(expr.else_result)
        return ""

    # -- outputs -----------------------------------------------------------

    def classify_outputs(self) -> None:
        from repro.sql.expressions import contains_aggregate
        for item in self.select.items:
            if item.is_star:
                self._expand_star(item)
                continue
            expr = item.expr
            if expr is None:
                continue
            if item.alias:
                self.aliases.add(item.alias.lower())
            name = item.alias or render_expr(expr)
            if contains_aggregate(expr):
                kind = "aggregate"
            elif isinstance(expr, ast.ColumnRef):
                kind = "column"
            elif isinstance(expr, ast.Literal):
                kind = "constant"
            else:
                kind = "scalar"
            self.summary.outputs.append(
                OutputColumn(name=name, type_name=self.infer_type(expr),
                             kind=kind))

    def _expand_star(self, item: ast.SelectItem) -> None:
        targets = ([item.star_table.lower()] if item.star_table
                   else self.binding_order)
        if item.star_table and item.star_table.lower() not in self.bindings:
            self.issue(f"no such table: {item.star_table}", item)
            return
        if not targets:
            self.issue("SELECT * with no FROM clause", item)
            return
        for binding in targets:
            _, columns = self.bindings.get(binding, (None, None))
            if columns is None:
                continue  # unknown table already reported
            for col, type_name in columns:
                self._note_read(binding, col)
                self.summary.outputs.append(
                    OutputColumn(name=col, type_name=type_name,
                                 kind="column"))

    # -- predicates --------------------------------------------------------

    def classify_predicates(self, join_conjuncts: List[ast.Expr]) -> None:
        for part in join_conjuncts + conjuncts(self.select.where):
            touched: List[str] = []
            for node in walk(part):
                if isinstance(node, ast.ColumnRef):
                    owner = self._owner_of(node)
                    if owner is not None and owner not in touched:
                        touched.append(owner)
            pushable = len(touched) <= 1
            predicate = Predicate(
                text=render_expr(part),
                tables=tuple(self.bindings[b][0] for b in touched),
                pushable=pushable,
                line=getattr(part, "line", 0),
                col=getattr(part, "col", 0),
            )
            if pushable and touched:
                self._check_index_support(predicate, part, touched[0])
            self.summary.predicates.append(predicate)

    def _owner_of(self, ref: ast.ColumnRef) -> Optional[str]:
        """Like resolve_ref but silent (refs were already reported)."""
        name = ref.name.lower()
        if ref.table is not None:
            binding = ref.table.lower()
            return binding if binding in self.bindings else None
        owners = []
        for binding in self.binding_order:
            _, columns = self.bindings[binding]
            if columns is None:
                continue
            if any(col.lower() == name for col, _ in columns):
                owners.append(binding)
        return owners[0] if len(owners) == 1 else None

    def _check_index_support(self, predicate: Predicate, part: ast.Expr,
                             binding: str) -> None:
        shape = classify_conjunct(part)
        if shape is None:
            return  # not an index-shaped predicate; scan is inherent
        column = shape.column.name
        base, _ = self.bindings[binding]
        alias = self.schema.rowid_alias(base)
        if alias is not None and alias.lower() == column.lower():
            predicate.indexed_by = ROWID_PATH
            return
        for index_name, columns in self.schema.table_indexes(base):
            if columns and columns[0].lower() == column.lower():
                predicate.indexed_by = index_name
                return
        predicate.index_candidate = (base, column)

    # -- entry -------------------------------------------------------------

    def run(self) -> QuerySummary:
        join_conjuncts = self.bind_from()
        self.classify_outputs()
        if self.select.where is not None:
            self.scan_expr(self.select.where, allow_aliases=True)
        for item in self.select.items:
            if item.expr is not None:
                self.scan_expr(item.expr)
        for expr in self.select.group_by:
            self.scan_expr(expr, allow_aliases=True)
        if self.select.having is not None:
            self.scan_expr(self.select.having, allow_aliases=True)
        for order in self.select.order_by:
            self.scan_expr(order.expr, allow_aliases=True)
        for part in join_conjuncts:
            self.scan_expr(part)
        self.classify_predicates(join_conjuncts)
        self.summary.has_group_by = bool(self.select.group_by)
        self.summary.has_order_by = bool(self.select.order_by)
        self.summary.has_limit = self.select.limit is not None
        self.summary.distinct = self.select.distinct
        return self.summary


def resolve_select(select: ast.Select,
                   schema: SchemaProvider) -> QuerySummary:
    """Statically resolve one SELECT against a schema."""
    return _Resolver(select, schema).run()


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
