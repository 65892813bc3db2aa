"""Abstract syntax tree for the SQL subset.

Plain dataclasses, produced by :mod:`repro.sql.parser` and consumed by
:mod:`repro.sql.planner`.  Expression nodes carry no resolution state;
the planner compiles them against a scope (see
:mod:`repro.sql.expressions`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.sql.aggregates import AGGREGATES

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Node:
    """Mixin giving AST nodes 1-based source positions.

    ``line``/``col`` are filled in by the parser as plain instance
    attributes.  They are deliberately *not* dataclass fields: AST
    equality (used by the planner's expression substitution and
    aggregate-call dedup) must ignore where a node was written.
    """

    line = 0
    col = 0


class Expr(Node):
    """Base class for expression nodes."""


@dataclass
class Literal(Expr):
    """A constant value (NULL, number, string, blob)."""
    value: object


@dataclass
class ColumnRef(Expr):
    """A possibly-qualified column reference (``t.a`` or ``a``)."""
    table: Optional[str]
    name: str

    def display(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass
class UnaryOp(Expr):
    """Unary operator: ``-x``, ``+x``, ``NOT x``."""
    op: str  # '-', '+', 'NOT'
    operand: Expr


@dataclass
class BinaryOp(Expr):
    """Binary operator: arithmetic, comparison, AND/OR, ``||``."""
    op: str  # arithmetic, comparison, AND, OR, '||'
    left: Expr
    right: Expr


@dataclass
class IsNull(Expr):
    """``x IS [NOT] NULL``."""
    operand: Expr
    negated: bool = False


@dataclass
class InList(Expr):
    """``x [NOT] IN (e1, e2, ...)``."""
    operand: Expr
    items: List[Expr]
    negated: bool = False


@dataclass
class Between(Expr):
    """``x [NOT] BETWEEN low AND high``."""
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass
class Like(Expr):
    """``x [NOT] LIKE pattern`` (%, _ wildcards)."""
    operand: Expr
    pattern: Expr
    negated: bool = False


@dataclass
class FunctionCall(Expr):
    """``f(args)``, ``f(DISTINCT arg)`` or ``COUNT(*)``."""
    name: str
    args: List[Expr]
    distinct: bool = False
    star: bool = False  # COUNT(*)

    def is_aggregate_name(self) -> bool:
        return self.name.lower() in AGGREGATES


@dataclass
class CaseExpr(Expr):
    """``CASE [operand] WHEN ... THEN ... [ELSE ...] END``."""
    operand: Optional[Expr]
    branches: List[Tuple[Expr, Expr]]  # (condition/value, result)
    else_result: Optional[Expr]


# ---------------------------------------------------------------------------
# SELECT
# ---------------------------------------------------------------------------


@dataclass
class SelectItem(Node):
    """One select-list entry: expression, ``*`` or ``t.*``."""
    expr: Optional[Expr]  # None for '*' / 't.*'
    alias: Optional[str] = None
    star_table: Optional[str] = None  # set for 't.*'
    is_star: bool = False


@dataclass
class TableRef(Node):
    """A FROM-clause table with optional alias."""
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass
class Join(Node):
    """A join node in the FROM tree (condition None = comma/cross)."""
    left: object  # TableRef | Join
    right: TableRef
    condition: Optional[Expr]  # None for CROSS / comma join


@dataclass
class OrderItem(Node):
    """One ORDER BY key with direction."""
    expr: Expr
    descending: bool = False


@dataclass
class Select(Node):
    """A full SELECT, including the Retro ``AS OF`` extension."""
    items: List[SelectItem]
    source: Optional[object] = None  # TableRef | Join | None (SELECT 1)
    where: Optional[Expr] = None
    group_by: List[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[Expr] = None
    offset: Optional[Expr] = None
    distinct: bool = False
    as_of: Optional[Expr] = None  # SELECT AS OF <snapshot> ...


# ---------------------------------------------------------------------------
# DML / DDL / TCL
# ---------------------------------------------------------------------------


@dataclass
class ColumnDef:
    """One column in CREATE TABLE."""
    name: str
    type_name: str
    primary_key: bool = False
    not_null: bool = False
    default: Optional[Expr] = None


@dataclass
class CreateTable:
    """CREATE [TEMP] TABLE, plain or AS SELECT."""
    name: str
    columns: List[ColumnDef]
    temporary: bool = False
    if_not_exists: bool = False
    as_select: Optional[Select] = None
    primary_key: List[str] = field(default_factory=list)


@dataclass
class DropTable:
    """DROP TABLE [IF EXISTS]."""
    name: str
    if_exists: bool = False


@dataclass
class CreateIndex:
    """CREATE [UNIQUE] INDEX ... ON table (cols)."""
    name: str
    table: str
    columns: List[str]
    unique: bool = False
    if_not_exists: bool = False


@dataclass
class DropIndex:
    """DROP INDEX [IF EXISTS]."""
    name: str
    if_exists: bool = False


@dataclass
class CreateMaterializedView:
    """CREATE MATERIALIZED VIEW name AS Mechanism('Qq'[, 'arg']).

    The defining query is one of the four retrospective mechanisms
    applied to a per-snapshot query ``qq`` (plus the aggregate argument
    for the aggregating mechanisms); the snapshot set is implicit —
    every declared snapshot up to the refresh target.
    """
    name: str
    mechanism: str
    qq: str
    arg: Optional[str] = None
    if_not_exists: bool = False


@dataclass
class RefreshMaterializedView:
    """REFRESH MATERIALIZED VIEW name [FULL]."""
    name: str
    full: bool = False


@dataclass
class DropMaterializedView:
    """DROP MATERIALIZED VIEW [IF EXISTS] name."""
    name: str
    if_exists: bool = False


@dataclass
class Insert:
    """INSERT INTO ... VALUES / SELECT."""
    table: str
    columns: List[str]
    rows: List[List[Expr]] = field(default_factory=list)
    select: Optional[Select] = None


@dataclass
class Delete:
    """DELETE FROM table [WHERE]."""
    table: str
    where: Optional[Expr] = None


@dataclass
class Update:
    """UPDATE table SET ... [WHERE]."""
    table: str
    assignments: List[Tuple[str, Expr]] = field(default_factory=list)
    where: Optional[Expr] = None


@dataclass
class Analyze:
    """ANALYZE [table]: gather planner statistics into ``__rql_stats``.

    With no table, every table in the main catalog is analyzed.
    """
    table: Optional[str] = None


@dataclass
class Explain:
    """EXPLAIN <statement>: report the access plan."""
    statement: "Statement"


@dataclass
class Begin:
    """BEGIN [TRANSACTION]."""
    pass


@dataclass
class Commit:
    """COMMIT [WITH SNAPSHOT] — the Retro declaration form."""
    with_snapshot: bool = False


@dataclass
class Rollback:
    """ROLLBACK."""
    pass


Statement = object  # union of the dataclasses above
