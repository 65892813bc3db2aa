"""Query planning and SELECT execution.

Planning is split into a **pure planner** and an **executor**:

* :func:`plan_from` turns catalog facts (:class:`TableDesc`), the WHERE
  conjuncts and a statistics lookup into an explicit :class:`SelectPlan`
  tree of :class:`PlanNode` steps.  With no statistics it reproduces the
  original fixed heuristics exactly (first matching equality index, then
  range index, then scan; first equi-joinable table, native index
  preferred).  Once ``ANALYZE`` has gathered statistics the planner
  costs every candidate access path — sequential page fetches vs index
  probe plus matched-row fetches — and keeps the cheapest, picking the
  outer table and join side by estimated filtered cardinality.
* ``_SelectPlanner`` executes a plan: single-table access picks the
  planned native index or a sequential scan; joins are left-deep nested
  loops where the inner side uses the planned native index or an
  **automatic covering index** (an ephemeral hash index) — SQLite's
  "automatic index" that Figure 9 of the paper shows dominating ad-hoc
  snapshot query cost.  Its build time is metered as
  ``index_creation_seconds``.  Predicate pushdown recorded in the plan
  filters each join prefix as early as possible, so per-snapshot ``Qs``
  iteration over a cold snapshot fetches only matching Pagelog pages.
* GROUP BY is a hash aggregate; DISTINCT a hash dedupe; ORDER BY a sort
  on mixed-type-safe keys.

The same pure planner serves four consumers: SELECT execution, DML row
location (:func:`scan_for_modify`, which plans without statistics so
the order rows are deleted or updated in never depends on ``ANALYZE``),
``EXPLAIN`` (:func:`explain_select` renders access, COST and SEMANTIC
lines without executing anything), and the static certification path
(:func:`plan_select_static` / :func:`render_plan`) that planlint and the
golden-plan corpus drive from catalog metadata alone.  Plan-time
constant folding uses the built-in scalars only: the planner never calls
a registered UDF.

The executor is source-agnostic: the execution context supplies page
sources, so the same plan runs on the current state, inside a write
transaction, or ``AS OF`` a Retro snapshot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain
from operator import is_, itemgetter
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple)

from repro.errors import PlanError, ReproError, TypeMismatchError
from repro.sql import ast
from repro.sql.executor import IndexAccess, ResultSet, Row, TableAccess
from repro.sql.expressions import (
    ExpressionCompiler,
    PostAggRef,
    Scope,
    classify_conjunct,
    conjuncts,
    contains_aggregate,
    flatten_from,
    is_constant,
    is_current_snapshot,
    reads_pin,
    walk,
)
from repro.sql.aggregates import make_aggregate
from repro.sql.catalog import IndexInfo, TableInfo
from repro.sql.functions import BUILTIN_SCALARS
from repro.sql.stats import StatsProvider, TableStats
from repro.sql.types import SqlValue, compare, exact_integer
from repro.storage.btree import LeafFilter
from repro.storage.record import KEY_EXACT_INT

# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------

#: fetching one Pagelog page during a sequential scan
SEQ_PAGE_COST = 1.0
#: descending an index to its first matching entry
INDEX_PROBE_COST = 1.0
#: fetching one matched row's page through an index
ROW_FETCH_COST = 1.0
#: evaluating predicates against one row
CPU_ROW_COST = 0.01

#: how EXPLAIN and a predicate's ``indexed_by`` name a seek of the table
#: tree by its rowid alias (SQLite's EXPLAIN QUERY PLAN wording)
ROWID_PATH = "INTEGER PRIMARY KEY"


def _clamp01(value: float) -> float:
    return min(1.0, max(0.0, value))


def _fmt_num(value: Optional[float]) -> str:
    if value is None:
        return "?"
    return f"{value:g}"


# ---------------------------------------------------------------------------
# Plan tree
# ---------------------------------------------------------------------------


@dataclass
class TableDesc:
    """Catalog facts the pure planner needs about one FROM table."""

    binding: str                               #: alias or table name
    table: str                                 #: underlying table name
    columns: List[str]
    indexes: List[Tuple[str, Tuple[str, ...]]]  #: (index name, columns)
    ordinal: int = 0                           #: position in the FROM list
    #: the column whose value is the rowid (``TableInfo.rowid_alias``)
    rowid_alias: Optional[str] = None
    #: the catalog entry these facts were read from (its declared column
    #: types are what semantic analysis types outputs with)
    info: Optional[TableInfo] = field(default=None, repr=False,
                                      compare=False)
    _scope: Optional[Scope] = field(default=None, repr=False, compare=False)

    @classmethod
    def of(cls, binding: str, info: TableInfo, indexes: Iterable[IndexInfo],
           ordinal: int = 0) -> "TableDesc":
        """The one builder: ``info`` and its ``indexes`` bound as
        ``binding`` at FROM position ``ordinal``."""
        alias = info.rowid_alias
        return cls(
            binding=binding,
            table=info.name,
            columns=info.column_names(),
            indexes=[(index.name, tuple(index.columns)) for index in indexes],
            ordinal=ordinal,
            rowid_alias=None if alias is None else info.columns[alias].name,
            info=info,
        )

    def scope(self) -> Scope:
        """This table's own row layout (built once: planning asks for
        it at every decision)."""
        if self._scope is None:
            self._scope = Scope([(self.binding, c) for c in self.columns])
        return self._scope


@dataclass
class AccessSpec:
    """How the outer table is read: scan, index equality or index range."""

    kind: str                        #: 'scan' | 'eq' | 'range'
    #: index name for 'eq'/'range'; None there seeks the table tree by
    #: its rowid alias
    index: Optional[str] = None
    column: Optional[str] = None     #: indexed column (lowered)
    pred: Optional[ast.Expr] = None  #: conjunct consumed by the index
    value: object = None             #: equality key
    lo: object = None                #: range bounds ([value] or None)
    hi: object = None
    lo_inc: bool = True
    hi_inc: bool = True
    #: a key the index cannot tell from its neighbours, so the probe
    #: yields a superset and ``pred`` is re-applied to the rows it fetches
    inexact: bool = False


@dataclass
class JoinSpec:
    """How one more table joins onto the prefix rows."""

    #: 'rowid' | 'native' | 'auto' | 'cross'
    kind: str
    index: Optional[str] = None                #: native index name
    pred: Optional[ast.Expr] = None            #: equi-join conjunct consumed
    inner_col: Optional[ast.ColumnRef] = None  #: join column on this table
    outer_expr: Optional[ast.Expr] = None      #: key expr over the prefix


@dataclass
class PlanNode:
    """One step of a left-deep plan: access the outer table or join one
    more table, then apply the predicates pushed down to this prefix."""

    desc: TableDesc
    note: str                                   #: EXPLAIN access line
    access: Optional[AccessSpec] = None         #: set on the first step
    join: Optional[JoinSpec] = None             #: set on later steps
    pushed: List[ast.Expr] = field(default_factory=list)
    #: estimates are *raw* (unclamped): corrupt statistics surface as
    #: est_rows above the table cardinality, which RQL114 flags.
    est_rows: Optional[float] = None
    est_pages: Optional[int] = None
    selectivity: Optional[float] = None
    cost: Optional[float] = None
    seq_cost: Optional[float] = None
    costed: bool = False                        #: statistics were available
    chosen_by: str = "heuristic"                #: 'heuristic' | 'cost'
    path_desc: str = ""                         #: human access-path label
    #: a scan step's ``compile_leaf_filter(pushed)``, set by its first
    #: execution: a reused plan reuses the filter, and with it every
    #: leaf's kept batch; a new plan compiles a new one
    leaf_filter: Optional[Tuple[Optional[LeafFilter], List[ast.Expr]]] = \
        field(default=None, repr=False, compare=False)
    #: a single-table scan's :func:`read_width`, set like
    #: :attr:`leaf_filter` by its first execution
    width: Optional[int] = field(default=None, repr=False, compare=False)


@dataclass
class SelectPlan:
    """An ordered plan tree plus the conjuncts no prefix could absorb."""

    steps: List[PlanNode]
    residual: List[ast.Expr] = field(default_factory=list)
    #: ``(functions, pin, _Pipeline)``: the select list, residual and
    #: pipeline stages compiled against this plan's row layout, set by
    #: its first execution like :attr:`PlanNode.leaf_filter`; a cursor
    #: whose function table or pin differs compiles its own
    pipeline: Optional[tuple] = field(default=None, repr=False,
                                      compare=False)

    def access_notes(self) -> List[str]:
        return [step.note for step in self.steps]

    def cost_notes(self) -> List[str]:
        lines: List[str] = []
        for node in self.steps:
            binding = node.desc.binding
            if not node.costed:
                lines.append(
                    f"COST: {binding} no statistics "
                    f"(heuristic access path)"
                )
                continue
            lines.append(
                f"COST: {binding} est. rows {_fmt_num(node.est_rows)} "
                f"est. pages {node.est_pages} "
                f"cost {_fmt_num(node.cost)} via {node.path_desc}"
            )
        return lines


# ---------------------------------------------------------------------------
# The pure planner
# ---------------------------------------------------------------------------

StatsLookup = Callable[[str], Optional[TableStats]]


def plan_from(descs: List[TableDesc], predicates: List[ast.Expr],
              stats_for: StatsLookup) -> SelectPlan:
    """Choose join order and access paths from catalog facts alone.

    Deterministic and side-effect free: the same descs, predicates and
    statistics always yield the same plan, which is what makes plans
    certifiable artifacts (the golden-plan corpus pins this function's
    output).  Every decision is one candidate enumeration plus a
    chooser; statistics change only the chooser ("first in historical
    order" without them, "cheapest, earlier wins ties" with them), so
    un-ANALYZEd databases plan as they always have.
    """
    if not descs:
        return SelectPlan(steps=[], residual=list(predicates))
    seen: Dict[str, bool] = {}
    for desc in descs:
        key = desc.binding.lower()
        if key in seen:
            raise PlanError(f"duplicate table binding: {desc.binding}")
        seen[key] = True

    # Ambiguity must not depend on join order: an unqualified ref that
    # matches two FROM tables would silently bind to whichever table the
    # plan visits first (pushdown resolves against prefix scopes), so a
    # cost-driven reorder could change what the query *means*.  Reject
    # against the full scope before any ordering decision.
    # (One table's columns have distinct names.)
    full_scope = scope_of(descs)
    for pred in predicates if len(descs) > 1 else ():
        for node in walk(pred):
            if isinstance(node, ast.ColumnRef) \
                    and full_scope.is_ambiguous(node):
                raise PlanError(f"ambiguous column name: {node.name}")

    stats_by: Dict[int, Optional[TableStats]] = {
        desc.ordinal: stats_for(desc.table) for desc in descs
    }
    fully_costed = all(stats_by[d.ordinal] is not None for d in descs)
    remaining = list(predicates)
    pending = list(descs)

    def single_preds(desc: TableDesc) -> List[ast.Expr]:
        scope = desc.scope()
        return [p for p in remaining if _predicate_uses_only(p, scope)]

    # Outer table: with full statistics, the table with the smallest
    # estimated filtered cardinality (filter the selective side first);
    # otherwise the first table constrained by a single-table
    # predicate, else the first listed.
    if len(descs) == 1:
        outer = descs[0]
    elif fully_costed:
        outer = min(pending, key=lambda d: _filtered_row_estimate(
            stats_by[d.ordinal], single_preds(d)))
    else:
        outer = next((d for d in pending if single_preds(d)), pending[0])
    pending.remove(outer)

    node, remaining = _plan_single_access(
        outer, remaining, stats_by[outer.ordinal],
    )
    steps = [node]
    remaining = _settle_pushdown(steps, remaining, stats_by)

    while pending:
        prefix_scope = scope_of([s.desc for s in steps])
        candidates = []
        for desc in pending:
            join = _find_equi_join_desc(prefix_scope, desc, remaining)
            if join is not None:
                candidates.append(
                    (desc, join, _keyed_path(desc, join[1].name)))
        if not candidates:
            chosen, chosen_join, path = pending[0], None, (None, None)
        elif fully_costed:
            chosen, chosen_join, path = min(
                candidates, key=lambda c: _join_probe_cost(
                    stats_by[c[0].ordinal], c[1][1].name,
                    c[2][0] is not None))
        else:
            # First equi-joinable table, native path preferred.
            chosen, chosen_join, path = next(
                (c for c in candidates if c[2][0] is not None),
                candidates[0])
        pending.remove(chosen)
        node = _plan_join_node(
            chosen, chosen_join, path,
            stats_by[chosen.ordinal], fully_costed,
        )
        if chosen_join is not None:
            consumed = chosen_join[0]
            remaining = [p for p in remaining if p is not consumed]
        steps.append(node)
        remaining = _settle_pushdown(steps, remaining, stats_by)

    return SelectPlan(steps=steps, residual=remaining)


class PlanMemo:
    """What the cursors of one prepared statement share, each cursor
    opened at its own snapshot: the statement-only analysis
    (:class:`_Shape`, worked out by the first cursor) and the last plan
    with what it was planned from — one slot, so a snapshot loop
    re-plans only when an input of the pure planner changed since the
    previous snapshot.

    :func:`plan_from` is deterministic and free of side effects, so its
    result may be reused whenever its inputs are equal: the
    :class:`TableDesc` list by value, the predicates by identity and
    each table's statistics by value.  Every cursor executes the one
    statement, and :meth:`_Shape.predicates` hands each the same
    conjunct objects while the FROM tables' columns stay the same, so an
    unchanged WHERE is the same list.  A conjunct that calls
    ``current_snapshot()`` is planned with the cursor's pin folded in;
    the pin is then part of the key, and such a plan is never another
    snapshot's.  Schema, indexes and statistics are still read from
    each snapshot's own catalog; only the planning is skipped.

    A reused plan brings its scan step's compiled leaf filter and its
    compiled pipeline along (:attr:`PlanNode.leaf_filter`,
    :attr:`SelectPlan.pipeline`), so leaves the previous snapshot
    filtered are not filtered again and nothing is compiled twice.

    A memo belongs to one run's prepared Qq, whose partitions use it in
    turn on one thread; each slot is published by one assignment.
    """

    __slots__ = ("_shape", "_last")

    def __init__(self) -> None:
        self._shape: Optional[_Shape] = None
        self._last: Optional[Tuple[List[TableDesc], List[ast.Expr],
                                   List[Optional[TableStats]],
                                   Optional[int], SelectPlan]] = None

    def shape(self, select: ast.Select) -> "_Shape":
        """The statement-only analysis of ``select``, made once."""
        shape = self._shape
        if shape is None or shape.select is not select:
            shape = self._shape = _Shape(select)
        return shape

    def plan(self, descs: List[TableDesc], predicates: List[ast.Expr],
             stats_for: StatsLookup, pin: Optional[int] = None,
             ) -> SelectPlan:
        """:func:`plan_from` of these inputs, reusing the last plan if
        they equal the last call's.  ``pin`` is the snapshot id folded
        into ``predicates`` (None when none reads it)."""
        stats = [stats_for(desc.table) for desc in descs]
        last = self._last
        if last is not None and last[0] == descs and last[2] == stats \
                and last[3] == pin and len(last[1]) == len(predicates) \
                and all(map(is_, last[1], predicates)):
            return last[4]
        by_table = {desc.table: found for desc, found in zip(descs, stats)}
        plan = plan_from(descs, predicates, by_table.__getitem__)
        self._last = (descs, predicates, stats, pin, plan)
        return plan


class _Shape:
    """What executing a SELECT takes from the statement alone: its FROM
    tables and ON conjuncts, whether it aggregates, and where it calls
    ``current_snapshot()``.  Made once per :class:`PlanMemo`.

    ``run``: the statement may run at a snapshot of a run.  Any other
    statement has no pin to read, and the calls are left to fail as
    unknown functions where they are compiled, so they are not looked
    for."""

    __slots__ = ("select", "refs", "on_conjuncts", "aliased", "aggregated",
                 "run", "pinned", "pinned_items", "_predicates")

    def __init__(self, select: ast.Select, run: bool = True) -> None:
        self.select = select
        self.run = run
        self.refs, self.on_conjuncts = flatten_from(select.source)
        self.aliased = any(item.alias for item in select.items)
        exprs = [item.expr for item in select.items]
        self.aggregated = bool(select.group_by) or any(
            expr is not None and contains_aggregate(expr)
            for expr in exprs + [select.having])
        items_read_pin = run and any(map(reads_pin, exprs))
        #: a clause the pipeline compiles (GROUP BY, HAVING, ORDER BY,
        #: LIMIT, OFFSET, or a select list they may name) calls
        #: ``current_snapshot()``, so a compiled pipeline holds one pin
        self.pinned = run and any(map(reads_pin, select.group_by + [
            select.having, select.limit, select.offset,
            *(order.expr for order in select.order_by)])) or (
                items_read_pin and (self.aggregated or bool(select.order_by)))
        #: only items of a plain select list call it: the pipeline is
        #: every pin's, and each cursor compiles just those items
        self.pinned_items = items_read_pin and not self.pinned
        self._predicates: Optional[Tuple[frozenset, List[ast.Expr],
                                         List[bool]]] = None

    def predicates(self, descs: List[TableDesc],
                   ) -> Tuple[List[ast.Expr], List[bool]]:
        """The WHERE conjuncts, select-list aliases resolved against the
        FROM tables' columns, then the ON conjuncts; and for each
        whether it calls ``current_snapshot()``.  The same list while
        those columns stay the same, so the plan memo's identity test
        holds across snapshots."""
        columns = _column_names(descs) if self.aliased else frozenset()
        last = self._predicates
        if last is not None and last[0] == columns:
            return last[1], last[2]
        select = self.select
        where = _resolve_alias_refs(select.where, select.items, columns,
                                    "WHERE")
        predicates = conjuncts(where) + self.on_conjuncts
        pinned = [self.run and reads_pin(pred) for pred in predicates]
        self._predicates = (columns, predicates, pinned)
        return predicates, pinned


def _fold_pin(pred: ast.Expr, pin: int) -> ast.Expr:
    """``pred`` with each ``current_snapshot()`` call the literal
    ``pin``: what the planner folds, probes and batches."""
    literal = ast.Literal(pin)
    return _rewrite(pred, lambda node: literal
                    if is_current_snapshot(node) else node)


def _settle_pushdown(steps: List[PlanNode], remaining: List[ast.Expr],
                     stats_by: Dict[int, Optional[TableStats]],
                     ) -> List[ast.Expr]:
    """Assign every conjunct resolvable over the current prefix to the
    newest step (classic pushdown: filter before joining further), and
    refine that step's row estimate with the pushed selectivities."""
    scope = scope_of([step.desc for step in steps])
    applicable = [p for p in remaining if _predicate_uses_only(p, scope)]
    if not applicable:
        return remaining
    applicable_ids = {id(p) for p in applicable}
    node = steps[-1]
    node.pushed.extend(applicable)
    stats = stats_by.get(node.desc.ordinal)
    if stats is not None and node.est_rows is not None:
        own_scope = node.desc.scope()
        for pred in applicable:
            if _predicate_uses_only(pred, own_scope):
                node.est_rows *= _clamp01(_pred_selectivity(stats, pred))
    return [p for p in remaining if id(p) not in applicable_ids]


def _plan_single_access(desc: TableDesc, predicates: List[ast.Expr],
                        stats: Optional[TableStats],
                        ) -> Tuple[PlanNode, List[ast.Expr]]:
    """Access path for the outer table.

    The index candidates are enumerated once, in historical order:
    equality conjuncts, then range conjuncts, each in conjunct order.
    Without statistics the first candidate wins (else a scan); with
    them the cheapest, where the sequential scan wins a tie and an
    earlier candidate beats a later one.
    """
    scope = desc.scope()
    indexed = [spec for spec in (_index_access(pred, desc, scope)
                                 for pred in predicates) if spec is not None]
    candidates = ([s for s in indexed if s.kind == "eq"]
                  + [s for s in indexed if s.kind == "range"])
    scan = AccessSpec(kind="scan")
    if stats is None:
        spec = candidates[0] if candidates else scan
    else:
        spec = min([scan] + candidates,
                   key=lambda s: _access_cost(s, stats)[0])
    node = _access_node(desc, spec, stats)
    return node, [p for p in predicates if p is not spec.pred]


def _access_node(desc: TableDesc, spec: AccessSpec,
                 stats: Optional[TableStats]) -> PlanNode:
    if spec.kind != "scan" and spec.index is None:
        # SQLite's EXPLAIN QUERY PLAN wording for a rowid seek.
        bounds = "rowid=?" if spec.kind == "eq" else " AND ".join(
            bound for bound, given in (("rowid>?", spec.lo),
                                       ("rowid<?", spec.hi)) if given)
        note = f"SEARCH {desc.binding} USING {ROWID_PATH} ({bounds})"
        path = (f"{ROWID_PATH.lower()} "
                f"({'=' if spec.kind == 'eq' else 'range'})")
    elif spec.kind == "eq":
        note = (f"SEARCH {desc.binding} USING INDEX "
                f"{spec.index} (=)")
        path = f"index {spec.index} (=)"
    elif spec.kind == "range":
        note = (f"SEARCH {desc.binding} USING INDEX "
                f"{spec.index} (range)")
        path = f"index {spec.index} (range)"
    else:
        note = f"SCAN {desc.binding}"
        path = "seq scan"
    node = PlanNode(desc=desc, note=note, access=spec, path_desc=path)
    if stats is None:
        return node
    node.costed = True
    node.chosen_by = "cost"
    node.cost, node.selectivity = _access_cost(spec, stats)
    node.est_rows = node.selectivity * stats.row_count
    pages = max(1, stats.page_count)
    node.seq_cost = pages * SEQ_PAGE_COST + stats.row_count * CPU_ROW_COST
    if spec.kind == "scan":
        node.est_pages = pages
    else:
        node.est_pages = max(
            1, min(pages, round(_clamp01(node.selectivity) * pages)),
        )
    return node


def _access_cost(spec: AccessSpec,
                 stats: TableStats) -> Tuple[float, float]:
    """(cost, raw selectivity) of one access path under the model."""
    rows = stats.row_count
    pages = max(1, stats.page_count)
    if spec.kind == "scan":
        return pages * SEQ_PAGE_COST + rows * CPU_ROW_COST, 1.0
    if spec.kind == "eq":
        sel = stats.eq_selectivity(spec.column or "")
    else:
        lo = spec.lo[0] if spec.lo else None
        hi = spec.hi[0] if spec.hi else None
        sel = stats.range_selectivity(spec.column or "", lo, hi)
    matched = _clamp01(sel) * rows
    return (INDEX_PROBE_COST
            + matched * (ROW_FETCH_COST + CPU_ROW_COST)), sel


def _plan_join_node(desc: TableDesc, join,
                    keyed: Tuple[Optional[str], Optional[str]],
                    stats: Optional[TableStats],
                    fully_costed: bool) -> PlanNode:
    """``keyed`` is :func:`_keyed_path` of the inner join column."""
    kind, native = keyed
    if join is None:
        note = f"CROSS JOIN {desc.binding}"
        spec = JoinSpec(kind="cross")
        path = "cross join"
    else:
        pred, inner_col, outer_expr = join
        if kind == "rowid":
            note = f"SEARCH {desc.binding} USING {ROWID_PATH} (rowid=?)"
            spec = JoinSpec(kind="rowid", pred=pred,
                            inner_col=inner_col, outer_expr=outer_expr)
            path = f"{ROWID_PATH.lower()} join"
        elif kind == "native":
            note = (f"SEARCH {desc.binding} USING INDEX "
                    f"{native} ({inner_col.name}=?)")
            spec = JoinSpec(kind="native", index=native, pred=pred,
                            inner_col=inner_col, outer_expr=outer_expr)
            path = f"index {native} join"
        else:
            note = (f"SEARCH {desc.binding} USING AUTOMATIC COVERING "
                    f"INDEX ({inner_col.name}=?)")
            spec = JoinSpec(kind="auto", pred=pred,
                            inner_col=inner_col, outer_expr=outer_expr)
            path = "automatic index join"
    node = PlanNode(desc=desc, note=note, join=spec, path_desc=path)
    if stats is None:
        return node
    node.costed = True
    node.chosen_by = "cost" if fully_costed else "heuristic"
    pages = max(1, stats.page_count)
    node.seq_cost = pages * SEQ_PAGE_COST + stats.row_count * CPU_ROW_COST
    if spec.kind == "cross":
        node.selectivity = 1.0
        node.est_rows = float(stats.row_count)
        node.est_pages = pages
        node.cost = node.seq_cost
    else:
        sel = stats.eq_selectivity(spec.inner_col.name)
        node.selectivity = sel
        node.est_rows = sel * stats.row_count
        node.est_pages = max(1, min(pages, round(_clamp01(sel) * pages)))
        node.cost = _join_probe_cost(stats, spec.inner_col.name,
                                     spec.kind != "auto")
    return node


def _join_probe_cost(stats: Optional[TableStats], inner_col: str,
                     native: bool) -> float:
    """Per-probe cost of an inner join access, plus the one-off build
    cost of the automatic covering index when no native path fits.  A
    rowid seek is costed as an index probe: it reads the same pages a
    probe of the ``__pk_`` index it replaces read before the row fetch,
    and keeping the two equal keeps every join order as it was."""
    if stats is None:
        return 0.0
    matched = _clamp01(stats.eq_selectivity(inner_col)) * stats.row_count
    cost = INDEX_PROBE_COST + matched * (ROW_FETCH_COST + CPU_ROW_COST)
    if not native:
        cost += (max(1, stats.page_count) * SEQ_PAGE_COST
                 + stats.row_count * CPU_ROW_COST)
    return cost


def _filtered_row_estimate(stats: Optional[TableStats],
                           preds: List[ast.Expr]) -> float:
    if stats is None:
        return 0.0
    estimate = float(stats.row_count)
    for pred in preds:
        estimate *= _clamp01(_pred_selectivity(stats, pred))
    return estimate


def _pred_selectivity(stats: TableStats, pred: ast.Expr) -> float:
    """Raw selectivity estimate of one single-table conjunct."""
    shape = classify_conjunct(pred)
    values = _fold(shape.constants) if shape is not None else None
    if values is None:
        return 0.5
    column = shape.column.name
    if shape.shape == "=":
        return stats.eq_selectivity(column)
    if shape.shape == "between":
        return stats.range_selectivity(column, values[0], values[1])
    if shape.shape == "in":
        return min(1.0, len(set(values)) * stats.eq_selectivity(column))
    if shape.shape in ("<", "<="):
        return stats.range_selectivity(column, None, values[0])
    return stats.range_selectivity(column, values[0], None)


def scope_of(descs: Sequence[TableDesc]) -> Scope:
    """Row layout of the given tables joined in order."""
    if len(descs) == 1:
        return descs[0].scope()
    return Scope([(desc.binding, column)
                  for desc in descs for column in desc.columns])


def _keyed_path(desc: TableDesc, column: str,
                ) -> Tuple[Optional[str], Optional[str]]:
    """How ``desc`` is searched by ``column``: ``("rowid", None)`` when
    the column is its rowid alias, ``("native", index)`` when an index
    leads with it, else ``(None, None)``."""
    lowered = column.lower()
    if desc.rowid_alias is not None and desc.rowid_alias.lower() == lowered:
        return "rowid", None
    for name, cols in desc.indexes:
        if cols and cols[0].lower() == lowered:
            return "native", name
    return None, None


def _index_access(pred: ast.Expr, desc: TableDesc,
                  scope: Scope) -> Optional[AccessSpec]:
    """The index access that serves conjunct ``pred`` on ``desc``, if any.

    A key the planner cannot fold, or that folds to NULL, is not an
    index candidate: a comparison against NULL is never true, so it must
    fall through to the row filter (which evaluates it to empty) rather
    than probe the index — NULL keys are physically present in the tree
    but match no predicate.
    """
    shape = classify_conjunct(pred)
    if shape is None or shape.shape == "in" \
            or scope.try_resolve(shape.column) is None:
        return None
    kind, index = _keyed_path(desc, shape.column.name)
    if kind is None:
        return None
    keys = _fold(shape.constants)
    if keys is None or None in keys:
        return None
    column = shape.column.name.lower()
    # Index keys, and a rowid alias's table keys, are doubles.  A bound
    # beyond +-KEY_EXACT_INT shares its key with neighbouring values, so
    # the probe (a range one widened to inclusive bounds) yields a
    # superset and the conjunct it consumed is re-applied to the rows.
    inexact = any(map(_inexact_key, keys))
    if shape.shape == "=":
        return AccessSpec(kind="eq", index=index, column=column, pred=pred,
                          value=keys[0], inexact=inexact)
    spec = AccessSpec(kind="range", index=index, column=column, pred=pred,
                      inexact=inexact)
    if shape.shape == "between":
        spec.lo, spec.hi = [keys[0]], [keys[1]]
    elif shape.shape in ("<", "<="):
        spec.hi, spec.hi_inc = keys, shape.shape == "<="
    else:
        spec.lo, spec.lo_inc = keys, shape.shape == ">="
    return spec


def _find_equi_join_desc(prefix_scope: Scope, desc: TableDesc,
                         predicates: List[ast.Expr]):
    """An equi-conjunct linking ``desc`` to the joined prefix.

    Returns (predicate, inner_column_ref, outer_expr) or None.
    """
    table_scope = desc.scope()
    for pred in predicates:
        if not (isinstance(pred, ast.BinaryOp) and pred.op == "="):
            continue
        for inner_side, outer_side in ((pred.left, pred.right),
                                       (pred.right, pred.left)):
            if not isinstance(inner_side, ast.ColumnRef):
                continue
            if table_scope.try_resolve(inner_side) is None:
                continue
            if not _predicate_uses_only(outer_side, prefix_scope):
                continue
            return pred, inner_side, outer_side
    return None


# ---------------------------------------------------------------------------
# Static planning (planlint / golden-plan corpus)
# ---------------------------------------------------------------------------

def plan_select_static(select: ast.Select, schema,
                       stats: StatsProvider) -> SelectPlan:
    """Plan a SELECT from catalog metadata alone — nothing executes.

    ``schema`` is a :class:`repro.sql.semantic.SchemaProvider`; ``stats``
    a :class:`StatsProvider` (:class:`repro.sql.stats.DeclaredStats` for
    planlint and the golden-plan corpus).
    """
    shape = _Shape(select, run=False)
    descs = _descs_from_schema(shape, schema)
    return plan_from(descs, shape.predicates(descs)[0], stats.table_stats)


def render_plan(select: ast.Select, schema,
                stats: StatsProvider) -> List[str]:
    """The certifiable plan rendering: access + stage + COST lines.

    This is the text the golden-plan corpus pins and RQL110 diffs; it
    matches ``EXPLAIN SELECT`` output minus the SEMANTIC lines.
    """
    plan = plan_select_static(select, schema, stats)
    lines = plan.access_notes()
    if select.as_of is not None:
        lines.insert(0, "AS OF snapshot (Retro SPT + snapshot cache)")
    lines.extend(_stage_notes(_Shape(select, run=False)))
    lines.extend(plan.cost_notes())
    return lines


def _descs_from_schema(shape: "_Shape", schema) -> List[TableDesc]:
    """The FROM tables of ``shape``'s statement as ``schema`` describes
    them, each looked up once."""
    descs: List[TableDesc] = []
    for ref in shape.refs:
        found = schema.table(ref.name)
        if found is None:
            raise PlanError(f"no such table: {ref.name}")
        descs.append(TableDesc.of(ref.binding, *found, ordinal=len(descs)))
    return descs


# ---------------------------------------------------------------------------
# Execution context
# ---------------------------------------------------------------------------

class ExecutionContext:
    """What the planner needs from the database layer, per statement."""

    #: the snapshot id ``current_snapshot()`` reads: the pin of a cursor
    #: opened at a snapshot of a run; None for any other statement, in
    #: which the function does not exist
    current_snapshot: Optional[int] = None

    def open_table(self, name: str) -> TableAccess:
        raise NotImplementedError

    def open_indexes(self, table: TableAccess) -> List[IndexAccess]:
        raise NotImplementedError

    @property
    def functions(self) -> Dict[str, Callable[..., SqlValue]]:
        raise NotImplementedError

    def table_stats(self, name: str) -> Optional[TableStats]:
        """ANALYZE statistics for ``name``, or None (heuristic plans).

        The database context reads ``__rql_stats`` honoring the
        statement's ``AS OF`` pin; bare contexts plan heuristically.
        """
        return None

    def note_index_creation(self, seconds: float) -> None:
        """Report ephemeral (automatic) index build time."""

    def note_query_eval(self, seconds: float) -> None:
        """Report query evaluation time (excl. auto-index builds)."""

    @property
    def clock(self) -> Callable[[], float]:
        """Monotonic clock for planner timings.

        Contexts carrying a metrics sink return the sink's injectable
        clock, so every duration a query produces is deterministic
        under test.
        """
        return time.perf_counter


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_select(select: ast.Select, ctx: ExecutionContext) -> ResultSet:
    """Plan and execute a SELECT, returning a materialized result."""
    clock = ctx.clock
    started = clock()
    planner = _SelectPlanner(select, ctx)
    columns, rows = planner.columns_and_rows()
    result = ResultSet(columns, list(rows))
    ctx.note_query_eval(clock() - started
                        - planner.index_build_seconds)
    return result


def open_select(select: ast.Select, ctx: ExecutionContext,
                memo: Optional[PlanMemo] = None,
                ) -> Tuple[List[str], Iterator[Row]]:
    """Plan a SELECT and return (columns, lazy row iterator).

    The column list is known before any row is produced; the caller
    keeps ``ctx``'s sources open for as long as it consumes rows.
    ``memo`` is the statement's :class:`PlanMemo` when the statement is
    a prepared one that cursors run at snapshot after snapshot.
    """
    return _SelectPlanner(select, ctx, memo).columns_and_rows()


def explain_select(select: ast.Select, ctx: ExecutionContext) -> List[str]:
    """Access-path, COST and SEMANTIC lines for a SELECT, without
    executing it.

    Mirrors SQLite's EXPLAIN QUERY PLAN at a coarse grain: one line per
    table access (scan / index search / automatic covering index),
    pipeline stages (aggregate, distinct, sort, limit), then one COST
    line per plan step and the rqlint semantic summary of the plan.
    """
    planner = _SelectPlanner(select, ctx)
    # Building the pipeline plans and compiles; the generators are never
    # consumed, so nothing executes (auto-index builds happen lazily).
    planner.columns_and_rows()
    plan = planner.plan
    notes = plan.access_notes()
    if select.as_of is not None:
        notes.insert(0, "AS OF snapshot (Retro SPT + snapshot cache)")
    notes.extend(_stage_notes(planner.shape))
    notes.extend(plan.cost_notes())
    notes.extend(_semantic_notes(planner, ctx))
    return notes


def _stage_notes(shape: "_Shape") -> List[str]:
    """Pipeline-stage lines shared by EXPLAIN and the static rendering."""
    select = shape.select
    notes: List[str] = []
    if shape.aggregated:
        notes.append("AGGREGATE (hash group-by)")
    if select.distinct:
        notes.append("DISTINCT (hash)")
    if select.order_by:
        notes.append("ORDER BY (sort)")
    if select.limit is not None or select.offset is not None:
        notes.append("LIMIT/OFFSET")
    return notes


def _semantic_notes(planner: "_SelectPlanner",
                    ctx: ExecutionContext) -> List[str]:
    """rqlint semantic summary lines appended to EXPLAIN output: the
    summary of the plan EXPLAIN just built (nothing executes).  A query
    the planner accepts but the summary cannot describe is not an
    EXPLAIN failure — the summary is simply omitted."""
    # Semantic analysis and certification layer on the planner.
    from repro.sql.certify import classify_select
    from repro.sql.semantic import summarize

    try:
        summary = summarize(planner.shape, planner.descs, planner.plan,
                            lambda: {name.lower() for name in ctx.functions})
        merge_class, reason = classify_select(summary)
    except ReproError:
        return []
    notes: List[str] = []
    for table in summary.tables:
        columns = ", ".join(summary.read_columns.get(table, ()))
        notes.append(f"SEMANTIC: reads {table}({columns})")
    for predicate in summary.predicates:
        if not predicate.pushable:
            notes.append(f"SEMANTIC: join predicate {predicate.text}")
        elif predicate.indexed_by is not None:
            notes.append(f"SEMANTIC: pushdown {predicate.text} "
                         f"[index {predicate.indexed_by}]")
        elif predicate.index_candidate is not None:
            table, column = predicate.index_candidate
            notes.append(f"SEMANTIC: pushdown {predicate.text} "
                         f"[full scan; index candidate "
                         f"{table}({column})]")
        else:
            notes.append(f"SEMANTIC: pushdown {predicate.text}")
    notes.append(f"SEMANTIC: merge class {merge_class} ({reason})")
    return notes


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------

@dataclass
class BoundTable:
    """A table opened for execution: catalog facts plus page handles."""

    desc: TableDesc
    access: TableAccess
    indexes: List[IndexAccess]

    @classmethod
    def bind(cls, binding: str, access: TableAccess,
             indexes: List[IndexAccess], ordinal: int = 0) -> "BoundTable":
        desc = TableDesc.of(binding, access.info,
                            (index.info for index in indexes), ordinal)
        return cls(desc, access, indexes)

    def index_named(self, name: str) -> IndexAccess:
        for index in self.indexes:
            if index.info.name == name:
                return index
        raise PlanError(f"planned index vanished: {name}")


class _Pipeline:
    """Everything of a SELECT compiled against one plan's row layout:
    its output columns, the residual row test (None: no residual) and
    ``produce(rows, pin)``, which turns one cursor's source rows into
    its result rows."""

    __slots__ = ("columns", "residual", "produce")

    def __init__(self, columns: List[str], residual: Optional[Callable],
                 produce: Callable[[Iterator[Row], Optional[int]],
                                   Iterator[Row]]) -> None:
        self.columns = columns
        self.residual = residual
        self.produce = produce


class _SelectPlanner:
    def __init__(self, select: ast.Select, ctx: ExecutionContext,
                 memo: Optional[PlanMemo] = None) -> None:
        self.select = select
        self.ctx = ctx
        self.memo = memo
        self.index_build_seconds = 0.0
        #: the statement-only analysis, the FROM tables (in FROM order)
        #: and the plan tree (SELECT 1 has one with no steps)
        self.shape: Optional[_Shape] = None
        self.descs: List[TableDesc] = []
        self.plan: Optional[SelectPlan] = None
        #: the FROM tables' column names, lower-cased: a name among them
        #: means the column, never a select-list alias (left empty when
        #: no item has an alias, as nothing then needs it)
        self.columns: frozenset = frozenset()

    # -- public -----------------------------------------------------------

    def columns_and_rows(self) -> Tuple[List[str], Iterator[Row]]:
        ctx, memo = self.ctx, self.memo
        pin = ctx.current_snapshot
        shape = _Shape(self.select, run=pin is not None) if memo is None \
            else memo.shape(self.select)
        tables = []
        for ref in shape.refs:
            access = ctx.open_table(ref.name)
            tables.append(BoundTable.bind(
                ref.binding, access, ctx.open_indexes(access),
                ordinal=len(tables),
            ))
        descs = [table.desc for table in tables]
        self.shape, self.descs = shape, descs
        predicates, pinned = shape.predicates(descs)
        folded = None
        if pin is not None and True in pinned:
            # The planner sees the pin as the constant it is for this
            # cursor: an index key, a batchable leaf filter.
            predicates = [_fold_pin(pred, pin) if reads else pred
                          for pred, reads in zip(predicates, pinned)]
            folded = pin
        if memo is None:
            plan = plan_from(descs, predicates, ctx.table_stats)
        else:
            plan = memo.plan(descs, predicates, ctx.table_stats, folded)
        self.plan = plan
        ordered, rows = self._execute(plan, tables)
        pipeline = self._pipeline(plan, ordered, shape, pin)
        if pipeline.residual is not None:
            rows = filter(pipeline.residual, rows)
        return pipeline.columns, pipeline.produce(rows, pin)

    # -- plan execution -----------------------------------------------------------

    def _execute(self, plan: SelectPlan, tables: List[BoundTable]):
        """Execute the plan steps over ``tables`` (in FROM order).

        Returns (ordered_descs, row_iterator); rows are concatenations
        of the ordered tables' columns.  A plan of no steps (no FROM)
        reads one empty row.
        """
        if not plan.steps:
            return [], iter([()])
        ordered: List[TableDesc] = []
        rows: Iterator[Row] = iter(())
        for step in plan.steps:
            bound = tables[step.desc.ordinal]
            pushed, leaf_filter, width = step.pushed, None, None
            if step.access is not None and step.access.kind == "scan":
                if pushed:
                    leaf_filter, pushed = self._leaf_filter(step)
                if len(plan.steps) == 1:
                    width = self._scan_width(step)
            if step.access is None:
                rows = self._exec_join(ordered, bound, step.join, rows)
            elif leaf_filter is not None:
                rows = chain.from_iterable(
                    bound.access.tree.scan_leaves(leaf_filter, width))
            else:
                rows = map(itemgetter(1),
                           self._exec_access(bound, step.access, width))
            ordered.append(step.desc)
            if pushed:
                rows = self._apply_pushed(ordered, rows, pushed)
        return ordered, rows

    def _pipeline(self, plan: SelectPlan, ordered: List[TableDesc],
                  shape: _Shape, pin: Optional[int]) -> _Pipeline:
        """The plan's compiled pipeline, compiled by its first cursor
        and reused by the next while the function table, and the pin if
        a compiled clause reads it, stay the same."""
        functions = self.ctx.functions
        key = pin if shape.pinned else None
        kept = plan.pipeline
        if kept is not None and kept[1] == key \
                and (kept[0] is functions or kept[0] == functions):
            return kept[2]
        pipeline = self._compile(plan, ordered, shape, functions, pin)
        plan.pipeline = (functions, key, pipeline)
        return pipeline

    def _compile(self, plan: SelectPlan, ordered: List[TableDesc],
                 shape: _Shape, functions, pin: Optional[int]) -> _Pipeline:
        """Compile the residual, the select list and every stage after
        it against the plan's row layout.  What it returns holds nothing
        of this cursor: no context, no source."""
        scope = scope_of(ordered)
        compiler = ExpressionCompiler(scope, functions, pin)
        residual = compiler.compile_predicate(plan.residual) \
            if plan.residual else None
        # A star names the columns in FROM order, whatever the join
        # order (the row layout) is.
        items = expand_stars(self.select.items, scope_of(self.descs))
        if shape.aliased:
            self.columns = _column_names(ordered)
        if shape.aggregated:
            columns, produce = self._run_aggregate(items, compiler)
        else:
            columns, produce = self._run_plain(items, compiler,
                                               shape.pinned_items)
        limited = self._limiter(pin)
        if limited is not None:
            inner = produce

            def produce(rows: Iterator[Row], pin: Optional[int],
                        ) -> Iterator[Row]:
                return limited(inner(rows, pin))
        return _Pipeline(columns, residual, produce)

    def _leaf_filter(self, step: PlanNode,
                     ) -> Tuple[Optional[LeafFilter], List[ast.Expr]]:
        """The scan step's leaf filter and the pushed conjuncts left
        per row, compiled once per plan node (racing threads at worst
        compile twice; either filter is right).  No function registry:
        a batchable conjunct calls none, so the filter the plan keeps
        holds nothing of this statement's context."""
        compiled = step.leaf_filter
        if compiled is None:
            compiled = step.leaf_filter = ExpressionCompiler(
                step.desc.scope()).compile_leaf_filter(step.pushed)
        return compiled

    def _scan_width(self, step: PlanNode) -> Optional[int]:
        """How many leading columns the single-table scan ``step``
        decodes of each record, computed once per plan node like its
        leaf filter; None for the whole record."""
        width = step.width
        if width is None:
            width = step.width = read_width(self.select, step.desc.columns)
        return width if width < len(step.desc.columns) else None

    def _apply_pushed(self, ordered: List[TableDesc], rows,
                      pushed: List[ast.Expr]):
        """Filter with the predicates the plan pushed down to this
        prefix (filter before joining further)."""
        if not pushed:
            return rows
        compiler = ExpressionCompiler(scope_of(ordered), self.ctx.functions)
        return filter(compiler.compile_predicate(pushed), rows)

    @staticmethod
    def _exec_access(table: BoundTable, spec: AccessSpec,
                     width: Optional[int] = None,
                     ) -> Iterator[Tuple[int, Row]]:
        """(rowid, row) pairs of a planned access path: the one row
        locator.  SELECT drops the rowid, DML keeps it; a scan's rows
        hold their first ``width`` columns when one is given."""
        if spec.kind == "scan":
            return table.access.scan(width)
        inexact = spec.inexact
        lo_inc, hi_inc = spec.lo_inc or inexact, spec.hi_inc or inexact
        if spec.index is None:
            # The key is the rowid: one descent of the table tree.
            if spec.kind == "eq":
                rows = table.access.seek(spec.value)
            else:
                rows = table.access.seek_range(
                    spec.lo[0] if spec.lo else None,
                    spec.hi[0] if spec.hi else None, lo_inc, hi_inc)
        else:
            index = table.index_named(spec.index)
            if spec.kind == "eq":
                rowids = index.lookup_equal([spec.value])
            else:
                rowids = index.lookup_range(spec.lo, spec.hi, lo_inc, hi_inc)
            rows = _fetch_rows(table.access, rowids)
        if not inexact:
            return rows
        # Foldable with the built-ins, or the index would not have it.
        keep = ExpressionCompiler(
            table.desc.scope(), BUILTIN_SCALARS).compile_predicate([spec.pred])
        return (pair for pair in rows if keep(pair[1]))

    def _exec_join(self, prefix: List[TableDesc], table: BoundTable,
                   spec: JoinSpec, prefix_rows):
        """Join one more table onto the prefix rows per the plan."""
        if spec.kind == "cross":
            # Cross join; predicates filter afterwards.
            def cross():
                inner_rows = [row for _, row in table.access.scan()]
                for left in prefix_rows:
                    for right in inner_rows:
                        yield left + right
            return cross()

        outer_eval = ExpressionCompiler(
            scope_of(prefix), self.ctx.functions,
        ).compile(spec.outer_expr)

        if spec.kind in ("native", "rowid"):
            access = table.access
            inner_pos = access.info.column_index(spec.inner_col.name)
            if spec.kind == "rowid":
                matches = access.seek
            else:
                native = table.index_named(spec.index)

                def matches(key):
                    return _fetch_rows(access, native.lookup_equal([key]))

            def indexed():
                for left in prefix_rows:
                    key = outer_eval(left)
                    if key is None:
                        continue
                    # As in _exec_access: an inexact key probes a superset.
                    recheck = _inexact_key(key)
                    for _, row in matches(key):
                        if not (recheck and compare(row[inner_pos], key)):
                            yield left + row
            return indexed()

        # Automatic (ephemeral covering) index on the inner join column —
        # a real B+tree, as SQLite builds, so its creation cost carries
        # the realistic serialization work (Figure 9's dominant cost).
        from repro.sql.executor import EphemeralIndex

        column_pos = table.access.info.column_index(spec.inner_col.name)

        def auto_indexed():
            clock = self.ctx.clock
            started = clock()
            auto_index = EphemeralIndex()
            for _, row in table.access.scan():
                auto_index.add(row[column_pos], row)
            elapsed = clock() - started
            self.index_build_seconds += elapsed
            self.ctx.note_index_creation(elapsed)
            for left in prefix_rows:
                key = outer_eval(left)
                if key is None:
                    continue
                for row in auto_index.lookup(key):
                    yield left + row
        return auto_indexed()

    # -- plain (non-aggregate) pipeline ------------------------------------------------

    def _run_plain(self, items: List[ast.SelectItem],
                   compiler: ExpressionCompiler, pinned_items: bool):
        """``pinned_items``: the items that call ``current_snapshot()``
        are compiled by each cursor at its own pin, the rest once."""
        select = self.select
        # Every item is compiled here, in order, so a bad one is reported
        # as the text form reports it; each cursor recompiles the items
        # that read the pin at its own.
        evaluators = [compiler.compile(item.expr) for item in items]
        at_pin = [(i, item.expr) for i, item in enumerate(items)
                  if pinned_items and reads_pin(item.expr)]
        columns = [output_name(item, i) for i, item in enumerate(items)]

        order_evals = self._order_evaluators(items, compiler)

        def produce(source_rows: Iterator[Row],
                    pin: Optional[int]) -> Iterator[Row]:
            if not at_pin:
                return rows_of(source_rows, evaluators)
            own = list(evaluators)
            pinned = ExpressionCompiler(compiler.scope, compiler.functions,
                                        pin)
            for i, expr in at_pin:
                own[i] = pinned.compile(expr)
            return rows_of(source_rows, own)

        def rows_of(source_rows: Iterator[Row],
                    evaluators: List[Callable]) -> Iterator[Row]:
            if order_evals is None:
                if select.distinct:
                    seen = set()
                    for src in source_rows:
                        row = tuple(e(src) for e in evaluators)
                        if row in seen:
                            continue
                        seen.add(row)
                        yield row
                else:
                    for src in source_rows:
                        yield tuple(e(src) for e in evaluators)
                return
            keyed: List[Tuple[tuple, Row]] = []
            seen = set()
            for src in source_rows:
                row = tuple(e(src) for e in evaluators)
                if select.distinct:
                    if row in seen:
                        continue
                    seen.add(row)
                keys = tuple(e(src) for e, _ in order_evals)
                keyed.append((keys, row))
            yield from _sorted_rows(keyed, order_evals)
        return columns, produce

    def _order_evaluators(self, items: List[ast.SelectItem],
                          compiler: ExpressionCompiler):
        """Compile ORDER BY items (against the same scope as ``compiler``).

        Returns a list of (evaluator, descending) or None when no ORDER
        BY.  Aliases and 1-based positions resolve to select item exprs.
        """
        select = self.select
        if not select.order_by:
            return None
        out = []
        for order in select.order_by:
            expr = _resolve_order_expr(order.expr, items, self.columns,
                                       compiler.pin)
            out.append((compiler.compile(expr), order.descending))
        return out

    # -- aggregate pipeline -----------------------------------------------------------

    def _run_aggregate(self, items: List[ast.SelectItem],
                       compiler: ExpressionCompiler):
        select = self.select
        group_exprs, having, agg_calls, to_post_agg, post_items = \
            _aggregation(select, items, self.columns, compiler.pin)
        group_evals = [compiler.compile(g) for g in group_exprs]
        agg_arg_evals = []
        for call in agg_calls:
            if call.star:
                agg_arg_evals.append(lambda row: 1)
            elif len(call.args) == 1:
                agg_arg_evals.append(compiler.compile(call.args[0]))
            else:
                raise PlanError(
                    f"aggregate {call.name}() takes exactly one argument"
                )

        post_scope = Scope([("", f"#{i}") for i in
                            range(len(group_exprs) + len(agg_calls))])
        post_compiler = ExpressionCompiler(post_scope, compiler.functions,
                                           compiler.pin)
        self._check_grouped(post_items, group_exprs)

        evaluators = [post_compiler.compile(item.expr)
                      for item in post_items]
        columns = [output_name(item, i)
                   for i, item in enumerate(post_items)]

        having_passes = None
        if having is not None:
            having_passes = post_compiler.compile_predicate(
                [_rewrite(having, to_post_agg)]
            )
        order_evals = None
        if select.order_by:
            order_evals = []
            for order in select.order_by:
                expr = _resolve_order_expr(order.expr, post_items,
                                           self.columns, compiler.pin)
                expr = _rewrite(expr, to_post_agg)
                order_evals.append(
                    (post_compiler.compile(expr), order.descending)
                )

        def new_group():
            """A group's accumulators, and their (step, argument) pairs
            bound once so the row loop looks nothing up."""
            aggs = [make_aggregate(c.name, c.distinct) for c in agg_calls]
            return aggs, [(agg.step, arg)
                          for agg, arg in zip(aggs, agg_arg_evals)]

        if len(group_evals) == 1:
            # The usual single GROUP BY key builds its 1-tuple directly.
            (only_key,) = group_evals

            def key_of(src: Row) -> tuple:
                return (only_key(src),)
        else:
            def key_of(src: Row) -> tuple:
                return tuple([g(src) for g in group_evals])

        def produce(source_rows: Iterator[Row],
                    pin: Optional[int]) -> Iterator[Row]:
            # ``pin`` is compiled in already where a clause reads it.
            groups: Dict[tuple, tuple] = {}  #: key -> new_group()
            if not group_evals:
                # One group, with or without rows (COUNT = 0, SUM = NULL
                # over none): no key, no probe.
                groups[()] = new_group()
                steps = groups[()][1]
                for src in source_rows:
                    for step, arg in steps:
                        step(arg(src))
            else:
                for src in source_rows:
                    key = key_of(src)
                    group = groups.get(key)
                    if group is None:
                        groups[key] = group = new_group()
                    for step, arg in group[1]:
                        step(arg(src))
            out: List[Tuple[tuple, Row]] = []
            seen = set()
            for key, (aggs, _) in groups.items():
                agg_row = key + tuple(a.result() for a in aggs)
                if having_passes is not None and not having_passes(agg_row):
                    continue
                row = tuple(e(agg_row) for e in evaluators)
                if select.distinct:
                    if row in seen:
                        continue
                    seen.add(row)
                if order_evals is None:
                    out.append(((), row))
                else:
                    keys = tuple(e(agg_row) for e, _ in order_evals)
                    out.append((keys, row))
            if order_evals is None:
                for _, row in out:
                    yield row
            else:
                yield from _sorted_rows(out, order_evals)
        return columns, produce

    def _check_grouped(self, post_items: List[ast.SelectItem],
                       group_exprs: List[ast.Expr]) -> None:
        for item in post_items:
            for node in walk(item.expr):
                if isinstance(node, ast.ColumnRef):
                    raise PlanError(
                        f"column {node.display()} is neither grouped "
                        f"nor aggregated"
                    )

    # -- limit --------------------------------------------------------------------

    def _limiter(self, pin: Optional[int],
                 ) -> Optional[Callable[[Iterator[Row]], Iterator[Row]]]:
        """LIMIT and OFFSET, folded now, as a row filter (None: neither
        clause)."""
        select = self.select
        if select.limit is None and select.offset is None:
            return None
        try:
            limit = constant_int(select.limit, "LIMIT", BUILTIN_SCALARS,
                                 pin)
            offset = constant_int(select.offset, "OFFSET",
                                  BUILTIN_SCALARS, pin) or 0
        except PlanError as exc:
            raise PlanError(
                f"{exc} (LIMIT and OFFSET fold at plan time, where only "
                f"built-in functions are available)") from exc

        def limited(rows: Iterator[Row]) -> Iterator[Row]:
            skipped = 0
            produced = 0
            for row in rows:
                if skipped < offset:
                    skipped += 1
                    continue
                if limit is not None and produced >= limit:
                    return
                produced += 1
                yield row
        return limited


# ---------------------------------------------------------------------------
# DML access planning (index-assisted row location for DELETE/UPDATE)
# ---------------------------------------------------------------------------

def scan_for_modify(table: TableAccess, indexes: List[IndexAccess],
                    where: Optional[ast.Expr],
                    functions: Dict[str, Callable[..., SqlValue]]):
    """Yield (rowid, row) pairs matching ``where``, via an index when one
    fits.  Used by DELETE and UPDATE, which must not mutate mid-scan —
    callers materialize before writing.

    Planned by :func:`plan_from` like any single-table SELECT, but
    deliberately without statistics: the order rows are visited decides
    B-tree page layout (and so Pagelog/Maplog bytes), which must not
    depend on whether someone ran ``ANALYZE``.
    """
    bound = BoundTable.bind(table.info.name, table, indexes)
    plan = plan_from([bound.desc], conjuncts(where), lambda _table: None)
    step = plan.steps[0]
    passes = ExpressionCompiler(bound.desc.scope(), functions) \
        .compile_predicate(step.pushed + plan.residual)
    return (pair
            for pair in _SelectPlanner._exec_access(bound, step.access)
            if passes(pair[1]))


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def read_width(select: ast.Select, columns: Sequence[str]) -> int:
    """One past the highest position in ``columns`` (one table's, in
    record order) that a column reference of ``select`` names: the
    record prefix a scan of that table for ``select`` must decode.

    Every clause counts — items, WHERE, GROUP BY, HAVING, ORDER BY.  A
    name no column has is a select-list alias, read through its item.
    A star reads every column.  Nothing is resolved here, so a name is
    counted whatever qualifies it; the statement's own compile rejects
    a wrong qualifier.  A reference this misses would fail loudly,
    indexing past the end of a cut row, never read as NULL.
    """
    if any(item.is_star for item in select.items):
        return len(columns)
    positions = {column.lower(): pos for pos, column in enumerate(columns)}
    clauses = [item.expr for item in select.items]
    clauses += [select.where, *select.group_by, select.having]
    clauses += [order.expr for order in select.order_by]
    width = 0
    for clause in clauses:
        if clause is None:
            continue
        for node in walk(clause):
            if isinstance(node, ast.ColumnRef):
                pos = positions.get(node.name.lower())
                if pos is not None and pos >= width:
                    width = pos + 1
    return width


def _predicate_uses_only(expr: ast.Expr, scope: Scope) -> bool:
    for node in walk(expr):
        if isinstance(node, ast.ColumnRef):
            if scope.try_resolve(node) is None:
                return False
    return True


def _constant_value(expr: ast.Expr,
                    functions: Dict[str, Callable[..., SqlValue]],
                    pin: Optional[int] = None) -> SqlValue:
    if isinstance(expr, ast.Literal):
        return expr.value
    return ExpressionCompiler(Scope([]), functions, pin).compile(expr)(())


def _fold(constants: List[ast.Expr]) -> Optional[List[SqlValue]]:
    """Plan-time values of column-free expressions, or None when one of
    them cannot be folded.

    Folding sees the built-in scalars only: registered UDFs may have
    side effects (RQL's mechanisms are UDFs) and ``EXPLAIN`` must not
    execute anything.  An unfoldable conjunct is left to the compiled
    row filter, which has the statement's full function table.
    """
    try:
        return [_constant_value(expr, BUILTIN_SCALARS) for expr in constants]
    except ReproError:
        return None


def constant_int(expr: Optional[ast.Expr], label: str,
                 functions: Dict[str, Callable[..., SqlValue]],
                 pin: Optional[int] = None) -> Optional[int]:
    """Value of a constant integer clause (LIMIT, OFFSET, AS OF); None
    for an absent or NULL one.  ``pin`` is what ``current_snapshot()``
    reads, when the statement runs at a snapshot of a run.  A value
    that is no integer (``'abc'``, ``2.5``) is SQLite's ``datatype
    mismatch``."""
    if expr is None:
        return None
    if not is_constant(expr):
        raise PlanError(f"{label} must be a constant")
    value = _constant_value(expr, functions, pin)
    if value is None:
        return None
    number = exact_integer(value)
    if number is None:
        raise TypeMismatchError("datatype mismatch")
    return number


def _inexact_key(bound: SqlValue) -> bool:
    """True for a number the memcomparable key codec cannot tell from
    its neighbours (NaN included; text, blobs and NULL are exact)."""
    return (isinstance(bound, (int, float))
            and not -KEY_EXACT_INT <= bound <= KEY_EXACT_INT)


def _fetch_rows(access: TableAccess,
                rowids: Iterator[int]) -> Iterator[Tuple[int, Row]]:
    for rowid in rowids:
        row = access.get(rowid)
        if row is not None:
            yield rowid, row


def _sorted_rows(keyed: List[Tuple[tuple, Row]], order_evals) -> Iterator[Row]:
    descending = [d for _, d in order_evals]

    def sort_key(entry: Tuple[tuple, Row]):
        keys = entry[0]
        out = []
        for value, desc in zip(keys, descending):
            rank, val = _negatable_key(value)
            if desc:
                out.append((-rank, _Reversed(val)))
            else:
                out.append((rank, val))
        return tuple(out)

    keyed.sort(key=sort_key)
    for _, row in keyed:
        yield row


def _negatable_key(value: SqlValue):
    from repro.sql.types import sort_key as base_key

    rank, val = base_key(value)
    return rank, val


class _Reversed:
    """Wrapper inverting comparisons, for DESC sort of mixed types."""

    __slots__ = ("value",)

    def __init__(self, value: SqlValue) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        if self.value == other.value:
            return False
        try:
            return other.value < self.value
        except TypeError:
            return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and self.value == other.value


def expand_stars(items: List[ast.SelectItem],
                 scope: Scope) -> List[ast.SelectItem]:
    """The select list with each ``*`` / ``t.*`` replaced by one item
    per column of ``scope`` it names, each aliased by its column."""
    out: List[ast.SelectItem] = []
    for item in items:
        if not item.is_star:
            out.append(item)
            continue
        if item.star_table is not None:
            positions = scope.positions_for_binding(item.star_table)
            if not positions:
                raise PlanError(f"no such table: {item.star_table}")
        else:
            positions = list(range(len(scope)))
        for pos in positions:
            binding, column = scope.bindings[pos]
            out.append(ast.SelectItem(
                expr=ast.ColumnRef(table=binding, name=column),
                alias=column,
            ))
    if not out:
        raise PlanError("SELECT list is empty after star expansion")
    return out


def _resolve_order_expr(expr: ast.Expr, items: List[ast.SelectItem],
                        columns: frozenset,
                        pin: Optional[int] = None) -> ast.Expr:
    """What an ORDER BY term sorts by.  A bare integer is a 1-based item
    position; so is a bare ``current_snapshot()`` call, which names the
    pin as the literal the paper's textual rewrite writes in its place
    would.  A bare name is an item's alias before it is a column; inside
    a larger term, a name in ``columns`` means the column."""
    position = None
    if isinstance(expr, ast.Literal) and isinstance(expr.value, int):
        position = expr.value
    elif pin is not None and is_current_snapshot(expr):
        position = pin
    if position is not None:
        if not 1 <= position <= len(items):
            raise PlanError(f"ORDER BY position {position} out of range")
        return items[position - 1].expr  # type: ignore[return-value]
    if isinstance(expr, ast.ColumnRef) and expr.table is None:
        for item in items:
            if item.alias and item.alias.lower() == expr.name.lower():
                return item.expr  # type: ignore[return-value]
    return _resolve_alias_refs(expr, items, columns)


def _aggregation(select: ast.Select, items: List[ast.SelectItem],
                 columns: frozenset, pin: Optional[int]):
    """What an aggregated SELECT is made of before anything compiles:
    ``(group_exprs, having, calls, to_post_agg, post_items)`` — GROUP BY
    and HAVING with their aliases resolved, the aggregate calls of every
    post-aggregation clause, the rewrite of a node into the aggregated
    row (group keys at ``[0, len(group_exprs))``, then the calls) and
    the select list so rewritten, which names the result columns."""
    group_exprs = [_resolve_alias_refs(g, items, columns, "GROUP BY")
                   for g in select.group_by]
    having = select.having
    if having is not None:
        # HAVING may reference select-list aliases (SQLite allows it).
        having = _resolve_alias_refs(having, items)
    calls: List[ast.FunctionCall] = []
    clauses = [item.expr for item in items] + [having] + [
        _resolve_order_expr(order.expr, items, columns, pin)
        for order in select.order_by]
    for clause in clauses:
        if clause is None:
            continue
        for node in walk(clause):
            if isinstance(node, ast.FunctionCall) \
                    and node.is_aggregate_name() and node not in calls:
                calls.append(node)

    mapping: List[Tuple[ast.Expr, PostAggRef]] = []
    for i, g in enumerate(group_exprs):
        display = g.name if isinstance(g, ast.ColumnRef) else ""
        mapping.append((g, PostAggRef(i, display)))
    for j, call in enumerate(calls):
        display = f"{call.name.upper()}(*)" if call.star \
            else f"{call.name.upper()}()"
        mapping.append((call, PostAggRef(len(group_exprs) + j, display)))

    def to_post_agg(node: ast.Expr) -> ast.Expr:
        for original, replacement in mapping:
            if node == original:
                return replacement
        return node

    post_items = [ast.SelectItem(expr=_rewrite(item.expr, to_post_agg),
                                 alias=item.alias) for item in items]
    return group_exprs, having, calls, to_post_agg, post_items


def _column_names(descs: Iterable[TableDesc]) -> frozenset:
    return frozenset(column.lower() for desc in descs
                     for column in desc.columns)


def _resolve_alias_refs(expr: Optional[ast.Expr],
                        items: List[ast.SelectItem],
                        columns: frozenset = frozenset(),
                        clause: Optional[str] = None) -> Optional[ast.Expr]:
    """Replace bare column refs matching select aliases with their expr,
    as SQLite resolves names: a name in ``columns`` (the FROM tables')
    keeps meaning the column, in every clause but HAVING, which passes
    none.  A ``clause`` that runs before aggregation (WHERE, GROUP BY)
    raises :class:`PlanError` for an alias of an aggregate.  An
    expression with no alias to replace comes back as the same object,
    so the plan memo, which compares predicates by identity, still
    hits."""
    aliases = {
        item.alias.lower(): item.expr
        for item in items
        if item.alias and item.expr is not None
        and item.alias.lower() not in columns
    }
    if expr is None or not aliases or not any(
            isinstance(node, ast.ColumnRef) and node.table is None
            and node.name.lower() in aliases for node in walk(expr)):
        return expr

    def mapper(node: ast.Expr) -> ast.Expr:
        if isinstance(node, ast.ColumnRef) and node.table is None:
            replacement = aliases.get(node.name.lower())
            if replacement is not None:
                if clause is not None and contains_aggregate(replacement):
                    raise PlanError(f"misuse of aliased aggregate "
                                    f"{node.name} in {clause}")
                return replacement
        return node

    return _rewrite(expr, mapper)


def _rewrite(expr: ast.Expr, mapper) -> ast.Expr:
    """Bottom-up rewrite: apply ``mapper`` to every node."""
    replaced = mapper(expr)
    if replaced is not expr:
        return replaced
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, _rewrite(expr.operand, mapper))
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(expr.op, _rewrite(expr.left, mapper),
                            _rewrite(expr.right, mapper))
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(_rewrite(expr.operand, mapper), expr.negated)
    if isinstance(expr, ast.InList):
        return ast.InList(_rewrite(expr.operand, mapper),
                          [_rewrite(i, mapper) for i in expr.items],
                          expr.negated)
    if isinstance(expr, ast.Between):
        return ast.Between(_rewrite(expr.operand, mapper),
                           _rewrite(expr.low, mapper),
                           _rewrite(expr.high, mapper), expr.negated)
    if isinstance(expr, ast.Like):
        return ast.Like(_rewrite(expr.operand, mapper),
                        _rewrite(expr.pattern, mapper), expr.negated)
    if isinstance(expr, ast.FunctionCall):
        return ast.FunctionCall(expr.name,
                                [_rewrite(a, mapper) for a in expr.args],
                                expr.distinct, expr.star)
    if isinstance(expr, ast.CaseExpr):
        return ast.CaseExpr(
            _rewrite(expr.operand, mapper) if expr.operand else None,
            [(_rewrite(c, mapper), _rewrite(r, mapper))
             for c, r in expr.branches],
            _rewrite(expr.else_result, mapper)
            if expr.else_result else None,
        )
    return expr


def output_name(item: ast.SelectItem, position: int) -> str:
    """The result column name of select item ``item`` at ``position``."""
    if item.alias:
        return item.alias
    expr = item.expr
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, PostAggRef) and expr.display:
        return expr.display
    # A current_snapshot() call is named like the literal the paper's
    # textual rewrite puts in its place.
    if isinstance(expr, ast.FunctionCall) and not is_current_snapshot(expr):
        return f"{expr.name.upper()}(*)" if expr.star \
            else f"{expr.name.upper()}()"
    return f"column{position + 1}"
