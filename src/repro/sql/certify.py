"""Merge-class certification for RQL mechanism invocations.

Every mechanism run is, algebraically, a map over the Qs snapshot set
followed by a merge.  Whether that merge can be computed from
independent partitions depends on the mechanism *and* on what the Qq
actually does; this module decides it statically and issues a
:class:`MergeCertificate`:

===================  =====================================================
merge class          merge law
===================  =====================================================
``concat``           list concatenation in partition order (CollateData)
``monoid``           abelian-monoid fold: the aggregate's own ``merge``,
                     AVG as its (sum, count) state (AggregateDataInVariable)
``stored-row``       per-group ``TableAggregateSchema.merge``: each
                     column's aggregate merges its stored state, AVG's the
                     hidden ``__avg_sum_i``/``__avg_cnt_i`` pair
                     (AggregateDataInTable)
``interval-stitch``  boundary stitching of adjacent per-partition
                     intervals (CollateDataIntoIntervals)
``serial-only``      no merge law exists; the run is one partition
===================  =====================================================

The certificate also carries the query's read-set (tables, columns,
pushable predicates, index candidates) and the static ``[lo, hi]``
bounds of the Qs — the inputs ROADMAP's incremental-view and
cost-planner work need.  Diagnostics RQL100-106 ride along as
:class:`Finding` objects, the one diagnostic record the lint driver
(``repro.cli lint``) also reports, baselines and renders.

``repro.core.parallel.ParallelExecutor`` certifies every run itself and
reads one rule off the verdict: two or more partitions need a
certificate whose class is the fold's class; one partition never does.
A ``serial-only`` verdict (or a class that does not match the
mechanism) therefore runs as one partition, stepping Qq over the
snapshots in serial order, so a wrong certificate cannot silently merge
wrong.  EXPLAIN's ``SEMANTIC: merge class`` line is
:func:`classify_select` over the same :class:`QuerySummary`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import AggregateError, ReproError
from repro.sql import ast
from repro.sql.aggregates import (
    MERGEABLE_AGGREGATES,
    mergeable_aggregate,
    parse_col_func_pairs,
)
from repro.sql.parser import parse_sql
from repro.sql.semantic import (
    QsRange,
    QuerySummary,
    SchemaProvider,
    analyze_qs,
    resolve_select,
)

#: severity levels; only ERROR findings fail a lint run
ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic pinned to a file, line and enclosing symbol."""

    file: str        #: package-relative posix path (baseline-stable)
    line: int
    rule: str        #: rule id, e.g. "RPL030"
    severity: str
    message: str
    hint: str = ""   #: how to fix (or legitimately suppress) it
    symbol: str = "" #: enclosing function/class qualname, "" at module level
    content_hash: str = ""  #: hash of the enclosing function's source

    @property
    def baseline_key(self) -> str:
        """v1 key: line-independent but content-independent too."""
        return f"{self.rule}:{self.file}:{self.symbol or '<module>'}"

    @property
    def hashed_key(self) -> str:
        """v2 key: expires when the enclosing function's body changes."""
        if self.content_hash:
            return f"{self.baseline_key}#{self.content_hash}"
        return self.baseline_key

    def matches(self, baseline: Set[str]) -> bool:
        return self.hashed_key in baseline or self.baseline_key in baseline

    def render(self) -> str:
        where = f"{self.file}:{self.line}"
        text = f"{where}: {self.rule} [{self.severity}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


CONCAT = "concat"
MONOID = "monoid"
STORED_ROW = "stored-row"
INTERVAL_STITCH = "interval-stitch"
SERIAL_ONLY = "serial-only"

#: canonical mechanism name (lowered) -> merge class when certified
MECHANISM_CLASSES: Dict[str, str] = {
    "collatedata": CONCAT,
    "aggregatedatainvariable": MONOID,
    "aggregatedataintable": STORED_ROW,
    "collatedataintointervals": INTERVAL_STITCH,
}


@dataclass
class MergeCertificate:
    """Static verdict for one mechanism invocation."""

    mechanism: str
    merge_class: str
    qs: str = ""
    qq: str = ""
    read_tables: Tuple[str, ...] = ()
    read_columns: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    pushable_predicates: Tuple[str, ...] = ()
    non_pushable_predicates: Tuple[str, ...] = ()
    index_candidates: Tuple[Tuple[str, str], ...] = ()
    qs_lower: Optional[int] = None
    qs_upper: Optional[int] = None
    findings: List[Finding] = field(default_factory=list)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def mergeable(self) -> bool:
        return self.merge_class != SERIAL_ONLY

    def qs_range(self) -> str:
        return QsRange(self.qs_lower, self.qs_upper).describe()

    def summary_lines(self) -> List[str]:
        """Human-readable certificate (``.rqlint`` and EXPLAIN surface)."""
        lines = [f"mechanism {self.mechanism}: "
                 f"merge class {self.merge_class}"]
        lines.append(f"Qs range {self.qs_range()}")
        for table in self.read_tables:
            columns = ", ".join(self.read_columns.get(table, ()))
            lines.append(f"reads {table}({columns})")
        for text in self.pushable_predicates:
            lines.append(f"pushdown {text}")
        for text in self.non_pushable_predicates:
            lines.append(f"join predicate {text} (not pushable)")
        for table, column in self.index_candidates:
            lines.append(f"index candidate {table}({column})")
        for finding in self.findings:
            lines.append(
                f"{finding.rule} [{finding.severity}] {finding.message}")
        return lines


class _Certifier:
    """Single-use certification state for one mechanism invocation."""

    def __init__(self, mechanism: str, qs: str, qq: str,
                 schema: Optional[SchemaProvider],
                 file: str, line: int, symbol: str) -> None:
        canonical = mechanism.replace("_", "").lower()
        if canonical not in MECHANISM_CLASSES:
            raise AggregateError(f"unknown RQL mechanism {mechanism!r}")
        self.mechanism = mechanism
        self.canonical = canonical
        self.qs = qs
        self.qq = qq
        self.schema = schema
        self.file = file
        self.line = line
        self.symbol = symbol
        self.findings: List[Finding] = []
        self.serial_only = False

    def finding(self, rule: str, severity: str, message: str,
                hint: str = "", node=None) -> None:
        at = self.line
        node_line = getattr(node, "line", 0) if node is not None else 0
        if node_line > 1:
            at = self.line + node_line - 1
        self.findings.append(Finding(
            file=self.file, line=at, rule=rule, severity=severity,
            message=message, hint=hint, symbol=self.symbol,
        ))

    def refuse(self, rule: str, message: str, hint: str = "",
               node=None) -> None:
        self.serial_only = True
        self.finding(rule, ERROR, message, hint, node)

    # -- parsing -----------------------------------------------------------

    def parse_single_select(self, sql: str,
                            label: str) -> Optional[ast.Select]:
        try:
            statements = parse_sql(sql)
        except ReproError as exc:
            self.finding("RQL100", ERROR, f"{label} does not parse: {exc}")
            return None
        if len(statements) != 1:
            self.finding("RQL100", ERROR,
                         f"{label} must be a single statement, found "
                         f"{len(statements)}")
            return None
        statement = statements[0]
        if not isinstance(statement, ast.Select):
            self.finding("RQL100", ERROR,
                         f"{label} must be a SELECT statement, found "
                         f"{type(statement).__name__}")
            return None
        return statement

    # -- Qs ----------------------------------------------------------------

    def certify_qs(self) -> QsRange:
        select = self.parse_single_select(self.qs, "Qs")
        if select is None:
            return QsRange()
        issues, bounds = analyze_qs(select)
        for issue in issues:
            self.finding("RQL100", ERROR, issue.message, node=issue)
        if bounds.statically_empty:
            self.finding(
                "RQL103", WARNING,
                f"Qs snapshot range is statically empty "
                f"({bounds.describe()})",
                hint="the bounds exclude every snapshot id; check the "
                     "comparison directions")
        elif bounds.upper is None:
            # A missing lower bound is implicitly 1 (snapshot ids are
            # positive); only a missing *upper* bound grows without
            # limit as history accumulates.
            self.finding(
                "RQL103", WARNING,
                f"Qs snapshot range is unbounded ({bounds.describe()}): "
                "the Qq re-executes over the entire history",
                hint="bound snap_id with BETWEEN/>=/<= or suppress with "
                     "ignore[RQL103]")
        return bounds

    # -- Qq ----------------------------------------------------------------

    def certify_qq(self, select: Optional[ast.Select]
                   ) -> Optional[QuerySummary]:
        if select is None:
            return None
        if select.as_of is not None:
            self.finding(
                "RQL100", ERROR,
                "Qq must not contain AS OF: the mechanism rewriter pins "
                "each snapshot itself", node=select)
        if select.order_by or select.limit is not None:
            what = []
            if select.order_by:
                what.append("ORDER BY")
            if select.limit is not None:
                what.append("LIMIT")
            self.finding(
                "RQL105", WARNING,
                f"Qq contains {' and '.join(what)}: per-snapshot order "
                "is interleaved by the concat merge and LIMIT applies "
                "per snapshot, not overall",
                hint="sort/limit the result table instead", node=select)
        if self.schema is None:
            return None
        summary = resolve_select(select, self.schema)
        for issue in summary.issues:
            self.finding("RQL100", ERROR, issue.message, node=issue)
        for name in sorted(summary.stateful_functions):
            self.refuse(
                "RQL106",
                f"Qq calls stateful builtin {name}(): evaluation from "
                "concurrent partitions races on session state and "
                "breaks retrospection reproducibility",
                hint="set the worker knob outside the Qq", node=select)
        for name in sorted(summary.unknown_functions):
            self.finding(
                "RQL106", WARNING,
                f"Qq calls {name}(), which rqlint cannot prove "
                "deterministic (not a registered function at "
                "certification time)",
                hint="register the UDF before certifying", node=select)
        for predicate in summary.predicates:
            if predicate.index_candidate is not None:
                table, column = predicate.index_candidate
                self.finding(
                    "RQL104", WARNING,
                    f"pushable predicate {predicate.text} has no index "
                    f"leading with {table}.{column}: every snapshot "
                    "iteration full-scans the table",
                    hint=f"CREATE INDEX ... ON {table}({column})",
                    node=predicate)
        return summary

    # -- mechanism arguments -----------------------------------------------

    def certify_argument(self, arg, summary: Optional[QuerySummary]) -> None:
        if self.canonical == "aggregatedatainvariable":
            try:
                mergeable_aggregate(str(arg))
            except AggregateError as exc:
                self.refuse(
                    "RQL101",
                    f"agg_func is not an abelian monoid: {exc}",
                    hint="use MIN/MAX/SUM/COUNT/AVG or run serially")
            if summary is not None and summary.resolved \
                    and len(summary.outputs) != 1:
                self.finding(
                    "RQL100", ERROR,
                    f"AggregateDataInVariable needs a single-column Qq, "
                    f"found {len(summary.outputs)} columns")
        elif self.canonical == "aggregatedataintable":
            try:
                pairs = parse_col_func_pairs(arg)
            except AggregateError as exc:
                self.refuse(
                    "RQL102",
                    f"col_func_pairs is not stored-row mergeable: {exc}",
                    hint="restrict column functions to "
                         "min/max/sum/count/avg")
                return
            if summary is None or not summary.resolved:
                return
            names = {output.name.lower() for output in summary.outputs}
            for column, _func in pairs:
                if column.lower() not in names:
                    self.finding(
                        "RQL100", ERROR,
                        f"col_func_pairs names {column!r}, which the Qq "
                        "does not output")

    # -- entry -------------------------------------------------------------

    def run(self, arg,
            select: Optional[ast.Select] = None) -> MergeCertificate:
        """``select``: the parsed Qq; None parses the Qq text."""
        bounds = self.certify_qs()
        if select is None:
            select = self.parse_single_select(self.qq, "Qq")
        summary = self.certify_qq(select)
        self.certify_argument(arg, summary)
        merge_class = (SERIAL_ONLY if self.serial_only
                       else MECHANISM_CLASSES[self.canonical])
        certificate = MergeCertificate(
            mechanism=self.mechanism,
            merge_class=merge_class,
            qs=self.qs,
            qq=self.qq,
            qs_lower=bounds.lower,
            qs_upper=bounds.upper,
            findings=self.findings,
        )
        if summary is not None:
            certificate.read_tables = tuple(summary.tables)
            certificate.read_columns = {
                table: tuple(columns)
                for table, columns in summary.read_columns.items()
            }
            certificate.pushable_predicates = tuple(
                p.text for p in summary.predicates if p.pushable)
            certificate.non_pushable_predicates = tuple(
                p.text for p in summary.predicates if not p.pushable)
            certificate.index_candidates = tuple(summary.index_candidates)
        return certificate


def certify_mechanism(mechanism: str, qs: str, qq: str, arg=None,
                      schema: Optional[SchemaProvider] = None,
                      file: str = "<query>", line: int = 1,
                      symbol: str = "") -> MergeCertificate:
    """Certify one mechanism invocation.

    ``schema=None`` skips resolution (shape and argument checks still
    run) — the executor passes a :class:`~repro.sql.semantic.
    ContextSchema` over the session's statement context, the lint
    driver a :class:`~repro.sql.semantic.StaticSchema` built from
    corpus DDL.
    """
    certifier = _Certifier(mechanism, qs, qq, schema, file, line,
                           symbol or mechanism)
    return certifier.run(arg)


def certify_select(mechanism: str, qs: str, select: ast.Select, arg=None,
                   schema: Optional[SchemaProvider] = None
                   ) -> MergeCertificate:
    """Certify one invocation whose Qq is already parsed (the executor's
    prepared Qq), parsing no Qq text of its own."""
    return _Certifier(mechanism, qs, "", schema, "<query>", 1,
                      mechanism).run(arg, select)


def classify_select(summary: QuerySummary) -> Tuple[str, str]:
    """(merge class, reason) for a bare SELECT used as a Qq.

    The EXPLAIN surface has no mechanism in hand, so this classifies
    the query itself: which mechanism families could merge it exactly.
    """
    if summary.stateful_functions:
        names = ", ".join(sorted(summary.stateful_functions))
        return SERIAL_ONLY, f"stateful function call: {names}"
    mergeable = True
    for call in summary.aggregate_calls:
        if call.distinct or call.name.lower() not in MERGEABLE_AGGREGATES:
            mergeable = False
            break
    if summary.aggregate_calls and not mergeable:
        return SERIAL_ONLY, "non-mergeable aggregate in select list"
    if summary.has_group_by:
        return STORED_ROW, "grouped aggregation merges by stored row"
    if summary.aggregate_calls:
        if all(output.kind == "aggregate" for output in summary.outputs) \
                and len(summary.outputs) == 1:
            return MONOID, "single scalar aggregate folds as a monoid"
        return STORED_ROW, "aggregates merge by stored row"
    return CONCAT, "plain row set concatenates (or interval-stitches)"
