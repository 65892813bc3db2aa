"""planlint: static plan certification (RQL110-114).

Where merge-class certification (:mod:`repro.sql.certify`)
answers *can this retrospective computation merge across partitions*,
plan certification answers *will the planner execute it the way we
recorded*.  :func:`certify_plan` plans one SELECT statically — the same
pure planner (:func:`repro.sql.planner.plan_from`) that execution and
``EXPLAIN`` use, driven by a :class:`~repro.sql.stats.StatsProvider`
instead of a live database — and checks the resulting
:class:`~repro.sql.planner.SelectPlan` tree:

* **RQL110 golden-plan drift** — the rendered plan no longer matches
  the checked-in golden lines (:mod:`repro.workloads.plans`).  Any
  cost-model or planner change must update the corpus deliberately.
* **RQL111 unindexed-at-scale** — a sargable conjunct has no supporting
  index and statistics say the scanned table is large.  The upgrade of
  RQL104: the old rule fired on shape alone, this one only once ANALYZE
  proves the scan is expensive.
* **RQL112 missing/stale statistics** — a planned table has no
  ``__rql_stats`` entry (the planner fell back to heuristics) or its
  statistics predate the latest declared snapshot.
* **RQL113 pushdown-missed** — a single-table conjunct survived into
  the plan's residual filter instead of being pushed into the
  per-snapshot ``Qs`` page iteration.  The honest planner always
  pushes; this certifies plans (including hand-built or deserialized
  ones) rather than trusting the planner.
* **RQL114 cost-model sanity** — estimates are impossible: estimated
  rows exceed the table's cardinality (or are negative), or an index
  path was costed cheaper than a sequential scan for a predicate whose
  raw selectivity says it filters nothing.  Both arms are reachable
  through honest planning over *corrupt* statistics, which is exactly
  when a silent bad plan would otherwise ship.

Rules fire through the same findings/baseline/SARIF machinery as
RQL100-106; every lint run re-certifies the golden-plan corpus
(:func:`repro.analysis.driver.corpus_drift`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import ERROR, WARNING, Finding
from repro.analysis.query.rules import QueryRule, register
from repro.errors import ReproError
from repro.sql import ast
from repro.sql.expressions import walk
from repro.sql.parser import parse_sql
from repro.sql.planner import SelectPlan, plan_select_static, render_plan
from repro.sql.semantic import render_expr, resolve_select
from repro.sql.stats import EmptyStats, StatsProvider

#: RQL111 only fires once statistics prove the table is big enough for
#: the missing index to matter (SQLite's analysis_limit spirit).
SCALE_THRESHOLD = 1000


# ---------------------------------------------------------------------------
# Rule metadata (lint --list-rules / --explain)
# ---------------------------------------------------------------------------


@register
class GoldenPlanDrift(QueryRule):
    rule_id = "RQL110"
    name = "golden-plan-drift"
    description = (
        "The statically planned access path for a golden-plan corpus "
        "entry no longer matches its checked-in rendering.  Plans are "
        "certifiable artifacts: a cost-model tweak that silently flips "
        "a seq scan to an index probe (or reorders a join) changes "
        "Pagelog traffic for every retrospective query, so the drift "
        "gate fails until the corpus is updated deliberately."
    )
    example = (
        "# repro/workloads/plans.py pins\n"
        "#   SEARCH orders USING INTEGER PRIMARY KEY (rowid=?)\n"
        "# but after a cost-constant change the planner renders\n"
        "#   SCAN orders"
    )
    fix = (
        "Re-record the entry's golden lines in repro/workloads/plans.py "
        "in the same change that alters the planner or cost model, and "
        "say why in the commit message."
    )


@register
class UnindexedAtScale(QueryRule):
    rule_id = "RQL111"
    name = "unindexed-at-scale"
    description = (
        "A sargable WHERE conjunct (col = const, range, BETWEEN, IN) "
        "has no index whose leading column supports it, the planned "
        "access path is a full scan, and ANALYZE statistics put the "
        "table at or above the scale threshold.  Unlike RQL104 (shape "
        "only), this fires only when statistics prove every snapshot "
        "in the Qs range pays the full sequential page cost."
    )
    example = (
        "-- lineitem ANALYZEd at 6000 rows; no index leads l_quantity\n"
        "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_quantity < 24"
    )
    fix = (
        "CREATE INDEX <name> ON <table> (<column>) before the "
        "retrospective run, or accept the scan with\n"
        "-- rqlint: ignore[RQL111] -- <reason>"
    )


@register
class StaleStatistics(QueryRule):
    rule_id = "RQL112"
    name = "stale-statistics"
    description = (
        "A planned table has no ANALYZE statistics at all (the planner "
        "silently fell back to its fixed heuristics) or its newest "
        "statistics were gathered at a snapshot older than the latest "
        "declared one, so cost estimates describe a database that no "
        "longer exists."
    )
    example = (
        "-- orders last ANALYZEd at snapshot 2; latest snapshot is 5\n"
        "SELECT * FROM orders WHERE o_orderkey = 7"
    )
    fix = (
        "Run ANALYZE (or ANALYZE <table>) after loading data and after "
        "each DECLARE SNAPSHOT burst that changes table sizes."
    )


@register
class PushdownMissed(QueryRule):
    rule_id = "RQL113"
    name = "pushdown-missed"
    description = (
        "A conjunct that references a single FROM table was left in "
        "the plan's residual filter instead of being consumed by the "
        "access path or pushed to that table's prefix.  Every residual "
        "evaluation happens after row assembly, so the per-snapshot Qs "
        "iteration fetches Pagelog pages the pushed filter would have "
        "skipped.  The honest planner always pushes; this certifies "
        "the plan artifact itself."
    )
    example = (
        "SelectPlan(steps=[scan t], residual=[t.n > 5])\n"
        "# t.n > 5 resolves against t alone: it belongs in steps[0]"
    )
    fix = (
        "Replan with repro.sql.planner.plan_from rather than editing "
        "SelectPlan trees by hand; a planner that produces this plan "
        "has a pushdown bug."
    )


@register
class CostModelSanity(QueryRule):
    rule_id = "RQL114"
    name = "cost-model-sanity"
    description = (
        "The plan's estimates are impossible: a step's estimated rows "
        "exceed the table's own cardinality or are negative, or an "
        "index path was chosen for a predicate whose raw selectivity "
        "is >= 1.0 (it filters nothing, so the index probe can only "
        "add cost).  Both happen with corrupt statistics — reversed "
        "min/max domains, page counts from a different table — which "
        "otherwise produce silently terrible plans."
    )
    example = (
        "-- __rql_stats rows claim 10 rows across 10000 pages, so the\n"
        "-- planner picks an index probe for a filter-nothing predicate\n"
        "SEARCH orders USING INTEGER PRIMARY KEY (rowid>? AND rowid<?)"
        "  -- sel 1.0"
    )
    fix = (
        "Re-run ANALYZE to replace the corrupt statistics; if they "
        "were declared (DeclaredStats), fix the declaration."
    )


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


@dataclass
class PlanCertificate:
    """The checkable result of statically planning one SELECT."""

    sql: str
    select: Optional[ast.Select] = None
    plan: Optional[SelectPlan] = None
    rendering: List[str] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)

    @property
    def rules(self) -> Tuple[str, ...]:
        return tuple(sorted({f.rule for f in self.findings}))


def certify_plan(sql: str, schema, stats: Optional[StatsProvider] = None,
                 *, file: str = "<plan>", line: int = 1, symbol: str = "",
                 golden: Optional[Sequence[str]] = None,
                 latest_snapshot: Optional[int] = None,
                 plan: Optional[SelectPlan] = None) -> PlanCertificate:
    """Plan ``sql`` statically and certify the plan tree.

    ``schema`` is a :class:`~repro.sql.semantic.SchemaProvider`;
    ``stats`` a :class:`~repro.sql.stats.StatsProvider` (heuristic
    planning when omitted).  ``golden`` pins the expected rendering
    (RQL110); ``latest_snapshot`` enables the RQL112 staleness arm;
    ``plan`` substitutes a pre-built tree — the certification-of-
    artifacts path RQL113/RQL114 exist for — instead of replanning.
    """
    stats = stats if stats is not None else EmptyStats()
    certificate = PlanCertificate(sql=sql)

    def finding(rule: str, severity: str, message: str,
                hint: str = "") -> None:
        certificate.findings.append(Finding(
            file=file, line=line, rule=rule, severity=severity,
            message=message, hint=hint, symbol=symbol,
        ))

    try:
        statements = parse_sql(sql)
    except ReproError as exc:
        finding("RQL100", ERROR, f"plan query does not parse: {exc}")
        return certificate
    if len(statements) != 1 or not isinstance(statements[0], ast.Select):
        finding("RQL100", ERROR,
                "plan certification takes a single SELECT statement")
        return certificate
    select = statements[0]
    certificate.select = select

    try:
        if plan is None:
            plan = plan_select_static(select, schema, stats)
            certificate.rendering = render_plan(select, schema, stats)
        else:
            certificate.rendering = plan.access_notes() + plan.cost_notes()
    except ReproError as exc:
        finding("RQL100", ERROR, f"plan query does not plan: {exc}")
        return certificate
    certificate.plan = plan

    _check_golden(certificate, golden, finding)
    _check_statistics(plan, stats, latest_snapshot, finding)
    _check_unindexed_at_scale(select, schema, stats, plan, finding)
    _check_pushdown(plan, finding)
    _check_cost_sanity(plan, stats, finding)
    return certificate


def _check_golden(certificate: PlanCertificate,
                  golden: Optional[Sequence[str]], finding) -> None:
    if golden is None:
        return
    got, want = list(certificate.rendering), list(golden)
    if got == want:
        return
    for position, (g, w) in enumerate(zip(got, want)):
        if g != w:
            finding("RQL110", ERROR,
                    f"golden plan drift at line {position + 1}: "
                    f"planned {g!r}, corpus expects {w!r}",
                    hint="update the golden lines in "
                         "repro/workloads/plans.py only with a "
                         "matching planner change")
            return
    finding("RQL110", ERROR,
            f"golden plan drift: planned {len(got)} lines, corpus "
            f"expects {len(want)}",
            hint="update the golden lines in repro/workloads/plans.py "
                 "only with a matching planner change")


def _check_statistics(plan: SelectPlan, stats: StatsProvider,
                      latest_snapshot: Optional[int], finding) -> None:
    seen: Set[str] = set()
    for step in plan.steps:
        table = step.desc.table.lower()
        if table in seen:
            continue
        seen.add(table)
        table_stats = stats.table_stats(table)
        if table_stats is None:
            finding("RQL112", WARNING,
                    f"no statistics for planned table {step.desc.table}; "
                    f"access paths fell back to heuristics",
                    hint=f"ANALYZE {step.desc.table}")
        elif (latest_snapshot is not None
                and table_stats.snapshot_id < latest_snapshot):
            finding("RQL112", WARNING,
                    f"stale statistics for {step.desc.table}: gathered "
                    f"at snapshot {table_stats.snapshot_id}, latest "
                    f"declared is {latest_snapshot}",
                    hint=f"re-run ANALYZE {step.desc.table}")


def _check_unindexed_at_scale(select: ast.Select, schema,
                              stats: StatsProvider, plan: SelectPlan,
                              finding) -> None:
    try:
        summary = resolve_select(select, schema)
    except ReproError:
        return
    if not summary.resolved:
        return
    scanned = {
        step.desc.table.lower()
        for step in plan.steps
        if (step.access is not None and step.access.kind == "scan")
        or (step.join is not None and step.join.kind in ("auto", "cross"))
    }
    reported: Set[Tuple[str, str]] = set()
    for predicate in summary.predicates:
        if not predicate.pushable or predicate.index_candidate is None:
            continue
        table, column = predicate.index_candidate
        key = (table.lower(), column.lower())
        if key in reported or table.lower() not in scanned:
            continue
        table_stats = stats.table_stats(table)
        if table_stats is None or table_stats.row_count < SCALE_THRESHOLD:
            continue
        reported.add(key)
        finding("RQL111", WARNING,
                f"sargable predicate {predicate.text} scans {table} "
                f"({table_stats.row_count} rows at snapshot "
                f"{table_stats.snapshot_id}); no index leads with "
                f"{column}",
                hint=f"CREATE INDEX {table}_{column} ON {table} "
                     f"({column})")


def _check_pushdown(plan: SelectPlan, finding) -> None:
    scopes = [(step.desc.binding, step.desc.scope())
              for step in plan.steps]

    def single_binding(expr: ast.Expr) -> Optional[str]:
        owners: Set[str] = set()
        for node in walk(expr):
            if not isinstance(node, ast.ColumnRef):
                continue
            owner = next((binding for binding, scope in scopes
                          if scope.try_resolve(node) is not None), None)
            if owner is None:
                return None
            owners.add(owner)
        return owners.pop() if len(owners) == 1 else None

    for residual in plan.residual:
        binding = single_binding(residual)
        if binding is None:
            continue
        finding("RQL113", ERROR,
                f"pushdown missed: {render_expr(residual)} references "
                f"only {binding} but remains a residual filter, so the "
                f"per-snapshot Qs iteration fetches pages it would "
                f"have skipped",
                hint="replan with repro.sql.planner.plan_from; "
                     "hand-edited plan trees lose their certification")


def _check_cost_sanity(plan: SelectPlan, stats: StatsProvider,
                       finding) -> None:
    for step in plan.steps:
        if not step.costed:
            continue
        table_stats = stats.table_stats(step.desc.table)
        if table_stats is not None and step.est_rows is not None:
            if step.est_rows < 0:
                finding("RQL114", ERROR,
                        f"cost-model sanity: {step.desc.binding} "
                        f"estimates {step.est_rows:g} rows (negative); "
                        f"statistics are corrupt",
                        hint="re-run ANALYZE to replace the corrupt "
                             "statistics")
                continue
            if step.est_rows > table_stats.row_count:
                finding("RQL114", ERROR,
                        f"cost-model sanity: {step.desc.binding} "
                        f"estimates {step.est_rows:g} rows but the "
                        f"table holds {table_stats.row_count}",
                        hint="re-run ANALYZE to replace the corrupt "
                             "statistics")
                continue
        if (step.access is not None and step.access.kind != "scan"
                and step.selectivity is not None
                and step.selectivity >= 1.0):
            finding("RQL114", ERROR,
                    f"cost-model sanity: {step.desc.binding} chose "
                    f"index path {step.path_desc} for a predicate with "
                    f"raw selectivity {step.selectivity:g} (filters "
                    f"nothing); an index probe can only add cost",
                    hint="re-run ANALYZE to replace the corrupt "
                         "statistics")
