"""RQL100-106 rule metadata.

rqlint rules are not :class:`~repro.analysis.rules.Checker` subclasses —
they fire from the merge certificate (:mod:`repro.sql.certify`) and
from planlint, not from a per-module AST walk — but they carry the same metadata surface (``rule_id``/``name``/
``description``/``example``/``fix``), so the driver's one rule
catalogue serves ``--list-rules``, ``--explain RQL1NN`` and SARIF for
them exactly as for the RPL rules.
"""

from __future__ import annotations

from typing import Dict, Type

QUERY_REGISTRY: Dict[str, Type["QueryRule"]] = {}


def register(cls: Type["QueryRule"]) -> Type["QueryRule"]:
    QUERY_REGISTRY[cls.rule_id] = cls
    return cls


class QueryRule:
    """Metadata holder for one rqlint diagnostic."""

    rule_id: str = "RQL100"
    name: str = ""
    description: str = ""
    example: str = ""
    fix: str = ""


@register
class QueryHygiene(QueryRule):
    rule_id = "RQL100"
    name = "query-hygiene"
    description = (
        "The query does not resolve against the schema or violates the "
        "mechanism's shape contract: unknown table or column, ambiguous "
        "unqualified column, Qq that is not a single SELECT or contains "
        "AS OF (the rewriter injects the snapshot pin itself), Qs that "
        "does not produce a single snapshot-id column.  (A malformed "
        "or unjustified pragma is RPL000, in SQL as in Python.)"
    )
    example = (
        "-- rqlint: mechanism=CollateData\n"
        "SELECT userid FROM LoggedOut;   -- no such table: LoggedOut"
    )
    fix = (
        "Fix the query text (or the DDL preceding it in the lint "
        "file)."
    )


@register
class NonMonoidAggregate(QueryRule):
    rule_id = "RQL101"
    name = "non-monoid-aggregate"
    description = (
        "AggregateDataInVariable folds one scalar per snapshot through "
        "the SQL aggregate of the same name, so the aggregate must be "
        "one of repro.sql.aggregates' mergeable ones, an abelian monoid "
        "(MIN/MAX/SUM/COUNT; AVG through its (sum, count) state).  "
        "GROUP_CONCAT, DISTINCT forms and arbitrary UDFs have no merge "
        "law: partition merges would depend on partition boundaries.  "
        "The query is certified serial-only and the engine refuses it."
    )
    example = (
        "session.aggregate_data_in_variable(qs, qq, 'R',\n"
        "    agg_func='group_concat')   -- order-dependent, not a monoid"
    )
    fix = (
        "Use MIN/MAX/SUM/COUNT/AVG, or run the computation serially "
        "(workers=1) where a total snapshot order exists."
    )


@register
class NonMergeableColumnFunction(QueryRule):
    rule_id = "RQL102"
    name = "non-mergeable-column-function"
    description = (
        "AggregateDataInTable merges stored rows across partitions "
        "through each column's aggregate merge over its stored state, "
        "which only the mergeable aggregates have: MIN/MAX/SUM/COUNT/"
        "AVG.  Any other column function (or a DISTINCT form) makes the "
        "stored row non-mergeable: the partition seams would be visible "
        "in the result.  Certified serial-only."
    )
    example = (
        "session.aggregate_data_in_table(qs, qq, 'R',\n"
        "    col_func_pairs=[('val', 'group_concat')])"
    )
    fix = (
        "Restrict col_func_pairs to min/max/sum/count/avg, or collate "
        "the raw rows (CollateData) and aggregate afterwards."
    )


@register
class UnboundedSnapshotRange(QueryRule):
    rule_id = "RQL103"
    name = "unbounded-qs-range"
    description = (
        "The Qs has no static bounds on the snapshot ids it returns "
        "(or is statically empty).  An unbounded Qs re-executes the Qq "
        "over the entire snapshot history, which grows without limit; "
        "a statically empty range does no work and usually indicates "
        "inverted bounds.  The certificate records the derived "
        "[lo, hi] range for the planner."
    )
    example = (
        "SELECT snap_id FROM SnapIds ORDER BY snap_id  -- whole history"
    )
    fix = (
        "Bound the range: WHERE snap_id BETWEEN :lo AND :hi (or >=, "
        "<=, IN).  Suppress with '-- rqlint: ignore[RQL103] -- reason' "
        "when whole-history retrospection is intended."
    )


@register
class UnindexedPushdown(QueryRule):
    rule_id = "RQL104"
    name = "unindexed-pushdown"
    description = (
        "A single-table WHERE conjunct is pushable into the "
        "per-snapshot scan but no index leads with its column, so "
        "every snapshot iteration full-scans the table — the cost "
        "multiplies by |Qs|, and cold snapshots pay it through the "
        "Retro SPT page-fetch path.  The certificate lists the "
        "(table, column) index candidates."
    )
    example = (
        "SELECT * FROM lineitem\n"
        "WHERE l_shipdate BETWEEN '1994-01-01' AND '1994-12-31'\n"
        "-- no index leads with l_shipdate: |Qs| full scans of lineitem"
    )
    fix = (
        "CREATE INDEX idx ON <table>(<column>) before the "
        "retrospection, or accept the scan with "
        "'-- rqlint: ignore[RQL104] -- reason'."
    )


@register
class OrderInsideQq(QueryRule):
    rule_id = "RQL105"
    name = "order-inside-qq"
    description = (
        "The Qq contains ORDER BY or LIMIT.  Each snapshot evaluates "
        "the Qq independently, so a per-snapshot sort buys nothing "
        "once a concat merge interleaves partitions, and LIMIT keeps "
        "the first N rows *per snapshot*, which is rarely what was "
        "meant.  Results stay correct (per-snapshot evaluation is "
        "identical serial or parallel) — this is a warning, not a "
        "refusal."
    )
    example = (
        "CollateData(qs, 'SELECT grp, val FROM events "
        "ORDER BY val LIMIT 3', 'R')"
    )
    fix = (
        "Move ORDER BY/LIMIT to the query that reads the collated "
        "result table; keep the Qq a plain filter/projection."
    )


@register
class NonDeterministicQq(QueryRule):
    rule_id = "RQL106"
    name = "non-deterministic-qq"
    description = (
        "The Qq calls a function rqlint cannot prove deterministic.  A "
        "stateful builtin (rql_workers mutates the session's worker "
        "knob) is an error and certifies serial-only: evaluating it "
        "from concurrent partitions races and breaks retrospection "
        "reproducibility.  A function that is merely unregistered at "
        "certification time is a warning — the executor will reject it "
        "at runtime if it truly does not exist."
    )
    example = (
        "CollateData(qs, 'SELECT grp FROM events "
        "WHERE rql_workers(4) > 0', 'R')"
    )
    fix = (
        "Set the worker count outside the Qq (session kwarg, "
        ".workers, RQL_WORKERS); register UDFs before certification "
        "so rqlint can see them."
    )
