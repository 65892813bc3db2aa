"""Golden-plan corpus: SELECT statements with certified plan renderings.

Every entry pairs one SELECT (over the corpus schema — TPC-H + LoggedIn
+ SnapIds, see :func:`repro.workloads.corpus.corpus_schema`) with the
declared ANALYZE statistics it plans under, the exact plan rendering
:func:`repro.sql.planner.render_plan` must produce, and the RQL11N
rules planlint must assign it.  The corpus serves three consumers:

* the golden-plan tests (``tests/analysis/test_planlint.py``) certify
  each entry and compare rendering and rule set;
* every ``repro.cli lint`` run re-certifies the corpus (the lint
  driver's ``corpus_drift``), so a cost-model change that silently
  flips an access path fails CI as RQL110 drift until this file is
  updated deliberately;
* the differential gate (``tests/sql/test_plan_equivalence.py``) runs
  stats-driven and heuristic plans side by side and demands identical
  result sets.

Statistics are *declared*, not gathered: entries must stay stable
without a database, and a few deliberately carry corrupt statistics
(reversed domains, impossible page counts) to pin the RQL114 arms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.sql.stats import ColumnStats, TableStats


@dataclass(frozen=True)
class PlanEntry:
    """One SELECT with its certified golden plan."""

    name: str
    sql: str
    stats: Tuple[TableStats, ...] = ()
    latest_snapshot: Optional[int] = None  #: enables RQL112 staleness
    golden: Tuple[str, ...] = ()           #: render_plan output, pinned
    expected_rules: Tuple[str, ...] = ()   #: RQL11N set planlint assigns


def _table(name: str, snapshot: int, rows: int, pages: int,
           **columns: Tuple[int, object, object]) -> TableStats:
    """Shorthand: ``col=(distinct, min, max)`` -> :class:`TableStats`."""
    return TableStats(
        table=name, snapshot_id=snapshot, row_count=rows,
        page_count=pages,
        columns={
            column: ColumnStats(column=column, distinct=distinct,
                                min_value=lo, max_value=hi)
            for column, (distinct, lo, hi) in columns.items()
        },
    )


#: orders at a plausible TPC-H scale (0.001): PK dense in [1, 1500].
_ORDERS = _table(
    "orders", 3, 1500, 60,
    o_orderkey=(1500, 1, 1500),
    o_custkey=(100, 1, 150),
    o_totalprice=(1400, 900.0, 480000.0),
)

#: lineitem: big enough that RQL111 fires for an unindexed sargable
#: predicate (row_count >= the scale threshold).
_LINEITEM = _table(
    "lineitem", 3, 6000, 240,
    l_orderkey=(1500, 1, 1500),
    l_quantity=(50, 1, 50),
    l_extendedprice=(5800, 900.0, 95000.0),
    l_discount=(11, 0.0, 0.1),
)

_CUSTOMER = _table(
    "customer", 3, 1500, 50,
    c_custkey=(1500, 1, 1500),
    c_mktsegment=(5, None, None),
)

#: deliberately corrupt: 10 rows can't fill 10000 pages, so the seq
#: scan costs out absurdly high and an index probe "wins" even for a
#: predicate spanning the whole [0, 10] domain (raw selectivity 1.0).
_ORDERS_CORRUPT = _table(
    "orders", 3, 10, 10000,
    o_orderkey=(10, 0, 10),
)


PLAN_CORPUS: Tuple[PlanEntry, ...] = (
    PlanEntry(
        # No statistics at all: heuristic scan + RQL112 fallback note,
        # with the AS OF pin surfacing in the rendering.
        name="loggedin-heuristic-asof",
        sql="SELECT AS OF 3 l_userid FROM LoggedIn "
            "WHERE l_country = 'DK'",
        golden=(
            "AS OF snapshot (Retro SPT + snapshot cache)",
            "SCAN LoggedIn",
            "COST: LoggedIn no statistics (heuristic access path)",
        ),
        expected_rules=("RQL112",),
    ),
    PlanEntry(
        # TPC-H Q6 shape: the predicate is sargable but nothing indexes
        # l_quantity, and at 6000 rows the scan is certifiably
        # expensive -> RQL111 (the statistics-backed RQL104 upgrade).
        name="tpch-q6-unindexed-scan",
        sql="SELECT SUM(l_extendedprice * l_discount) AS revenue "
            "FROM lineitem WHERE l_quantity < 24",
        stats=(_LINEITEM,),
        golden=(
            "SCAN lineitem",
            "AGGREGATE (hash group-by)",
            "COST: lineitem est. rows 2816.33 est. pages 240 "
            "cost 300 via seq scan",
        ),
        expected_rules=("RQL111",),
    ),
    PlanEntry(
        # Point lookup on the PK, which is the rowid: the cost model
        # picks the seek (2.01) over 60 sequential pages.
        name="tpch-orders-pk-probe",
        sql="SELECT o_totalprice FROM orders WHERE o_orderkey = 7",
        stats=(_ORDERS,),
        golden=(
            "SEARCH orders USING INTEGER PRIMARY KEY (rowid=?)",
            "COST: orders est. rows 1 est. pages 1 "
            "cost 2.01 via integer primary key (=)",
        ),
    ),
    PlanEntry(
        # Narrow PK range: ~3 of 1500 rows, still far under the
        # seq-scan crossover.
        name="tpch-orders-pk-range",
        sql="SELECT o_totalprice FROM orders "
            "WHERE o_orderkey BETWEEN 10 AND 12",
        stats=(_ORDERS,),
        golden=(
            "SEARCH orders USING INTEGER PRIMARY KEY "
            "(rowid>? AND rowid<?)",
            "COST: orders est. rows 2.00133 est. pages 1 "
            "cost 3.02135 via integer primary key (range)",
        ),
    ),
    PlanEntry(
        # TPC-H Q3 shape: cost-based outer choice and native-index join
        # sides, with the unindexed c_mktsegment filter at scale.
        name="tpch-q3-join-order",
        sql="SELECT o.o_orderkey, "
            "SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue "
            "FROM customer c, orders o, lineitem l "
            "WHERE c.c_mktsegment = 'BUILDING' "
            "AND c.c_custkey = o.o_custkey "
            "AND l.l_orderkey = o.o_orderkey "
            "GROUP BY o.o_orderkey",
        stats=(_CUSTOMER, _ORDERS, _LINEITEM),
        golden=(
            "SCAN c",
            "SEARCH o USING AUTOMATIC COVERING INDEX (o_custkey=?)",
            "SEARCH l USING INDEX __pk_lineitem (l_orderkey=?)",
            "AGGREGATE (hash group-by)",
            "COST: c est. rows 300 est. pages 50 "
            "cost 65 via seq scan",
            "COST: o est. rows 15 est. pages 1 "
            "cost 91.15 via automatic index join",
            "COST: l est. rows 4 est. pages 1 "
            "cost 5.04 via index __pk_lineitem join",
        ),
        expected_rules=("RQL111",),
    ),
    PlanEntry(
        # Statistics exist but predate the latest declared snapshot:
        # the staleness arm of RQL112.
        name="tpch-orders-stale-stats",
        sql="SELECT o_custkey FROM orders WHERE o_orderkey = 7",
        stats=(_ORDERS,),
        latest_snapshot=5,
        golden=(
            "SEARCH orders USING INTEGER PRIMARY KEY (rowid=?)",
            "COST: orders est. rows 1 est. pages 1 "
            "cost 2.01 via integer primary key (=)",
        ),
        expected_rules=("RQL112",),
    ),
    PlanEntry(
        # Corrupt statistics: 10 rows / 10000 pages make the seq scan
        # cost 10000, so a rowid seek wins a filter-nothing range ->
        # RQL114's zero-selectivity arm.
        name="tpch-orders-corrupt-stats",
        sql="SELECT o_custkey FROM orders "
            "WHERE o_orderkey BETWEEN 0 AND 10",
        stats=(_ORDERS_CORRUPT,),
        golden=(
            "SEARCH orders USING INTEGER PRIMARY KEY "
            "(rowid>? AND rowid<?)",
            "COST: orders est. rows 10 est. pages 10000 "
            "cost 11.1 via integer primary key (range)",
        ),
        expected_rules=("RQL114",),
    ),
)


def plan_schema():
    """The schema every corpus entry plans against."""
    from repro.workloads.corpus import corpus_schema

    return corpus_schema()

