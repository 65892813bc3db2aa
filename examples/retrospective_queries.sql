-- Retrospective query corpus for rqlint (`repro.cli lint <this file>`).
--
-- Plain SQL with `-- rqlint:` annotations: DDL builds the schema,
-- each `mechanism=` directive opens a case whose following SQL is the
-- Qq, and `ignore[...]`/alias pragmas suppress rules with a reason.

CREATE TABLE LoggedIn (
    l_userid  TEXT,
    l_time    TEXT,
    l_country TEXT
);
CREATE TABLE Sales (
    s_day     INTEGER PRIMARY KEY,
    s_region  TEXT,
    s_units   INTEGER
);
CREATE INDEX sales_region ON Sales (s_region);

-- The paper's Figure 2: who was logged in, per snapshot.
-- rqlint: mechanism=CollateData name=user-history qs="SELECT snap_id FROM SnapIds WHERE snap_id BETWEEN 1 AND 3 ORDER BY snap_id"
SELECT DISTINCT l_userid, current_snapshot() FROM LoggedIn;

-- Peak concurrent users across the whole history.  The audit is
-- deliberately retrospective over everything ever recorded.
-- rqlint: mechanism=AggregateDataInVariable name=peak-users arg="max" qs="SELECT snap_id FROM SnapIds ORDER BY snap_id"
-- rqlint: ignore[RQL103] -- the audit intentionally walks all history
SELECT COUNT(*) AS online FROM LoggedIn;

-- Units per region, merged across snapshots.  The region predicate is
-- covered by sales_region, so no RQL104 fires here.
-- rqlint: mechanism=AggregateDataInTable name=region-units arg="units:sum" qs="SELECT snap_id FROM SnapIds WHERE snap_id <= 8"
SELECT s_region, SUM(s_units) AS units FROM Sales
WHERE s_region = 'EU'
GROUP BY s_region;

-- Same query against the unindexed day column: RQL104 would flag the
-- per-snapshot full scan, accepted here to keep the example scan-only.
-- rqlint: mechanism=CollateData name=busy-days qs="SELECT snap_id FROM SnapIds WHERE snap_id <= 8"
-- rqlint: ignore[RQL104] -- tiny table, a scan per snapshot is fine
SELECT s_day, s_units FROM Sales WHERE s_units > 100;

-- A legacy report that only ever runs serially: the mergeclass rules
-- are suppressed as a group via the alias.
-- rqlint: mechanism=AggregateDataInVariable name=legacy-roster arg="group_concat" qs="SELECT snap_id FROM SnapIds WHERE snap_id <= 3"
-- rqlint: mergeclass-exempt -- legacy report, executed with workers=1
SELECT l_userid FROM LoggedIn ORDER BY l_userid;
