"""planlint: per-rule plan certification units, the golden-plan corpus
gate, doctored-plan certification, and the CLI/SARIF surface."""

import io
import json

import pytest

from repro.analysis import main as lint_main
from repro.analysis.findings import ERROR, WARNING
from repro.analysis.query import QUERY_REGISTRY, certify_plan
from repro.analysis.driver import certify_plan_entry, corpus_drift
from repro.analysis.query.planlint import SCALE_THRESHOLD
from repro.sql.planner import plan_select_static
from repro.sql.parser import parse_sql
from repro.sql.semantic import StaticSchema
from repro.sql.stats import ColumnStats, DeclaredStats, TableStats
from repro.workloads.corpus import CORPUS
from repro.workloads.plans import (
    PLAN_CORPUS,
    PlanEntry,
    plan_schema,
)

DDL = """
CREATE TABLE t (k INTEGER PRIMARY KEY, grp TEXT, n INTEGER);
CREATE TABLE u (k INTEGER, label TEXT);
CREATE INDEX t_grp ON t (grp);
"""


@pytest.fixture
def schema():
    return StaticSchema.from_ddl(DDL)


def table_stats(name="t", snapshot=1, rows=2000, pages=40, **columns):
    built = {
        column: ColumnStats(column=column, distinct=distinct,
                            min_value=lo, max_value=hi)
        for column, (distinct, lo, hi) in columns.items()
    }
    return TableStats(table=name, snapshot_id=snapshot, row_count=rows,
                      page_count=pages, columns=built)


def t_stats(rows=2000, pages=40, snapshot=1):
    return table_stats(
        "t", snapshot=snapshot, rows=rows, pages=pages,
        k=(rows, 1, rows), grp=(5, None, None), n=(100, 0, 100),
    )


def rules_of(certificate):
    return sorted({f.rule for f in certificate.findings})


class TestCertifyPlanSurface:
    def test_clean_certificate(self, schema):
        cert = certify_plan("SELECT n FROM t WHERE k = 7", schema,
                            DeclaredStats([t_stats()]))
        assert cert.plan is not None
        assert cert.rendering[0] == "SEARCH t USING INTEGER PRIMARY KEY (rowid=?)"
        assert cert.findings == []
        assert cert.rules == ()

    def test_parse_error_is_hygiene(self, schema):
        cert = certify_plan("SELEC oops", schema)
        assert rules_of(cert) == ["RQL100"]
        assert cert.plan is None

    def test_non_select_is_hygiene(self, schema):
        cert = certify_plan("DELETE FROM t", schema)
        assert rules_of(cert) == ["RQL100"]

    def test_unknown_table_is_hygiene(self, schema):
        cert = certify_plan("SELECT * FROM nope", schema)
        assert rules_of(cert) == ["RQL100"]

    def test_findings_anchor(self, schema):
        cert = certify_plan("SELECT * FROM t", schema,
                            file="<plans:x>", line=3, symbol="x")
        assert all(f.file == "<plans:x>" and f.line == 3
                   and f.symbol == "x" for f in cert.findings)


class TestGoldenDrift:
    GOLDEN = (
        "SEARCH t USING INTEGER PRIMARY KEY (rowid=?)",
        "COST: t est. rows 1 est. pages 1 cost 2.01 "
        "via integer primary key (=)",
    )

    def test_matching_golden_is_clean(self, schema):
        cert = certify_plan("SELECT n FROM t WHERE k = 7", schema,
                            DeclaredStats([t_stats()]),
                            golden=self.GOLDEN)
        assert "RQL110" not in rules_of(cert)

    def test_line_drift(self, schema):
        doctored = (self.GOLDEN[0].replace("SEARCH", "SCAN"),
                    self.GOLDEN[1])
        cert = certify_plan("SELECT n FROM t WHERE k = 7", schema,
                            DeclaredStats([t_stats()]),
                            golden=doctored)
        drift = [f for f in cert.findings if f.rule == "RQL110"]
        assert len(drift) == 1
        assert drift[0].severity == ERROR
        assert "drift at line 1" in drift[0].message

    def test_length_drift(self, schema):
        cert = certify_plan("SELECT n FROM t WHERE k = 7", schema,
                            DeclaredStats([t_stats()]),
                            golden=self.GOLDEN + ("extra",))
        drift = [f for f in cert.findings if f.rule == "RQL110"]
        assert len(drift) == 1
        assert "3 lines" in drift[0].message or "lines" in drift[0].message


class TestUnindexedAtScale:
    def test_fires_at_scale(self, schema):
        cert = certify_plan("SELECT k FROM t WHERE n > 5", schema,
                            DeclaredStats([t_stats(rows=SCALE_THRESHOLD)]))
        hits = [f for f in cert.findings if f.rule == "RQL111"]
        assert len(hits) == 1
        assert hits[0].severity == WARNING
        assert "n > 5" in hits[0].message
        assert "CREATE INDEX" in hits[0].hint

    def test_quiet_below_threshold(self, schema):
        cert = certify_plan(
            "SELECT k FROM t WHERE n > 5", schema,
            DeclaredStats([t_stats(rows=SCALE_THRESHOLD - 1, pages=2)]))
        assert "RQL111" not in rules_of(cert)

    def test_quiet_without_stats(self, schema):
        cert = certify_plan("SELECT k FROM t WHERE n > 5", schema)
        assert "RQL111" not in rules_of(cert)

    def test_quiet_when_indexed(self, schema):
        cert = certify_plan("SELECT k FROM t WHERE grp = 'a'", schema,
                            DeclaredStats([t_stats()]))
        assert "RQL111" not in rules_of(cert)

    def test_one_finding_per_candidate(self, schema):
        cert = certify_plan(
            "SELECT k FROM t WHERE n > 5 AND n < 90", schema,
            DeclaredStats([t_stats()]))
        assert len([f for f in cert.findings
                    if f.rule == "RQL111"]) == 1


class TestStatistics:
    def test_missing_stats(self, schema):
        cert = certify_plan("SELECT * FROM t", schema)
        hits = [f for f in cert.findings if f.rule == "RQL112"]
        assert len(hits) == 1
        assert hits[0].severity == WARNING
        assert "no statistics" in hits[0].message
        assert "ANALYZE t" in hits[0].hint

    def test_missing_stats_once_per_table(self, schema):
        cert = certify_plan("SELECT * FROM t a, t b", schema)
        assert len([f for f in cert.findings
                    if f.rule == "RQL112"]) == 1

    def test_stale_stats(self, schema):
        cert = certify_plan("SELECT * FROM t", schema,
                            DeclaredStats([t_stats(snapshot=2)]),
                            latest_snapshot=5)
        hits = [f for f in cert.findings if f.rule == "RQL112"]
        assert len(hits) == 1
        assert "stale" in hits[0].message
        assert "snapshot 2" in hits[0].message

    def test_fresh_stats_are_quiet(self, schema):
        cert = certify_plan("SELECT * FROM t", schema,
                            DeclaredStats([t_stats(snapshot=5)]),
                            latest_snapshot=5)
        assert "RQL112" not in rules_of(cert)


def static_plan(sql, schema, stats=None):
    statements = parse_sql(sql)
    return plan_select_static(
        statements[0], schema,
        stats if stats is not None else DeclaredStats())


class TestPushdownMissed:
    def test_honest_plan_is_quiet(self, schema):
        cert = certify_plan("SELECT k FROM t WHERE n > 5", schema)
        assert "RQL113" not in rules_of(cert)

    def test_doctored_residual_fires(self, schema):
        sql = "SELECT k FROM t WHERE n > 5"
        plan = static_plan(sql, schema)
        assert plan.steps[0].pushed, "planner should push n > 5"
        plan.residual.append(plan.steps[0].pushed.pop())
        cert = certify_plan(sql, schema, plan=plan)
        hits = [f for f in cert.findings if f.rule == "RQL113"]
        assert len(hits) == 1
        assert hits[0].severity == ERROR
        assert "n > 5" in hits[0].message

    def test_multi_table_residual_is_legitimate(self, schema):
        # A conjunct spanning both tables can only run once both rows
        # are assembled; finding it in the residual is not a missed
        # pushdown.
        sql = "SELECT t.k FROM t, u WHERE t.n < u.k"
        plan = static_plan(sql, schema)
        pushed = plan.steps[-1].pushed
        assert pushed, "cross-table conjunct lands on the join prefix"
        plan.residual.append(pushed.pop())
        cert = certify_plan(sql, schema, plan=plan)
        assert "RQL113" not in rules_of(cert)


class TestCostModelSanity:
    def test_honest_stats_are_quiet(self, schema):
        cert = certify_plan("SELECT k FROM t WHERE n > 5", schema,
                            DeclaredStats([t_stats()]))
        assert "RQL114" not in rules_of(cert)

    def test_zero_selectivity_index_path(self, schema):
        # 10 rows cannot fill 10000 pages: the seq scan costs out
        # absurdly high, so the planner honestly picks an index probe
        # for a filter-nothing range.
        corrupt = table_stats("t", rows=10, pages=10000, k=(10, 0, 10))
        cert = certify_plan(
            "SELECT n FROM t WHERE k BETWEEN 0 AND 10", schema,
            DeclaredStats([corrupt]))
        hits = [f for f in cert.findings if f.rule == "RQL114"]
        assert len(hits) == 1
        assert hits[0].severity == ERROR
        assert "filters" in hits[0].message

    def test_negative_estimate_from_reversed_domain(self, schema):
        # A reversed min/max domain makes the interpolated selectivity
        # negative; the raw (unclamped) estimate surfaces it.
        corrupt = table_stats("t", rows=10, pages=10000, k=(10, 10, 0))
        cert = certify_plan(
            "SELECT n FROM t WHERE k BETWEEN 2 AND 8", schema,
            DeclaredStats([corrupt]))
        assert "RQL114" in rules_of(cert)

    def test_doctored_overestimate_fires(self, schema):
        sql = "SELECT k FROM t WHERE n > 5"
        stats = DeclaredStats([t_stats()])
        plan = static_plan(sql, schema, stats)
        plan.steps[0].est_rows = t_stats().row_count * 2.0
        cert = certify_plan(sql, schema, stats, plan=plan)
        hits = [f for f in cert.findings if f.rule == "RQL114"]
        assert len(hits) == 1
        assert "cardinality" in hits[0].message \
            or "holds" in hits[0].message


class TestPlanCorpus:
    @pytest.fixture(scope="class")
    def corpus_schema(self):
        return plan_schema()

    @pytest.mark.parametrize("entry", PLAN_CORPUS, ids=lambda e: e.name)
    def test_rendering_matches_golden(self, entry, corpus_schema):
        cert = certify_plan_entry(entry, schema=corpus_schema)
        assert tuple(cert.rendering) == entry.golden

    @pytest.mark.parametrize("entry", PLAN_CORPUS, ids=lambda e: e.name)
    def test_rules_match(self, entry, corpus_schema):
        cert = certify_plan_entry(entry, schema=corpus_schema)
        got = tuple(sorted({f.rule for f in cert.findings
                            if f.rule != "RQL110"}))
        assert got == tuple(sorted(entry.expected_rules))
        assert "RQL110" not in {f.rule for f in cert.findings}

    def test_names_are_unique(self):
        names = [e.name for e in PLAN_CORPUS]
        assert len(names) == len(set(names))

    def test_corpus_covers_statistics_rules(self):
        covered = {rule for e in PLAN_CORPUS for rule in e.expected_rules}
        assert {"RQL111", "RQL112", "RQL114"} <= covered

    def test_every_entry_pins_a_golden(self):
        assert all(e.golden for e in PLAN_CORPUS)

    def test_gate_is_clean(self):
        findings, entries = corpus_drift()
        assert entries == len(CORPUS) + len(PLAN_CORPUS)
        assert findings == []

    def test_gate_reports_drift(self, monkeypatch):
        import repro.workloads.plans as plans

        doctored = list(PLAN_CORPUS)
        doctored[0] = PlanEntry(
            name=doctored[0].name, sql=doctored[0].sql,
            stats=doctored[0].stats,
            latest_snapshot=doctored[0].latest_snapshot,
            golden=("SCAN nothing-like-this",),
            expected_rules=doctored[0].expected_rules,
        )
        monkeypatch.setattr(plans, "PLAN_CORPUS", tuple(doctored))
        findings, _ = corpus_drift()
        assert any(f.rule == "RQL110" for f in findings)
        assert all(f.severity == ERROR for f in findings
                   if f.rule == "RQL110")

    def test_gate_reports_rule_set_drift(self, monkeypatch):
        import repro.workloads.plans as plans

        entry = PLAN_CORPUS[0]
        doctored = (PlanEntry(
            name=entry.name, sql=entry.sql, stats=entry.stats,
            latest_snapshot=entry.latest_snapshot, golden=entry.golden,
            expected_rules=("RQL114",),
        ),)
        monkeypatch.setattr(plans, "PLAN_CORPUS", doctored)
        findings, entries = corpus_drift()
        assert entries == len(CORPUS) + 1
        assert [f.file for f in findings] == [f"<plans:{entry.name}>"]
        assert "verdict drift" in findings[0].message


class TestDriverSurface:
    def test_registry_has_plan_rules(self):
        for rule_id in ("RQL110", "RQL111", "RQL112", "RQL113",
                        "RQL114"):
            cls = QUERY_REGISTRY[rule_id]
            assert cls.description and cls.example and cls.fix

    @pytest.mark.parametrize("rule_id", ["RQL110", "RQL111", "RQL112",
                                         "RQL113", "RQL114"])
    def test_explain(self, rule_id):
        out = io.StringIO()
        assert lint_main(["--explain", rule_id], out=out) == 0
        assert rule_id in out.getvalue()

    def test_list_rules(self):
        out = io.StringIO()
        assert lint_main(["--list-rules"], out=out) == 0
        for rule_id in ("RQL110", "RQL113", "RQL114"):
            assert rule_id in out.getvalue()

    def test_lint_queries_includes_plan_corpus(self, tmp_path):
        out = io.StringIO()
        status = lint_main([str(tmp_path)], out=out)
        assert status == 0
        expected = len(CORPUS) + len(PLAN_CORPUS)
        assert f"{expected} corpus entries" in out.getvalue()

    def test_sarif_lists_plan_rules(self, tmp_path):
        out = io.StringIO()
        status = lint_main([str(tmp_path), "--format", "sarif"], out=out)
        assert status == 0
        payload = json.loads(out.getvalue())
        rules = {r["id"]
                 for r in payload["runs"][0]["tool"]["driver"]["rules"]}
        assert {"RQL110", "RQL111", "RQL112", "RQL113",
                "RQL114"} <= rules
