"""rqlint: per-rule certification units, .sql corpus parsing, pragma
suppression, and the CLI/SARIF surface."""

import io
import json
import pathlib

import pytest

from repro.analysis import analyze_source, main as lint_main
from repro.analysis.query import QUERY_REGISTRY
from repro.errors import AggregateError
from repro.sql.certify import (
    CONCAT,
    INTERVAL_STITCH,
    MONOID,
    SERIAL_ONLY,
    STORED_ROW,
    certify_mechanism,
)
from repro.sql.semantic import StaticSchema

DDL = """
CREATE TABLE LoggedIn (l_userid TEXT, l_time TEXT, l_country TEXT);
CREATE TABLE SnapIds (snap_id INTEGER PRIMARY KEY, snap_ts TEXT,
                      snap_name TEXT);
"""

QS = ("SELECT snap_id FROM SnapIds "
      "WHERE snap_id BETWEEN 1 AND 3 ORDER BY snap_id")
QQ = "SELECT l_userid FROM LoggedIn"


def schema():
    built = StaticSchema.from_ddl(DDL)
    built.add_function("rql_workers")
    return built


def certify(mechanism="CollateData", qs=QS, qq=QQ, arg=None):
    return certify_mechanism(mechanism, qs, qq, arg=arg, schema=schema())


def rules_of(certificate):
    return sorted({f.rule for f in certificate.findings})


class TestMechanismClasses:
    def test_each_mechanism_maps_to_its_class(self):
        assert certify("CollateData").merge_class == CONCAT
        assert certify("AggregateDataInVariable",
                       qq="SELECT COUNT(*) AS n FROM LoggedIn",
                       arg="sum").merge_class == MONOID
        assert certify(
            "AggregateDataInTable",
            qq="SELECT l_country, COUNT(*) AS n FROM LoggedIn "
               "GROUP BY l_country",
            arg=[("n", "sum")]).merge_class == STORED_ROW
        assert certify("CollateDataIntoIntervals").merge_class \
            == INTERVAL_STITCH

    def test_mechanism_name_is_canonicalized(self):
        assert certify("collate_data").merge_class == CONCAT

    def test_unknown_mechanism_raises(self):
        with pytest.raises(AggregateError):
            certify("Bogus")

    def test_certificate_carries_read_set_and_bounds(self):
        certificate = certify(
            qq="SELECT l_userid FROM LoggedIn WHERE l_country = 'UK'")
        assert certificate.read_tables == ("LoggedIn",)
        assert "l_userid" in certificate.read_columns["LoggedIn"]
        assert certificate.pushable_predicates == ("l_country = 'UK'",)
        assert certificate.index_candidates == (("LoggedIn", "l_country"),)
        assert (certificate.qs_lower, certificate.qs_upper) == (1, 3)
        assert certificate.qs_range() == "[1, 3]"
        assert certificate.mergeable

    def test_summary_lines_render(self):
        lines = certify().summary_lines()
        assert lines[0] == "mechanism CollateData: merge class concat"
        assert "Qs range [1, 3]" in lines


class TestRules:
    def test_rql100_parse_error(self):
        certificate = certify(qq="SELEKT nope")
        assert any(f.rule == "RQL100" and f.severity == "error"
                   for f in certificate.findings)

    def test_rql100_qq_as_of(self):
        certificate = certify(qq="SELECT AS OF 2 l_userid FROM LoggedIn")
        assert rules_of(certificate) == ["RQL100"]
        assert certificate.merge_class == CONCAT  # hygiene, not refusal

    def test_rql100_bad_qs_shape(self):
        certificate = certify(qs="SELECT snap_id, snap_ts FROM SnapIds")
        assert "RQL100" in rules_of(certificate)

    def test_rql100_resolution_failure(self):
        certificate = certify(qq="SELECT ghost FROM LoggedIn")
        assert rules_of(certificate) == ["RQL100"]

    def test_rql101_non_monoid_aggregate(self):
        certificate = certify("AggregateDataInVariable",
                              qq="SELECT COUNT(*) AS n FROM LoggedIn",
                              arg="group_concat")
        assert certificate.merge_class == SERIAL_ONLY
        assert "RQL101" in rules_of(certificate)
        assert not certificate.mergeable

    def test_rql101_avg_is_fine(self):
        certificate = certify("AggregateDataInVariable",
                              qq="SELECT COUNT(*) AS n FROM LoggedIn",
                              arg="avg")
        assert certificate.merge_class == MONOID

    def test_rql100_multi_column_variable_qq(self):
        certificate = certify("AggregateDataInVariable",
                              qq="SELECT l_userid, l_time FROM LoggedIn",
                              arg="sum")
        assert "RQL100" in rules_of(certificate)

    def test_rql102_non_mergeable_pairs(self):
        certificate = certify("AggregateDataInTable",
                              qq="SELECT l_country, COUNT(*) AS n "
                                 "FROM LoggedIn GROUP BY l_country",
                              arg=[("n", "group_concat")])
        assert certificate.merge_class == SERIAL_ONLY
        assert "RQL102" in rules_of(certificate)

    def test_rql100_pair_column_not_in_qq(self):
        certificate = certify("AggregateDataInTable",
                              qq="SELECT l_country, COUNT(*) AS n "
                                 "FROM LoggedIn GROUP BY l_country",
                              arg=[("ghost", "sum")])
        assert "RQL100" in rules_of(certificate)

    def test_rql103_unbounded(self):
        certificate = certify(qs="SELECT snap_id FROM SnapIds")
        assert rules_of(certificate) == ["RQL103"]
        assert certificate.mergeable  # warning only

    def test_rql103_upper_bound_is_enough(self):
        certificate = certify(
            qs="SELECT snap_id FROM SnapIds WHERE snap_id <= 9")
        assert rules_of(certificate) == []

    def test_rql103_statically_empty(self):
        certificate = certify(
            qs="SELECT snap_id FROM SnapIds "
               "WHERE snap_id > 5 AND snap_id < 3")
        assert rules_of(certificate) == ["RQL103"]

    def test_rql104_unindexed_pushdown(self):
        certificate = certify(
            qq="SELECT l_userid FROM LoggedIn WHERE l_country = 'UK'")
        findings = [f for f in certificate.findings if f.rule == "RQL104"]
        assert len(findings) == 1
        assert "CREATE INDEX" in findings[0].hint
        assert certificate.mergeable

    def test_rql104_silenced_by_index(self):
        indexed = schema()
        indexed.add_index("li_country", "LoggedIn", ["l_country"])
        certificate = certify_mechanism(
            "CollateData", QS,
            "SELECT l_userid FROM LoggedIn WHERE l_country = 'UK'",
            schema=indexed)
        assert rules_of(certificate) == []

    def test_rql105_order_and_limit(self):
        certificate = certify(
            qq="SELECT l_userid FROM LoggedIn ORDER BY l_userid LIMIT 5")
        assert rules_of(certificate) == ["RQL105"]
        assert certificate.mergeable  # never a refusal

    def test_rql106_stateful_refuses(self):
        certificate = certify(
            qq="SELECT l_userid, rql_workers() FROM LoggedIn")
        assert certificate.merge_class == SERIAL_ONLY
        assert any(f.rule == "RQL106" and f.severity == "error"
                   for f in certificate.findings)

    def test_rql106_unknown_function_warns_only(self):
        certificate = certify(
            qq="SELECT mystery(l_userid) FROM LoggedIn")
        findings = [f for f in certificate.findings if f.rule == "RQL106"]
        assert [f.severity for f in findings] == ["warning"]
        assert certificate.merge_class == CONCAT

    def test_current_snapshot_is_whitelisted(self):
        certificate = certify(
            qq="SELECT l_userid, current_snapshot() FROM LoggedIn")
        assert rules_of(certificate) == []


CORPUS_SQL = DDL + """
-- rqlint: mechanism=CollateData name=roster qs="SELECT snap_id FROM SnapIds WHERE snap_id <= 3"
SELECT l_userid FROM LoggedIn WHERE l_country = 'UK';

-- rqlint: mechanism=AggregateDataInVariable name=peak arg="max" qs="SELECT snap_id FROM SnapIds"
SELECT COUNT(*) AS online FROM LoggedIn;
"""


class TestSqlCorpus:
    def test_cases_certify_with_file_schema(self):
        findings = analyze_source(CORPUS_SQL, "corpus.sql")
        assert {f.rule for f in findings} == {"RQL103", "RQL104"}
        by_rule = {f.rule: f for f in findings}
        assert by_rule["RQL104"].symbol == "roster"
        assert by_rule["RQL103"].symbol == "peak"

    def test_findings_anchor_to_case_lines(self):
        findings = analyze_source(CORPUS_SQL, "corpus.sql")
        lines = CORPUS_SQL.splitlines()
        for finding in findings:
            assert "mechanism=" in lines[finding.line - 2]

    def test_ignore_pragma_suppresses_case(self):
        source = CORPUS_SQL.replace(
            "SELECT COUNT(*) AS online FROM LoggedIn;",
            "-- rqlint: ignore[RQL103] -- audits walk all history\n"
            "SELECT COUNT(*) AS online FROM LoggedIn;")
        findings = analyze_source(source, "corpus.sql")
        assert {f.rule for f in findings} == {"RQL104"}

    def test_alias_pragmas_expand(self):
        source = DDL + """
-- rqlint: mechanism=AggregateDataInVariable arg="group_concat" qs="SELECT snap_id FROM SnapIds WHERE snap_id <= 3"
-- rqlint: mergeclass-exempt -- legacy, runs serially
SELECT l_userid FROM LoggedIn ORDER BY l_userid;
"""
        findings = analyze_source(source, "corpus.sql")
        assert findings == []  # RQL101 + RQL105 both covered

    def test_query_exempt_covers_everything(self):
        source = DDL + """
-- rqlint: query-exempt -- quarantined legacy corpus
-- rqlint: mechanism=CollateData qs="SELECT snap_id FROM SnapIds"
SELECT ghost FROM LoggedIn ORDER BY ghost;
"""
        assert analyze_source(source, "corpus.sql") == []

    def test_unjustified_pragma_is_an_error(self):
        source = DDL + """
-- rqlint: mechanism=CollateData qs="SELECT snap_id FROM SnapIds WHERE snap_id <= 3"
-- rqlint: ignore[RQL104]
SELECT l_userid FROM LoggedIn WHERE l_country = 'UK';
"""
        findings = analyze_source(source, "corpus.sql")
        # Pragma hygiene is one rule, RPL000, in SQL as in Python.
        assert any(f.rule == "RPL000" and "justification" in f.message
                   for f in findings)
        # The unjustified pragma must NOT suppress.
        assert any(f.rule == "RQL104" for f in findings)

    def test_unrecognized_pragma_is_an_error(self):
        source = "-- rqlint: frobnicate -- because\n"
        findings = analyze_source(source, "corpus.sql")
        assert [f.rule for f in findings] == ["RPL000"]

    def test_directive_missing_qs_is_an_error(self):
        source = DDL + """
-- rqlint: mechanism=CollateData
SELECT l_userid FROM LoggedIn;
"""
        findings = analyze_source(source, "corpus.sql")
        assert any("missing qs" in f.message for f in findings)

    def test_case_without_qq_is_an_error(self):
        source = DDL + (
            '-- rqlint: mechanism=CollateData '
            'qs="SELECT snap_id FROM SnapIds WHERE snap_id <= 3"\n')
        findings = analyze_source(source, "corpus.sql")
        assert any("has no Qq text" in f.message for f in findings)

    def test_pair_list_arg_parses(self):
        source = DDL + """
-- rqlint: mechanism=AggregateDataInTable arg="online:sum" qs="SELECT snap_id FROM SnapIds WHERE snap_id <= 3"
SELECT l_country, COUNT(*) AS online FROM LoggedIn GROUP BY l_country;
"""
        assert analyze_source(source, "corpus.sql") == []


class TestCli:
    def test_lint_queries_over_examples(self):
        repo = pathlib.Path(__file__).resolve().parents[2]
        out = io.StringIO()
        code = lint_main(
            [str(repo / "examples" / "retrospective_queries.sql"),
             "--baseline", str(repo / "does-not-exist.baseline")], out=out)
        assert code == 0, out.getvalue()
        assert "replint: 1 files" in out.getvalue()
        assert "0 errors" in out.getvalue()

    def test_exit_one_on_errors(self, tmp_path):
        bad = tmp_path / "bad.sql"
        bad.write_text(
            '-- rqlint: mechanism=CollateData '
            'qs="SELECT snap_id FROM SnapIds WHERE snap_id <= 3"\n'
            "SELECT ghost FROM nowhere;\n")
        out = io.StringIO()
        code = lint_main(
            [str(bad), "--baseline", str(tmp_path / "none")], out=out)
        assert code == 1
        assert "RQL100" in out.getvalue()

    def test_json_output(self, tmp_path):
        bad = tmp_path / "bad.sql"
        bad.write_text(
            '-- rqlint: mechanism=CollateData '
            'qs="SELECT snap_id FROM SnapIds"\n'
            "SELECT snap_name FROM SnapIds;\n")
        out = io.StringIO()
        lint_main([str(bad), "--format", "json",
                   "--baseline", str(tmp_path / "none")], out=out)
        payload = json.loads(out.getvalue())
        assert {f["rule"] for f in payload["findings"]} == {"RQL103"}

    def test_sarif_one_driver_lists_query_rules(self, tmp_path):
        out = io.StringIO()
        code = lint_main(
            [str(tmp_path), "--format", "sarif",
             "--baseline", str(tmp_path / "none")], out=out)
        assert code == 0
        log = json.loads(out.getvalue())
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "replint"
        rule_ids = {r["id"] for r in driver["rules"]}
        assert {"RQL100", "RQL104", "RQL106"} <= rule_ids

    def test_replint_sarif_unchanged(self, tmp_path):
        """Folding the query rules in must not disturb the Python
        findings' rendering."""
        fixture = (pathlib.Path(__file__).parent / "fixtures"
                   / "rpl030_bad.py")
        out = io.StringIO()
        lint_main([str(fixture), "--format", "sarif",
                   "--baseline", str(tmp_path / "none")], out=out)
        log = json.loads(out.getvalue())
        assert log["runs"][0]["tool"]["driver"]["name"] == "replint"
        result = log["runs"][0]["results"][0]
        assert "replintKey/v2" in result["partialFingerprints"]

    def test_baseline_round_trip(self, tmp_path):
        bad = tmp_path / "bad.sql"
        bad.write_text(
            '-- rqlint: mechanism=CollateData '
            'qs="SELECT snap_id FROM SnapIds WHERE snap_id <= 3"\n'
            "SELECT ghost FROM nowhere;\n")
        baseline = tmp_path / "replint.baseline"
        out = io.StringIO()
        assert lint_main(
            [str(bad), "--write-baseline",
             "--baseline", str(baseline)], out=out) == 0
        out = io.StringIO()
        code = lint_main([str(bad), "--baseline", str(baseline)], out=out)
        assert code == 0
        assert "baselined" in out.getvalue()

    def test_missing_path_is_usage_error(self, tmp_path):
        out = io.StringIO()
        assert lint_main(
            [str(tmp_path / "ghost.sql")], out=out) == 2

    def test_explain_rql_rule(self):
        out = io.StringIO()
        assert lint_main(["--explain", "rql104"], out=out) == 0
        text = out.getvalue()
        assert "RQL104 — unindexed-pushdown" in text
        assert "example:" in text and "fix:" in text

    def test_explain_unknown_rule_exits_two(self):
        out = io.StringIO()
        assert lint_main(["--explain", "RQL999"], out=out) == 2

    def test_list_rules_includes_query_rules(self):
        out = io.StringIO()
        lint_main(["--list-rules"], out=out)
        text = out.getvalue()
        for rule_id in QUERY_REGISTRY:
            assert rule_id in text
        assert "RPL030" in text  # replint rules still listed
