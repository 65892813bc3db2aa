"""The one lint driver: the file suffix picks the linter, and Python and
SQL findings share one report, one baseline and one SARIF run."""

import io
import json
import pathlib

import pytest

from repro.analysis import analyze_source, main

REPO = pathlib.Path(__file__).resolve().parents[2]
FIXTURES = pathlib.Path(__file__).parent / "fixtures"

BAD_SQL = (
    '-- rqlint: mechanism=CollateData name=ghost-read '
    'qs="SELECT snap_id FROM SnapIds WHERE snap_id <= 3"\n'
    "SELECT ghost FROM nowhere;\n"
)


@pytest.fixture
def mixed_tree(tmp_path):
    """A directory holding one bad .py module and one bad .sql file."""
    tree = tmp_path / "tree"
    tree.mkdir()
    (tree / "leaky.py").write_text(
        (FIXTURES / "rpl030_bad.py").read_text(encoding="utf-8"),
        encoding="utf-8")
    (tree / "queries.sql").write_text(BAD_SQL, encoding="utf-8")
    return tree


def _lint(*argv):
    out = io.StringIO()
    code = main([str(arg) for arg in argv], out=out)
    return code, out.getvalue()


def test_a_sql_file_is_linted_as_sql(tmp_path):
    code, text = _lint(REPO / "examples" / "retrospective_queries.sql",
                       "--baseline", tmp_path / "none")
    assert code == 0, text
    bad = tmp_path / "bad.sql"
    bad.write_text(BAD_SQL, encoding="utf-8")
    code, text = _lint(bad, "--format", "json",
                       "--baseline", tmp_path / "none")
    assert code == 1
    findings = json.loads(text)["findings"]
    assert {f["rule"] for f in findings} == {"RQL100"}
    assert {f["symbol"] for f in findings} == {"ghost-read"}


def test_analyze_source_dispatches_on_the_suffix():
    assert [f.rule for f in analyze_source(BAD_SQL, "q.sql")] == ["RQL100"]
    assert [f.rule for f in analyze_source(BAD_SQL, "q.py")] == ["RPL000"]


def test_one_report_holds_python_and_sql_findings(mixed_tree, tmp_path):
    code, text = _lint(mixed_tree, "--format", "json",
                       "--baseline", tmp_path / "none")
    assert code == 1
    payload = json.loads(text)
    assert payload["files_scanned"] == 2
    assert payload["corpus_entries"] > 0
    by_file = {(f["file"], f["rule"]) for f in payload["findings"]}
    assert ("leaky.py", "RPL030") in by_file
    assert ("queries.sql", "RQL100") in by_file


def test_one_baseline_silences_both_linters(mixed_tree, tmp_path):
    baseline = tmp_path / "replint.baseline"
    code, _ = _lint(mixed_tree, "--write-baseline", "--baseline", baseline)
    assert code == 0
    entries = json.loads(baseline.read_text(encoding="utf-8"))
    assert {entry.split(":")[0][:3] for entry in entries} == {"RPL", "RQL"}
    # Every entry is rule:file:symbol#hash — SQL cases hash their text.
    assert all("#" in entry for entry in entries)
    code, text = _lint(mixed_tree, "--baseline", baseline)
    assert code == 0, text
    assert "baselined" in text


def test_sarif_is_one_run_for_both_linters(mixed_tree, tmp_path):
    code, text = _lint(mixed_tree, "--format", "sarif",
                       "--baseline", tmp_path / "none")
    assert code == 1
    (run,) = json.loads(text)["runs"]
    assert run["tool"]["driver"]["name"] == "replint"
    declared = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert {"RPL000", "RPL030", "RQL104", "RQL110"} <= declared
    assert {r["ruleId"] for r in run["results"]} == {"RPL030", "RQL100"}
