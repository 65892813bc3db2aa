"""replint dogfood: the shipped tree must be clean, and the CLI entry
points must report honestly."""

import io
import json
import pathlib

from repro.analysis import main
from repro.cli import main as cli_main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: rule ids the linter no longer has
RETIRED_RULES = {"RPL001", "RPL003", "RPL004", "RPL005", "RPL010",
                 "RPL012", "RPL021", "RPL022", "RPL023"}


def test_shipped_tree_is_clean_with_empty_baseline(tree_analysis):
    """The acceptance bar: zero non-baselined findings over src/repro."""
    report = tree_analysis.report(src_only=True)
    assert report.files_scanned > 50
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.findings == [], f"replint found:\n{rendered}"
    assert report.ok


def test_benchmarks_and_examples_are_clean_too(tree_analysis):
    """CI lints benchmarks/ and examples/ alongside src — keep them at
    the same bar (multi-root, exercising the relpath disambiguation)."""
    report = tree_analysis.report()
    assert report.files_scanned > 100
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.findings == [], f"replint found:\n{rendered}"


def test_cli_exit_one_on_findings(tmp_path):
    out = io.StringIO()
    bad = FIXTURES / "rpl030_bad.py"
    code = main([str(bad), "--baseline", str(tmp_path / "none")], out=out)
    assert code == 1
    assert "RPL030" in out.getvalue()
    assert "hint:" in out.getvalue()


def test_cli_exit_zero_on_clean_input(tmp_path):
    out = io.StringIO()
    good = FIXTURES / "rpl030_good.py"
    code = main([str(good), "--baseline", str(tmp_path / "none")], out=out)
    assert code == 0
    assert "0 errors" in out.getvalue()


def test_cli_json_output(tmp_path):
    out = io.StringIO()
    main([str(FIXTURES / "rpl030_bad.py"), "--format", "json",
          "--baseline", str(tmp_path / "none")], out=out)
    payload = json.loads(out.getvalue())
    assert payload["files_scanned"] == 1
    assert {f["rule"] for f in payload["findings"]} == {"RPL030"}


def test_cli_sarif_output(tmp_path):
    out = io.StringIO()
    code = main([str(FIXTURES / "rpl030_bad.py"), "--format", "sarif",
                 "--baseline", str(tmp_path / "none")], out=out)
    assert code == 1  # findings still fail the run in SARIF mode
    log = json.loads(out.getvalue())
    assert log["version"] == "2.1.0"
    (run,) = log["runs"]
    assert run["tool"]["driver"]["name"] == "replint"
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert {"RPL011", "RPL020", "RPL030"} <= rule_ids
    assert not rule_ids & RETIRED_RULES
    results = run["results"]
    assert results and all(r["ruleId"] == "RPL030" for r in results)
    for result in results:
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("rpl030_bad.py")
        assert location["region"]["startLine"] >= 1
        assert "replintKey/v2" in result["partialFingerprints"]


def test_cli_graph_dumps(tmp_path):
    out = io.StringIO()
    assert main([str(FIXTURES / "rpl011_bad.py"), "--graph",
                 "latches"], out=out) == 0
    dot = out.getvalue()
    assert dot.startswith("digraph latchorder")
    assert '"Pool._latch" -> "Pager._latch"' in dot

    out = io.StringIO()
    assert main([str(FIXTURES / "rpl030_bad.py"), "--graph",
                 "calls"], out=out) == 0
    dot = out.getvalue()
    assert dot.startswith("digraph callgraph")
    assert "open_txn" in dot


def test_cli_list_rules():
    out = io.StringIO()
    assert main(["--list-rules"], out=out) == 0
    listed = out.getvalue()
    for rule in ("RPL000", "RPL002", "RPL011", "RPL020", "RPL030",
                 "RPL031", "RPL033"):
        assert rule in listed
    # RPL001 and RPL010 are retired into RPL030 (buffer-pool pins are
    # gone, lifecycles are typestate); the rest are deleted because the
    # runtime suites catch their hazards: no rule line claims any.
    assert not any(line.split()[0] in RETIRED_RULES
                   for line in listed.splitlines())


def test_explain_answers_unknown_rule_for_every_retired_id():
    for rule in sorted(RETIRED_RULES):
        out = io.StringIO()
        assert main(["--explain", rule], out=out) == 2
        assert f"unknown rule: {rule}" in out.getvalue()


def test_cli_write_baseline_then_accept(tmp_path):
    baseline = tmp_path / "replint.baseline"
    bad = str(FIXTURES / "rpl030_bad.py")
    out = io.StringIO()
    assert main([bad, "--baseline", str(baseline),
                 "--write-baseline"], out=out) == 0
    assert baseline.exists()
    # Written entries are v2: keyed on rule:file:symbol plus a content
    # hash of the enclosing function.
    entries = json.loads(baseline.read_text(encoding="utf-8"))
    assert entries and all("#" in entry for entry in entries)
    # With the findings accepted, the same input now passes.
    out = io.StringIO()
    assert main([bad, "--baseline", str(baseline)], out=out) == 0
    assert "baselined" in out.getvalue()


def test_cli_missing_path_is_an_error(tmp_path):
    # A typo'd path must not read as "0 findings, exit 0" in CI.
    out = io.StringIO()
    code = main([str(tmp_path / "nope"), "--baseline",
                 str(tmp_path / "none")], out=out)
    assert code == 2
    assert "no such path" in out.getvalue()


def test_cli_malformed_baseline_is_a_clean_error(tmp_path):
    baseline = tmp_path / "replint.baseline"
    baseline.write_text('{"not": "a list"}', encoding="utf-8")
    out = io.StringIO()
    code = main([str(FIXTURES / "rpl030_good.py"),
                 "--baseline", str(baseline)], out=out)
    assert code == 2
    assert "JSON list of strings" in out.getvalue()


def test_repro_cli_lint_subcommand(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    assert "RPL011 lock-order" in capsys.readouterr().out


def test_repro_cli_lint_explain(capsys):
    assert cli_main(["lint", "--explain", "RPL031"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("RPL031 — check-then-act")
    assert "example:" in text
    assert "fix:" in text
