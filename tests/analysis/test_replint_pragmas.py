"""Pragma and baseline escape hatches: suppression must be explicit,
justified, and keyed stably."""

import pytest

from repro.analysis import analyze_source
from repro.analysis.findings import (
    Finding,
    load_baseline,
    save_baseline,
)
from repro.errors import AnalysisError, ReproError

LEAKY = (
    "def peek(versions, ts):\n"
    "    reader = versions.register_reader(ts){pragma}\n"
    "    return reader.begin_ts\n"
)


def test_justified_inline_pragma_suppresses():
    source = LEAKY.format(
        pragma="  # replint: ignore[RPL030] -- reaped by the session close")
    assert analyze_source(source, "sql/x.py") == []


def test_unjustified_pragma_is_itself_a_finding():
    source = LEAKY.format(pragma="  # replint: ignore[RPL030]")
    rules = sorted(f.rule for f in analyze_source(source, "sql/x.py"))
    # The suppression does not take effect AND the pragma is flagged.
    assert rules == ["RPL000", "RPL030"]


def test_unknown_pragma_directive_is_flagged():
    source = "x = 1  # replint: snooze-everything -- please\n"
    findings = analyze_source(source, "sql/x.py")
    assert [f.rule for f in findings] == ["RPL000"]
    assert "unrecognized" in findings[0].message


def test_named_alias_on_def_line_exempts_the_function():
    source = (
        "def peek(versions, ts):  # replint: typestate-exempt -- reaped\n"
        "    reader = versions.register_reader(ts)\n"
        "    return reader.begin_ts\n"
    )
    assert analyze_source(source, "sql/x.py") == []


def test_lifecycle_alias_exempts_the_function():
    source = LEAKY.format(
        pragma="  # replint: typestate-exempt -- reaped by the caller map")
    assert analyze_source(source, "sql/x.py") == []


def test_pragma_text_inside_a_docstring_is_inert():
    source = (
        '"""Docs may mention # replint: typestate-exempt unjustified."""\n'
        "x = 1\n"
    )
    assert analyze_source(source, "sql/x.py") == []


def test_pragma_only_covers_the_named_rule():
    source = LEAKY.format(
        pragma="  # replint: ignore[RPL011] -- wrong rule entirely")
    assert [f.rule for f in analyze_source(source, "sql/x.py")] == ["RPL030"]


#: pragmas of the rules the runtime suites made redundant: each rule went
#: with its alias, and no shim maps either onto a surviving rule
DELETED_RULE_PRAGMAS = (
    "ignore[RPL003]", "ignore[RPL004]", "ignore[RPL005]", "ignore[RPL012]",
    "ignore[RPL021]", "ignore[RPL022]", "ignore[RPL023]",
    "wal-exempt", "monoid-exempt", "snapid-exempt", "taint-exempt",
    "blocking-exempt", "durable-exempt", "purity-exempt",
)


@pytest.mark.parametrize("directive", DELETED_RULE_PRAGMAS)
def test_a_deleted_rule_or_alias_is_an_rpl000_finding(directive):
    source = f"x = 1  # replint: {directive} -- kept from an old run\n"
    findings = analyze_source(source, "storage/x.py")
    assert [f.rule for f in findings] == ["RPL000"]
    assert findings[0].line == 1
    if directive.startswith("ignore["):
        assert findings[0].message == \
            f"pragma names unknown rule {directive[7:-1]}"
    else:
        assert findings[0].message == "unrecognized pragma"


def test_a_deleted_rule_in_a_sql_pragma_is_an_rpl000_finding():
    source = (
        "-- rqlint: ignore[RPL021] -- kept from an old run\n"
        "SELECT 1;\n"
    )
    findings = analyze_source(source, "q.sql")
    assert [(f.rule, f.message) for f in findings] == [
        ("RPL000", "pragma names unknown rule RPL021")]


def test_syntax_error_reports_as_rpl000():
    findings = analyze_source("def broken(:\n", "sql/x.py")
    assert [f.rule for f in findings] == ["RPL000"]
    assert "syntax error" in findings[0].message


# -- baselines --------------------------------------------------------------


def _finding(symbol="peek", content_hash=""):
    return Finding(file="sql/x.py", line=2, rule="RPL030",
                   severity="error", message="m", symbol=symbol,
                   content_hash=content_hash)


def test_baseline_round_trip(tmp_path):
    path = tmp_path / "replint.baseline"
    save_baseline(path, [_finding(), _finding()])
    assert load_baseline(path) == {"RPL030:sql/x.py:peek"}


def test_baseline_key_ignores_line_numbers():
    early = _finding()
    late = Finding(file="sql/x.py", line=99, rule="RPL030",
                   severity="error", message="m", symbol="peek")
    assert early.baseline_key == late.baseline_key


def test_hashed_key_appends_the_content_hash():
    hashed = _finding(content_hash="abc123")
    assert hashed.hashed_key == "RPL030:sql/x.py:peek#abc123"
    assert hashed.baseline_key == "RPL030:sql/x.py:peek"
    # A finding without a hash degrades to the v1 key.
    assert _finding().hashed_key == _finding().baseline_key


def test_matches_accepts_v2_and_v1_entries():
    finding = _finding(content_hash="abc123")
    assert finding.matches({"RPL030:sql/x.py:peek#abc123"})   # v2
    assert finding.matches({"RPL030:sql/x.py:peek"})          # v1 compat
    # A v2 entry with a different hash is an *expired* baseline entry.
    assert not finding.matches({"RPL030:sql/x.py:peek#000000"})


def test_real_findings_carry_a_function_hash():
    findings = analyze_source(LEAKY.format(pragma=""), "sql/x.py")
    (finding,) = findings
    assert finding.content_hash and len(finding.content_hash) == 12
    assert finding.hashed_key.endswith(f"#{finding.content_hash}")


def test_content_hash_is_line_stable_but_edit_sensitive():
    base = LEAKY.format(pragma="")
    (before,) = analyze_source(base, "sql/x.py")
    # Unrelated code above shifts every line: the hash must not move.
    (shifted,) = analyze_source("x = 1\n\n\n" + base, "sql/x.py")
    assert shifted.line != before.line
    assert shifted.content_hash == before.content_hash
    # Editing the flagged function itself expires the hash.
    (edited,) = analyze_source(
        base.replace("reader.begin_ts", "reader.begin_ts + 1"), "sql/x.py")
    assert edited.content_hash != before.content_hash


def test_missing_baseline_is_empty():
    from pathlib import Path

    assert load_baseline(Path("/nonexistent/replint.baseline")) == set()


def test_malformed_baseline_raises_analysis_error(tmp_path):
    path = tmp_path / "replint.baseline"
    path.write_text('{"not": "a list"}', encoding="utf-8")
    with pytest.raises(AnalysisError):
        load_baseline(path)
    # Catchable at the taxonomy root, like every repro failure.
    with pytest.raises(ReproError):
        load_baseline(path)


def test_baselined_findings_do_not_fail_the_run(tmp_path):
    from repro.analysis import analyze_paths

    bad = tmp_path / "leaky.py"
    bad.write_text(LEAKY.format(pragma=""), encoding="utf-8")
    report = analyze_paths([bad])
    assert not report.ok and len(report.errors) == 1

    baseline = {f.hashed_key for f in report.findings}
    accepted = analyze_paths([bad], baseline)
    assert accepted.ok
    assert not accepted.findings
    assert [f.rule for f in accepted.baselined] == ["RPL030"]


def test_typestate_alias_suppresses_rpl030():
    source = (
        "def settle(engine):\n"
        "    txn = engine.begin()\n"
        "    engine.commit(txn)\n"
        "    engine.rollback(txn)"
        "  # replint: typestate-exempt -- exercising the error path\n"
    )
    assert analyze_source(source, "core/x.py") == []


def test_confinement_alias_suppresses_rpl033():
    source = (
        "import threading\n"
        "\n"
        "def fan_out(engine, consume):\n"
        "    ctx = engine.begin_read()\n"
        "\n"
        "    def worker():\n"
        "        consume(engine.read_source(ctx))\n"
        "\n"
        "    t = threading.Thread(target=worker)"
        "  # replint: confinement-exempt -- worker joins before close\n"
        "    t.start()\n"
        "    t.join()\n"
        "    ctx.close()\n"
    )
    assert analyze_source(source, "core/x.py") == []
