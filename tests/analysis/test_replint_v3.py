"""replint v3 gates: the escape layer over the real tree.

Three contracts beyond the fixture corpus:

* the ``--graph latches`` inventory reflects every latch the codebase
  assigns (not just latches that already participate in an ordering
  edge) — this is what keeps the RPL011 order graph honest as latches
  are added;
* the escape analysis roots the worker region at the threads the
  server starts, and nowhere in the executor, which starts none;
* the real ``core/parallel.py`` and ``storage/logfile.py`` lint clean
  on their own;
* a worker-shared container mutated through a method call
  (``self._active.pop(...)``) is a write RPL020 guards like an
  assignment.
"""

import json

import pytest

from repro.analysis.driver import (
    analyze_source,
    package_root,
    _rule_descriptions,
)
from repro.analysis.findings import AnalysisReport
from repro.analysis.sarif import render_sarif

SRC = package_root()


@pytest.fixture(scope="module")
def tree_program(tree_analysis):
    return tree_analysis.program


# -- latch-graph inventory ----------------------------------------------------

EXPECTED_LATCHES = {
    "BufferPool._latch",
    "ChaosController._latch",
    "DeviceStats._latch",
    "Pager._latch",
    "QueryScheduler._latch",
    "RQLServer._latch",
    "RetroManager._spt_latch",
    "SessionRegistry._latch",
    "SharedStore._latch",
    "SnapshotPageCache._latch",
    "VersionStore._latch",
    "WireServer._latch",
    "WriteAheadLog._latch",
    "WriteGate._cond",
}


def test_latch_graph_lists_every_assigned_latch(tree_program):
    dot = tree_program.latch_graph_dot()
    nodes = {
        line.strip().strip(';').strip('"')
        for line in dot.splitlines()
        if line.startswith('  "') and line.endswith('";')
    }
    missing = EXPECTED_LATCHES - nodes
    assert not missing, f"latch graph misses {sorted(missing)}"


def test_worker_region_starts_at_the_server_roots(tree_program):
    effects = tree_program.effects
    roots = {r.qualname for r in effects.thread_roots}
    assert {
        "server/scheduler.py::QueryScheduler._run",
        "server/wire.py::WireServer._accept_loop",
        "server/wire.py::WireServer._serve_connection",
    } <= roots
    # A run steps its partitions on the thread that called it.
    assert not any(root.startswith("core/") for root in roots)
    region = effects.worker_region
    assert "server/scheduler.py::QueryScheduler.submit.work" in region
    assert "server/wire.py::WireServer._dispatch" in region
    assert "core/folds.py::fold_range" not in region
    assert "server/scheduler.py::QueryScheduler" in effects.shared_classes
    assert not any(c.startswith("core/") for c in effects.shared_classes)


# -- real modules, solo ----------------------------------------------------------


def _real_source(relpath: str) -> str:
    return (SRC / relpath).read_text(encoding="utf-8")


def test_parallel_module_is_clean_solo():
    assert analyze_source(_real_source("core/parallel.py"),
                          "core/parallel.py") == []


def test_logfile_module_is_clean_solo():
    assert analyze_source(_real_source("storage/logfile.py"),
                          "storage/logfile.py") == []


def test_dropped_scheduler_latch_around_a_pop_is_caught():
    source = _real_source("server/scheduler.py")
    latched = ("            with self._latch:\n"
               "                self._active.pop(ticket.id, None)\n")
    assert source.count(latched) == 1
    mutant = source.replace(latched, latched.replace(
        "with self._latch:", "if True:"))
    assert analyze_source(source, "server/scheduler.py") == []
    findings = analyze_source(mutant, "server/scheduler.py")
    assert [(f.rule, f.symbol) for f in findings] \
        == [("RPL020", "QueryScheduler._run")]
    assert "QueryScheduler._active" in findings[0].message


# -- SARIF round-trip ---------------------------------------------------------

FIXTURE_SCOPES = (
    ("rpl011_bad.py", "storage/latch_fixture.py"),
    ("rpl020_bad.py", "core/parallel_fixture.py"),
    ("rpl031_bad.py", "core/counter_fixture.py"),
)


def test_sarif_round_trip_covers_rules_regions_and_suppressions(tmp_path):
    import pathlib
    fixtures = pathlib.Path(__file__).parent / "fixtures"
    report = AnalysisReport()
    for name, scope in FIXTURE_SCOPES:
        source = (fixtures / name).read_text(encoding="utf-8")
        report.findings.extend(analyze_source(source, scope))
    report.findings.sort()
    # Move one finding into the baseline to exercise suppressions.
    report.baselined.append(report.findings.pop())
    rules_seen = {f.rule for f in report.findings} \
        | {f.rule for f in report.baselined}
    assert len(rules_seen) >= 3

    log = json.loads(render_sarif(report, _rule_descriptions()))
    assert log["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in log["$schema"]
    (run,) = log["runs"]
    declared = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert rules_seen <= declared
    results = run["results"]
    assert len(results) == len(report.findings) + len(report.baselined)
    for result in results:
        assert result["ruleId"] in declared
        (location,) = result["locations"]
        region = location["physicalLocation"]["region"]
        assert region["startLine"] >= 1
        uri = location["physicalLocation"]["artifactLocation"]["uri"]
        assert uri.endswith("_fixture.py")
        assert result["partialFingerprints"]["replintKey/v2"]
    # Exactly the baselined tail carries an external suppression.
    suppressed = [r for r in results if "suppressions" in r]
    assert len(suppressed) == 1
    (suppression,) = suppressed[0]["suppressions"]
    assert suppression["kind"] == "external"
    assert suppression["justification"]
