"""replint v3 gates: escape/durability layer over the real tree.

Four contracts beyond the fixture corpus:

* the ``--graph latches`` inventory reflects every latch the codebase
  assigns (not just latches that already participate in an ordering
  edge) — this is what keeps the RPL011 order graph honest as latches
  are added;
* the escape analysis really connects the parallel executor's thread
  root to the code workers run;
* seeded mutants — deleting the ``_ErrorBoard`` latch acquire in
  ``core/parallel.py``, replacing the checksummed block append in
  ``storage/logfile.py`` with a raw append — are each caught by the
  matching rule;
* the summary disk cache invalidates on an analysis-version bump and
  on payloads missing the v3 summary fields, not only on source digest.
"""

import json
import subprocess
import textwrap

import pytest

from repro.analysis.dataflow.program import ANALYSIS_VERSION, Program
from repro.analysis.driver import (
    analyze_paths,
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
    "_ErrorBoard._latch",
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


def test_worker_region_reaches_the_executor_internals(tree_program):
    effects = tree_program.effects
    roots = {r.qualname for r in effects.thread_roots}
    assert "core/parallel.py::ParallelExecutor._run_partitions.body" \
        in roots
    region = effects.worker_region
    # Closure-typed receivers are in ...
    assert "core/parallel.py::_ErrorBoard.record" in region
    # ... and through the worker body, the one snapshot loop and every
    # fold class's step.
    assert "core/folds.py::fold_range" in region
    for fold in ("Fold", "ConcatFold", "MonoidFold", "StoredRowFold",
                 "IntervalFold"):
        assert f"core/folds.py::{fold}.step" in region
    # The error board counts as shared; the per-worker payload handed
    # to each thread (annotated ``partial: _Partial``) does not.
    assert "core/parallel.py::_ErrorBoard" in effects.shared_classes
    assert all(not c.endswith("::_Partial")
               for c in effects.shared_classes)


# -- seeded mutants -----------------------------------------------------------


def _real_source(relpath: str) -> str:
    return (SRC / relpath).read_text(encoding="utf-8")


def test_parallel_module_is_clean_solo():
    assert analyze_source(_real_source("core/parallel.py"),
                          "core/parallel.py") == []


def test_dropped_error_board_latch_is_caught():
    source = _real_source("core/parallel.py")
    mutated = source.replace(
        "    def record(self, index: int, error: BaseException) -> None:\n"
        "        with self._latch:\n"
        "            if index < self._index:\n"
        "                self._index = index\n"
        "                self._error = error\n",
        "    def record(self, index: int, error: BaseException) -> None:\n"
        "        if index < self._index:\n"
        "            self._index = index\n"
        "            self._error = error\n",
    )
    assert mutated != source, "mutation target moved; update the test"
    findings = analyze_source(mutated, "core/parallel.py")
    assert findings, "dropping the error-board latch went unnoticed"
    assert {f.rule for f in findings} == {"RPL020"}
    assert all("_ErrorBoard" in f.message for f in findings)


def test_fold_merge_that_mutates_later_is_caught():
    source = _real_source("core/folds.py")
    assert analyze_source(source, "core/folds.py") == []
    mutated = source.replace(
        "        self.rows.extend(later.rows)\n",
        "        self.rows.extend(later.rows)\n"
        "        later.rows.append(())\n",
    )
    assert mutated != source, "mutation target moved; update the test"
    findings = analyze_source(mutated, "core/folds.py")
    assert {f.rule for f in findings} == {"RPL023"}
    assert all("ConcatFold.merge" == f.symbol and "'later'" in f.message
               for f in findings)


def test_logfile_module_is_clean_solo():
    assert analyze_source(_real_source("storage/logfile.py"),
                          "storage/logfile.py") == []


def test_raw_block_append_is_caught():
    source = _real_source("storage/logfile.py")
    mutated = source.replace(
        "checksums.seal_block(bytes(self._buffer[:capacity]))",
        "bytes(self._buffer[:capacity])",
    )
    assert mutated != source, "mutation target moved; update the test"
    findings = analyze_source(mutated, "storage/logfile.py")
    assert findings, "raw append on the block log went unnoticed"
    assert {f.rule for f in findings} == {"RPL022"}
    assert all("BlockLogWriter._file" in f.message for f in findings)


# -- SARIF round-trip ---------------------------------------------------------

FIXTURE_SCOPES = (
    ("rpl020_bad.py", "core/parallel_fixture.py"),
    ("rpl021_bad.py", "core/executor_fixture.py"),
    ("rpl022_bad.py", "storage/logfile_fixture.py"),
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


# -- summary-cache versioning -------------------------------------------------

CACHE_MODULE = textwrap.dedent(
    """
    def helper(x):
        return x + 1

    def caller(x):
        return helper(x)
    """
)


def _program(cache_dir):
    from repro.analysis.context import ModuleContext

    ctx = ModuleContext.from_source(CACHE_MODULE, "core/cachemod.py")
    return Program({"core/cachemod.py": ctx}, cache_dir=cache_dir)


def test_cache_round_trip_hits(tmp_path):
    first = _program(tmp_path)
    assert not first.cache_hit
    second = _program(tmp_path)
    assert second.cache_hit
    assert second.summaries.keys() == first.summaries.keys()


def test_cache_rejects_older_analysis_version(tmp_path):
    first = _program(tmp_path)
    path = first._cache_path(tmp_path)
    payload = json.loads(path.read_text())
    # A payload written by the previous analysis version at the SAME
    # digest path must be treated as a miss, not deserialized.
    payload["version"] = ANALYSIS_VERSION - 1
    path.write_text(json.dumps(payload))
    again = _program(tmp_path)
    assert not again.cache_hit


def test_cache_rejects_payload_missing_v3_fields(tmp_path):
    first = _program(tmp_path)
    path = first._cache_path(tmp_path)
    payload = json.loads(path.read_text())
    for entry in payload["summaries"]:
        # A PR-2-era summary: right version stamp (say, a hand-rolled
        # or corrupted artifact), missing the escape/effect fields.
        entry.pop("attr_writes", None)
        entry.pop("durable_sink_params", None)
    path.write_text(json.dumps(payload))
    again = _program(tmp_path)
    assert not again.cache_hit


def test_digest_folds_the_analysis_version(tmp_path):
    program = _program(tmp_path)
    assert f"v{ANALYSIS_VERSION}" != "v1"
    digest = program.digest()
    # Recompute by hand with the version constant to pin the contract.
    import hashlib

    hasher = hashlib.sha256()
    hasher.update(f"v{ANALYSIS_VERSION}".encode())
    for relpath in sorted(program.contexts):
        ctx = program.contexts[relpath]
        hasher.update(relpath.encode())
        hasher.update(b"\0")
        hasher.update("\n".join(ctx.lines).encode())
        hasher.update(b"\0")
    assert digest == hasher.hexdigest()


# -- lint --changed -----------------------------------------------------------

CHANGED_CLEAN = textwrap.dedent(
    """
    def stable(x):
        return x + 1
    """
)

CHANGED_DIRTY = textwrap.dedent(
    """
    import threading


    class Gate:
        def __init__(self):
            self._latch = threading.Lock()

        def stop(self, thread):
            with self._latch:
                thread.join()
    """
)


def _git(tmp_path, *args):
    subprocess.run(
        ["git", "-C", str(tmp_path), *args], check=True,
        capture_output=True,
        env={"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
             "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
             "HOME": str(tmp_path), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )


def test_changed_mode_scopes_to_the_git_diff(tmp_path):
    package = tmp_path / "core"
    package.mkdir()
    (package / "stable.py").write_text(CHANGED_CLEAN, encoding="utf-8")
    (package / "gate.py").write_text(CHANGED_CLEAN, encoding="utf-8")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-qm", "seed")

    # Nothing changed: --changed analyzes (and reports) nothing.
    report = analyze_paths([tmp_path], changed_only=True,
                           repo_dir=tmp_path)
    assert report.findings == []

    # Dirty one file with an RPL021 case: only it is reported.
    (package / "gate.py").write_text(CHANGED_DIRTY, encoding="utf-8")
    report = analyze_paths([tmp_path], changed_only=True,
                           repo_dir=tmp_path)
    assert report.findings, "--changed missed a finding in a dirty file"
    assert {f.file for f in report.findings} == {"core/gate.py"}
    assert {f.rule for f in report.findings} == {"RPL021"}

    # The same tree without --changed reports the same findings (the
    # scoped run is a subset filter, not a different analysis).
    full = analyze_paths([tmp_path])
    assert {(f.rule, f.file, f.line) for f in report.findings} \
        <= {(f.rule, f.file, f.line) for f in full.findings}
