"""Fixture-corpus contract: every rule fires on its known-bad fixture
and stays silent on the known-good one.

The fixtures under ``fixtures/`` are analyzed as source text with an
explicit package-relative path, the layer each one stands in for.  The
RPL011, RPL020 and RPL030 fixtures contain cross-function cases whose
evidence spans a caller and a callee; the ``*_caller_only`` tests prove
that the flagged function is innocent-looking on its own — the finding
exists only because the dataflow engine sees the callee too.
"""

import pathlib

import pytest

from repro.analysis import analyze_source

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: rule -> the package-relative path its fixtures are analyzed under
SCOPES = {
    "RPL002": "sql/errors_fixture.py",
    "RPL011": "storage/latch_fixture.py",
    "RPL020": "core/parallel_fixture.py",
}


def run_fixture(rule: str, flavor: str):
    source = (FIXTURES / f"{rule.lower()}_{flavor}.py").read_text(
        encoding="utf-8")
    return analyze_source(source, SCOPES[rule])


@pytest.mark.parametrize("rule", sorted(SCOPES))
def test_bad_fixture_fires(rule):
    findings = run_fixture(rule, "bad")
    assert findings, f"{rule} known-bad fixture produced no findings"
    # And nothing else fires: each fixture isolates exactly one rule.
    assert {f.rule for f in findings} == {rule}


@pytest.mark.parametrize("rule", sorted(SCOPES))
def test_good_fixture_is_clean(rule):
    assert run_fixture(rule, "good") == []


def test_swallowed_exception_is_called_out():
    messages = [f.message for f in run_fixture("RPL002", "bad")]
    assert any("swallows" in m for m in messages)
    assert any("ValueError" in m for m in messages)


# -- RPL030: lifecycle leaks (the fixture pair itself is gated in
# test_replint_v4; the test names predate the retirement of pins) ------------

LIFECYCLE_SCOPE = "core/txn_fixture.py"


def lifecycle_bad():
    source = (FIXTURES / "rpl030_bad.py").read_text(encoding="utf-8")
    return analyze_source(source, LIFECYCLE_SCOPE)


def test_pin_leak_messages_name_the_resource_and_paths():
    by_symbol = {f.symbol: f.message for f in lifecycle_bad()}
    assert "transaction" in by_symbol["bump"]
    assert "exception unwind" in by_symbol["bump"]
    assert "committed/rolled_back" in by_symbol["bump"]
    assert "read context" in by_symbol["peek"]
    assert "normal return" in by_symbol["peek"]
    assert "reader handle" in by_symbol["scan"]


LIFECYCLE_CALLER_ONLY = (
    "def count_dirty(engine):\n"
    "    txn = open_txn(engine)\n"
    "    return len(txn.dirty)\n"
)


def test_interprocedural_leak_is_flagged_in_the_caller():
    symbols = {f.symbol for f in lifecycle_bad()}
    assert "count_dirty" in symbols     # caller leaks the callee's txn
    assert "open_txn" not in symbols    # transferring ownership is fine
    # The flagged caller alone produces nothing: the begin is only
    # visible through open_txn's summary.  This is the case an
    # intraprocedural checker provably cannot catch.
    assert analyze_source(LIFECYCLE_CALLER_ONLY, LIFECYCLE_SCOPE) == []


# -- RPL011: latch ordering --------------------------------------------------


def test_latch_cycle_names_both_latches():
    findings = run_fixture("RPL011", "bad")
    assert len(findings) == 1
    (finding,) = findings
    assert "Pool._latch" in finding.message
    assert "Pager._latch" in finding.message
    assert "deadlock" in finding.message
    # The witness edges (function:line) ride along in the hint.
    assert "Pool.evict" in finding.hint
    assert "Pager.checkpoint" in finding.hint


RPL011_CALLER_ONLY = (
    "import threading\n"
    "\n"
    "\n"
    "class Pool:\n"
    "    def __init__(self):\n"
    "        self._latch = threading.Lock()\n"
    "\n"
    "    def evict(self, pager):\n"
    "        with self._latch:\n"
    "            pager.sync_meta()\n"
)


def test_rpl011_cross_function_case_needs_the_callee():
    # One class alone holds a single latch and calls an unknown method:
    # no ordering edge exists without the callee's acquires_locks
    # summary, so nothing can fire intraprocedurally.
    assert analyze_source(RPL011_CALLER_ONLY, SCOPES["RPL011"]) == []
    assert run_fixture("RPL011", "bad")


# -- RPL020: worker-escape races ----------------------------------------------


def test_worker_escape_names_class_attr_and_guard():
    findings = run_fixture("RPL020", "bad")
    assert len(findings) == 1
    (finding,) = findings
    assert finding.symbol == "Counters.note_failed"
    assert "Counters.failed" in finding.message
    assert "Counters._latch" in finding.hint
    assert "worker thread roots" in finding.hint


RPL020_WRITER_ONLY = (
    "import threading\n"
    "\n"
    "\n"
    "class Counters:\n"
    "    def __init__(self):\n"
    "        self._latch = threading.Lock()\n"
    "        self.done = 0\n"
    "        self.failed = 0\n"
    "\n"
    "    def note_done(self):\n"
    "        with self._latch:\n"
    "            self.done += 1\n"
    "\n"
    "    def note_failed(self):\n"
    "        self.failed += 1\n"
)


def _run_scheduler_fixture(flavor):
    source = (FIXTURES / f"rpl020_scheduler_{flavor}.py").read_text(
        encoding="utf-8")
    return analyze_source(source, "server/scheduler_fixture.py")


def test_scheduler_admission_queue_race_fires():
    # The server-scheduler shape: tickets admitted under the latch but
    # retired without it from dispatcher threads.
    findings = _run_scheduler_fixture("bad")
    assert {f.rule for f in findings} == {"RPL020"}
    assert any(f.symbol == "AdmissionQueue.retire"
               and "pending" in f.message for f in findings)
    assert all(f.symbol != "AdmissionQueue.admit" for f in findings)


def test_scheduler_admission_queue_clean_when_latched():
    assert _run_scheduler_fixture("good") == []


def test_rpl020_cross_function_case_needs_the_thread_root():
    # The unlatched writer alone is innocent: without the spawner the
    # escape analysis has no thread root, so Counters never becomes
    # worker-shared.  The finding exists only because the worker-region
    # closure connects Thread(target=body) to note_failed.
    assert analyze_source(RPL020_WRITER_ONLY, SCOPES["RPL020"]) == []
    assert run_fixture("RPL020", "bad")
