"""Fixture-corpus contract: every rule fires on its known-bad fixture
and stays silent on the known-good one.

The fixtures under ``fixtures/`` are analyzed as source text with an
explicit package-relative path, so scoped rules (RPL003 in ``storage/``,
RPL005 in ``core/``/``retro/``) see the layer they police.  The RPL011,
RPL012 and RPL030 fixtures contain cross-function cases whose evidence spans a
caller and a callee; the ``*_caller_only`` tests prove that the flagged
function is innocent-looking on its own — the finding exists only
because the dataflow engine sees the callee too.
"""

import pathlib

import pytest

from repro.analysis import analyze_source

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: rule -> the package-relative path its fixtures are analyzed under
SCOPES = {
    "RPL002": "sql/errors_fixture.py",
    "RPL003": "storage/engine_fixture.py",
    "RPL004": "core/aggregates_fixture.py",
    "RPL005": "core/retroquery_fixture.py",
    "RPL011": "storage/latch_fixture.py",
    "RPL012": "retro/taint_fixture.py",
    "RPL020": "core/parallel_fixture.py",
    "RPL021": "core/executor_fixture.py",
    "RPL022": "storage/logfile_fixture.py",
    "RPL023": "core/merges_fixture.py",
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


def test_wal_findings_anchor_to_the_flush_calls():
    findings = run_fixture("RPL003", "bad")
    assert {f.line for f in findings} == {12, 13}
    assert all(f.symbol == "Engine.commit" for f in findings)


def test_monoid_findings_cover_every_leg():
    messages = " | ".join(f.message for f in run_fixture("RPL004", "bad"))
    assert "does not implement merge()" in messages      # stub in SumState
    assert "does not implement result()" in messages     # missing in MaxState
    assert "name attribute is 'maximum'" in messages     # key/name mismatch
    assert "'avg' has no factory" in messages            # unregistered monoid
    assert "'max' is not handled in binary_op()" in messages
    assert "'avg' is not handled in identity_element()" in messages


def test_snapshot_literals_found_in_both_forms():
    findings = run_fixture("RPL005", "bad")
    assert len(findings) == 2
    assert {f.message for f in findings} == {
        "raw int literal 3 passed as as_of",
        "raw int literal 7 passed as snapshot_id",
    }


def test_scoped_rules_stay_quiet_outside_their_layer():
    # The same bad sources are fine when they live outside the scoped
    # layers: workloads/ may flush without a WAL and use literal ids.
    for rule in ("RPL003", "RPL005"):
        source = (FIXTURES / f"{rule.lower()}_bad.py").read_text(
            encoding="utf-8")
        assert analyze_source(source, "workloads/fixture.py") == []


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


# -- RPL012: snapshot-epoch taint --------------------------------------------


def test_taint_findings_name_source_and_sink():
    findings = run_fixture("RPL012", "bad")
    by_symbol = {f.symbol: f.message for f in findings}
    assert "snapshot" in by_symbol["backfill"]
    assert "put_raw" in by_symbol["clobber"]


RPL012_CALLER_ONLY = (
    "def backfill(engine, pager, snapshot_id, ctx):\n"
    "    snap = engine.snapshot_source(snapshot_id, ctx)\n"
    "    page = snap.fetch(7)\n"
    "    copy_into_current(pager, page)\n"
)


def test_rpl012_cross_function_case_needs_the_callee():
    # backfill names no mutation sink itself; the flow is only visible
    # through copy_into_current's sink-parameter summary.
    assert analyze_source(RPL012_CALLER_ONLY, SCOPES["RPL012"]) == []
    full = run_fixture("RPL012", "bad")
    assert any(f.symbol == "backfill" for f in full)


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


# -- RPL021: blocking under latch ---------------------------------------------


def test_blocking_findings_split_local_and_entry_context():
    findings = run_fixture("RPL021", "bad")
    by_symbol = {f.symbol: f for f in findings}
    # stop() takes the latch in the same frame.
    assert "held here" in by_symbol["Sweeper.stop"].message
    # drain() holds nothing itself: the latch arrives with the workers.
    assert "held by a caller" in by_symbol["Sweeper.drain"].message
    assert "Sweeper._latch" in by_symbol["Sweeper.drain"].message


RPL021_CALLEE_ONLY = (
    "import threading\n"
    "\n"
    "\n"
    "class Sweeper:\n"
    "    def __init__(self):\n"
    "        self._latch = threading.Lock()\n"
    "        self.cancel = threading.Event()\n"
    "        self.pending = []\n"
    "\n"
    "    def drain(self):\n"
    "        while not self.cancel.is_set():\n"
    "            if not self.pending:\n"
    "                return\n"
)


def test_rpl021_cross_function_case_needs_the_entry_context():
    # drain holds no latch of its own; only the worker entry context
    # (body calls it under self._latch) makes the cancel poll a risk.
    assert analyze_source(RPL021_CALLEE_ONLY, SCOPES["RPL021"]) == []
    full = run_fixture("RPL021", "bad")
    assert any(f.symbol == "Sweeper.drain" for f in full)


# -- RPL022: durable-surface writes ------------------------------------------


def test_durable_findings_name_surface_and_api():
    findings = run_fixture("RPL022", "bad")
    by_symbol = {f.symbol: f for f in findings}
    assert "raw append" in by_symbol["BlockLogWriter.flush_header"].message
    assert "raw seek" in by_symbol["BlockLogWriter.rewind"].message
    assert "BlockLogWriter._file" \
        in by_symbol["BlockLogWriter.flush_header"].message
    assert all("seal_block" in f.hint for f in findings)


RPL022_CALLER_ONLY = (
    "def write_trailer(writer):\n"
    "    blob = b\"end-of-log\"\n"
    "    writer.flush(blob)\n"
)


def test_rpl022_cross_function_case_needs_the_sink_summary():
    # The caller alone pushes bytes into an unknown flush(); only the
    # durable-sink-parameter summary of BlockLogWriter.flush makes the
    # unsealed local a finding — and it lands in the caller.
    assert analyze_source(RPL022_CALLER_ONLY, SCOPES["RPL022"]) == []
    full = run_fixture("RPL022", "bad")
    assert any(f.symbol == "write_trailer" for f in full)


# -- RPL023: merge purity -----------------------------------------------------


def test_merge_purity_covers_inputs_and_side_effects():
    findings = run_fixture("RPL023", "bad")
    by_symbol = {f.symbol: f.message for f in findings}
    assert "mutates its input 'other'" \
        in by_symbol["CrossSnapshotAggregate.merge"]
    assert "side effect" in by_symbol["CountingAggregate.merge"]
    assert "Session" in by_symbol["CountingAggregate.merge"]


RPL023_CALLER_ONLY = (
    "class CrossSnapshotAggregate:\n"
    "    def __init__(self):\n"
    "        self.total = 0\n"
    "\n"
    "\n"
    "class CountingAggregate(CrossSnapshotAggregate):\n"
    "    def merge(self, other):\n"
    "        bump(self.session)\n"
    "        self.total += other.total\n"
    "        return self\n"
)


def test_rpl023_cross_function_case_needs_the_callee():
    # merge itself only folds into self; the session mutation is only
    # visible through bump's translated mutates-params summary.
    assert analyze_source(RPL023_CALLER_ONLY, SCOPES["RPL023"]) == []
    full = run_fixture("RPL023", "bad")
    assert any(f.symbol == "CountingAggregate.merge" for f in full)
