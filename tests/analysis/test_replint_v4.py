"""replint v4 gates: the protocol typestate layer (RPL030, RPL031, RPL033).

Four contracts beyond the fixture corpus:

* the typestate engine is *interprocedural* — a ``commit`` buried in a
  helper still transitions the caller's transaction — and *path-aware*
  on exception edges — a happy-path-only ``deregister_reader`` is
  flagged while the ``try/finally`` twin stays clean;
* seeded mutants over the real tree (reverting the ``begin_read``
  registration guard, dropping the bootstrap transaction's unwind-path
  rollback, opening ``Database.reading``'s read context outside its
  with-statement, reading through the Retro manager before ``recover``,
  double-arming the chaos sweep) are each caught by the matching rule;
* the summaries carry the protocol fields callers replay: the events a
  function applies to a parameter and the state of the value it returns;
* multi-root runs keep colliding relpaths apart (``__init__.py`` under
  two roots must not evict one module from the program).
"""

import io
import pathlib
import textwrap

import pytest

from repro.analysis.context import ModuleContext
from repro.analysis.dataflow.program import Program
from repro.analysis.driver import (
    _collect_contexts,
    _rule_descriptions,
    analyze_source,
    main,
    package_root,
)
from repro.analysis.protocols import SPECS

SRC = package_root()
FIXTURES = pathlib.Path(__file__).parent / "fixtures"

FIXTURE_SCOPES = {
    "rpl030": ("core/txn_fixture.py", "RPL030", 5),
    "rpl031": ("core/counter_fixture.py", "RPL031", 1),
    # The Retro recovery-order machine reports as RPL030 like every
    # other protocol spec; the fixture pair keeps its historical stem.
    "rpl032": ("retro/reread_fixture.py", "RPL030", 1),
    "rpl033": ("core/fanout_fixture.py", "RPL033", 1),
}


def _fixture(name: str):
    return (FIXTURES / name).read_text(encoding="utf-8")


# -- fixture corpus -----------------------------------------------------------


@pytest.mark.parametrize("stem", sorted(FIXTURE_SCOPES))
def test_bad_fixture_fires_exactly_its_rule(stem):
    scope, rule, count = FIXTURE_SCOPES[stem]
    findings = analyze_source(_fixture(f"{stem}_bad.py"), scope)
    assert findings, f"{stem}_bad.py produced no findings"
    assert {f.rule for f in findings} == {rule}
    assert len(findings) == count
    assert all(f.hint for f in findings)


@pytest.mark.parametrize("stem", sorted(FIXTURE_SCOPES))
def test_good_fixture_is_clean(stem):
    scope, _rule, _count = FIXTURE_SCOPES[stem]
    assert analyze_source(_fixture(f"{stem}_good.py"), scope) == []


# -- interprocedural + path-aware core ---------------------------------------


def test_typestate_crosses_call_boundaries():
    # The commit lives in a helper: the caller's transaction must still
    # read as definitely-committed at the late rollback.
    source = textwrap.dedent(
        """
        def finish(engine, txn):
            engine.commit(txn)

        def run(engine):
            txn = engine.begin()
            finish(engine, txn)
            engine.rollback(txn)
        """
    )
    findings = analyze_source(source, "core/split_fixture.py")
    assert [f.rule for f in findings] == ["RPL030"]
    assert "rollback" in findings[0].message
    assert "'committed'" in findings[0].message


def test_branchy_terminal_states_stay_silent():
    # One terminal state per path: the may-join keeps both alive, and
    # the definite-violation bar keeps the rule quiet.
    source = textwrap.dedent(
        """
        def settle(engine, ok):
            txn = engine.begin()
            if ok:
                engine.commit(txn)
            else:
                engine.rollback(txn)
        """
    )
    assert analyze_source(source, "core/branchy_fixture.py") == []


def test_reader_leak_is_exception_path_aware():
    # Identical code modulo try/finally: only the happy-path-only
    # deregister leaves the exceptional exit registered.
    leaky = textwrap.dedent(
        """
        def scan(versions, ts, pages):
            reader = versions.register_reader(ts)
            total = sum(pages)
            versions.deregister_reader(reader)
            return total
        """
    )
    findings = analyze_source(leaky, "core/reader_fixture.py")
    assert [f.rule for f in findings] == ["RPL030"]
    assert "exception unwind" in findings[0].message

    safe = leaky.replace(
        "    total = sum(pages)\n"
        "    versions.deregister_reader(reader)\n"
        "    return total\n",
        "    try:\n"
        "        return sum(pages)\n"
        "    finally:\n"
        "        versions.deregister_reader(reader)\n",
    )
    assert safe != leaky
    assert analyze_source(safe, "core/reader_fixture.py") == []


def test_guarded_late_cleanup_stays_silent():
    # ``is_active`` is a declared guard: the false branch excludes
    # ``active``, the true branch proves it — so guarded cleanup after
    # a conditional commit is not a definite violation.
    source = textwrap.dedent(
        """
        def settle(engine, ok):
            txn = engine.begin()
            if ok:
                engine.commit(txn)
            if txn.is_active():
                engine.rollback(txn)
        """
    )
    findings = analyze_source(source, "core/guarded_fixture.py")
    # The unwind path still leaks the transaction (nothing here is in
    # a finally); the guarded double-cleanup itself must be accepted.
    assert ["exception unwind" in f.message for f in findings] == [True]


# -- seeded mutants over the real tree ---------------------------------------


def _real_source(relpath: str) -> str:
    return (SRC / relpath).read_text(encoding="utf-8")


def test_engine_module_is_clean_solo():
    assert analyze_source(_real_source("storage/engine.py"),
                          "storage/engine.py") == []


def test_unguarded_reader_registration_is_caught():
    source = _real_source("storage/engine.py")
    mutated = source.replace(
        "            try:\n"
        "                context = ReadContext(self, begin_ts, reader_id,\n"
        "                                      owner=owner)\n"
        "                self._contexts[reader_id] = context\n"
        "                return context\n"
        "            except BaseException:\n"
        "                # A registered reader pins version chains against\n"
        "                # pruning; never leave it behind if the handle "
        "can't\n"
        "                # reach the caller.\n"
        "                self._versions.deregister_reader(reader_id)\n"
        "                raise\n",
        "            context = ReadContext(self, begin_ts, reader_id,\n"
        "                                  owner=owner)\n"
        "            self._contexts[reader_id] = context\n"
        "            return context\n",
    )
    assert mutated != source, "mutation target moved; update the test"
    findings = analyze_source(mutated, "storage/engine.py")
    assert findings, "the unguarded reader registration went unnoticed"
    assert {f.rule for f in findings} == {"RPL030"}
    assert all("register_reader" in f.message for f in findings)


def test_database_module_is_clean_solo():
    assert analyze_source(_real_source("sql/database.py"),
                          "sql/database.py") == []


def _line_of(source: str, needle: str) -> int:
    return source[:source.index(needle)].count("\n") + 1


def test_dropped_bootstrap_rollback_is_caught():
    # The transaction obligation (must_complete on the txn spec): with
    # the unwind-path rollback gone, a failed catalog bootstrap leaves
    # the engine's single writer slot taken for good.
    source = _real_source("sql/database.py")
    mutated = source.replace(
        "            engine.pager.set_root(_CATALOG_ROOT, tree.root_id)\n"
        "        except BaseException:\n"
        "            engine.rollback(txn)\n"
        "            raise\n",
        "            engine.pager.set_root(_CATALOG_ROOT, tree.root_id)\n"
        "        except BaseException:\n"
        "            raise\n",
    )
    assert mutated != source, "mutation target moved; update the test"
    (finding,) = analyze_source(mutated, "sql/database.py")
    assert finding.rule == "RPL030"
    assert finding.symbol == "Database._bootstrap_catalog"
    assert finding.line == _line_of(mutated, "        txn = engine.begin()")
    assert "transaction from engine.begin(...)" in finding.message
    assert "exception unwind" in finding.message


def _bare_read_context(occurrence: int) -> str:
    """sql/database.py with the main engine's read context of the
    ``occurrence``-th opener (0: ``reading``, 1: ``run_reader``) taken
    out of its with-statement."""
    source = _real_source("sql/database.py")
    target = (f"        with {_OPENER} as read_ctx, \\\n"
              "                self.aux_engine.begin_read(owner=self._owner) "
              "as aux_ctx:\n")
    assert source.count(target) == 2, "mutation target moved; update the test"
    at = -1
    for _ in range(occurrence + 1):
        at = source.index(target, at + 1)
    return (source[:at]
            + f"        read_ctx = {_OPENER}\n"
            "        with self.aux_engine.begin_read(owner=self._owner) "
            "as aux_ctx:\n"
            + source[at + len(target):])


_OPENER = "self.engine.begin_read(owner=self._owner)"


def test_bare_read_context_in_reading_is_caught():
    # The read-context obligation (must_complete on the read-context
    # spec): taken out of its with-statement, the main engine's context
    # is never closed, so its MVCC reader pins version chains forever.
    mutated = _bare_read_context(0)
    (finding,) = analyze_source(mutated, "sql/database.py")
    assert finding.rule == "RPL030"
    assert finding.symbol == "Database.reading"
    assert finding.line == _line_of(mutated, f"        read_ctx = {_OPENER}")
    assert "read context from engine.begin_read(...)" in finding.message
    assert "normal return" in finding.message


def test_bare_read_context_in_run_reader_is_caught():
    # The same obligation holds a run's opener: its contexts live for a
    # whole snapshot range, and building the reader may raise.
    mutated = _bare_read_context(1)
    (finding,) = analyze_source(mutated, "sql/database.py")
    assert finding.rule == "RPL030"
    assert finding.symbol == "Database.run_reader"
    assert finding.line == _line_of(mutated, f"        read_ctx = {_OPENER}")
    assert "read context from engine.begin_read(...)" in finding.message
    assert "exception unwind" in finding.message


def test_retro_read_before_recover_is_caught():
    source = _real_source("storage/engine.py")
    mutated = source.replace(
        "        self.retro.recover(\n",
        "        warm = self.retro.diff_size(0, 0)\n"
        "        self.retro.recover(\n",
    )
    assert mutated != source, "mutation target moved; update the test"
    findings = analyze_source(mutated, "storage/engine.py")
    assert findings, "reading through retro before recover went unnoticed"
    assert {f.rule for f in findings} == {"RPL030"}
    assert all("recover" in f.message for f in findings)


def test_chaos_module_is_clean_solo():
    assert analyze_source(_real_source("chaos.py"), "chaos.py") == []


def test_double_armed_crash_schedule_is_caught():
    source = _real_source("chaos.py")
    mutated = source.replace(
        "        disk.schedule_crash(at_write=k, tear=tear)\n",
        "        disk.schedule_crash(at_write=k, tear=tear)\n"
        "        disk.schedule_crash(at_write=k, tear=tear)\n",
    )
    assert mutated != source, "mutation target moved; update the test"
    findings = analyze_source(mutated, "chaos.py")
    assert findings, "double-arming the chaos schedule went unnoticed"
    assert {f.rule for f in findings} == {"RPL030"}
    assert all("schedule_crash" in f.message for f in findings)


# -- the protocol fields of a summary ----------------------------------------

PROTOCOL_MODULE = textwrap.dedent(
    """
    def finish(engine, txn):
        engine.commit(txn)

    def begin(engine):
        txn = engine.begin()
        return txn
    """
)


PROTOCOL_FIELDS = {
    "protocol_ops": ("finish", frozenset({(1, "txn", "commit")})),
    "protocol_returns": ("begin", ("txn", "active")),
}


@pytest.mark.parametrize("field", sorted(PROTOCOL_FIELDS))
def test_cache_rejects_payload_missing_v4_fields(field):
    """No solved summary is missing a v4 protocol field.

    The name is kept from when summaries could be read back from a disk
    cache that had to refuse payloads without these fields; summaries are
    now solved on every run, so the check is that each one carries them.
    """
    ctx = ModuleContext.from_source(PROTOCOL_MODULE, "core/protomod.py")
    program = Program({"core/protomod.py": ctx})
    function, expected = PROTOCOL_FIELDS[field]
    summary = program.summaries[f"core/protomod.py::{function}"]
    assert getattr(summary, field) == expected


# -- multi-root relpath collisions -------------------------------------------


def test_multi_root_collection_keeps_colliding_relpaths_apart(tmp_path):
    for root in ("alpha", "beta"):
        directory = tmp_path / root
        directory.mkdir()
        (directory / "__init__.py").write_text(
            f"NAME = {root!r}\n", encoding="utf-8")
    contexts, findings, scanned = _collect_contexts(
        [tmp_path / "alpha", tmp_path / "beta"])
    assert findings == []
    assert scanned == 2
    relpaths = {ctx.relpath for ctx in contexts}
    assert len(relpaths) == 2, "a colliding relpath evicted a module"
    assert "__init__.py" in relpaths
    assert "beta/__init__.py" in relpaths


# -- --explain ----------------------------------------------------------------


def test_every_rule_has_an_explain_entry():
    from repro.analysis.rules import _PROGRAM_REGISTRY, _REGISTRY

    for rule_id in _rule_descriptions():
        out = io.StringIO()
        assert main(["--explain", rule_id], out=out) == 0
        text = out.getvalue()
        assert text.startswith(f"{rule_id} —")
        assert "example:" in text
        assert "fix:" in text
    for cls in list(_REGISTRY.values()) + list(_PROGRAM_REGISTRY.values()):
        assert cls.example.strip(), f"{cls.rule_id} has no example"
        assert cls.fix.strip(), f"{cls.rule_id} has no fix pattern"


def test_explain_rejects_unknown_rules():
    out = io.StringIO()
    assert main(["--explain", "RPL999"], out=out) == 2
    assert "unknown rule" in out.getvalue()
