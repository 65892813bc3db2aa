"""Certificate consumption by the parallel executor.

Two halves:

* the **differential gate** runs every runnable corpus entry serially
  and at ``workers=4``.  Mergeable verdicts must produce byte-identical
  result tables and database state; ``serial-only`` verdicts must be
  refused at ``workers=4``.  A false "mergeable" verdict fails here,
  not in review.
* **certificate plumbing**: the executor consumes the certificate (a
  stripped/forged one is refused with the rqlint diagnostics), and
  ``session.certify`` exposes the same verdict against the live
  catalog.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.query.mergeclass import SERIAL_ONLY
from repro.core import RQLSession
from repro.core.parallel import ParallelExecutor
from repro.errors import MechanismError, ReproError
from repro.workloads.corpus import CORPUS, run_entry
from repro.workloads.loggedin import setup_paper_example
from tests.conftest import full_database_dump

RUNNABLE = [e for e in CORPUS if e.runnable]
MERGEABLE = [e for e in RUNNABLE if e.expected_class != SERIAL_ONLY]
SERIAL = [e for e in RUNNABLE if e.expected_class == SERIAL_ONLY]

PAPER_QS = "SELECT snap_id FROM SnapIds ORDER BY snap_id"
PAPER_QQ = "SELECT l_userid FROM LoggedIn"


def result_table(session: RQLSession, table: str):
    """(columns, rows) of a result table, or None if it was never
    created (statically-empty Qs runs materialize nothing)."""
    try:
        result = session.execute(f'SELECT * FROM "{table}"')
    except ReproError:
        return None
    return tuple(result.columns), [tuple(row) for row in result.rows]


def gate_session(entry, tpch_small):
    if entry.workload == "tpch":
        return tpch_small[0]
    session = RQLSession()
    setup_paper_example(session)
    return session


@pytest.mark.parametrize("entry", MERGEABLE, ids=lambda e: e.name)
def test_mergeable_entries_are_byte_identical(entry, tpch_small):
    session = gate_session(entry, tpch_small)
    table = "CertGate_" + entry.name.replace("-", "_")
    try:
        serial = run_entry(session, entry, table, workers=1)
        assert serial.parallel is None
        serial_rows = result_table(session, table)
        serial_state = full_database_dump(session.db)

        parallel = run_entry(session, entry, table, workers=4)
        assert parallel.parallel is not None
        assert parallel.parallel.workers == 4
        assert parallel.snapshots == serial.snapshots
        assert result_table(session, table) == serial_rows, \
            f"{entry.name}: result table diverged at workers=4"
        assert full_database_dump(session.db) == serial_state, \
            f"{entry.name}: database state diverged at workers=4"
        if entry.name == "loggedin-empty-range":
            assert serial.snapshots == []
            assert serial_rows is None
    finally:
        session.execute(f'DROP TABLE IF EXISTS "{table}"')


@pytest.mark.parametrize("entry", SERIAL, ids=lambda e: e.name)
def test_serial_only_entries_are_refused_in_parallel(entry, tpch_small):
    session = gate_session(entry, tpch_small)
    with pytest.raises(ReproError):
        run_entry(session, entry, "CertRefused", workers=4)
    assert result_table(session, "CertRefused") is None


def test_workers_knob_runs_serially_but_not_in_parallel(tpch_small):
    """The RQL106 entry isolates certificate-driven refusal: the Qq is
    valid SQL the serial path executes, so only ``_admit`` can reject
    it."""
    entry = [e for e in SERIAL if e.name == "loggedin-workers-knob"][0]
    session = gate_session(entry, tpch_small)
    result = run_entry(session, entry, "KnobHistory", workers=1)
    assert result.snapshots == [1, 2, 3]
    with pytest.raises(MechanismError, match="rqlint refuses parallel"):
        run_entry(session, entry, "KnobHistory", workers=4)


def test_non_monoid_aggregates_rejected_at_any_worker_count(tpch_small):
    """MEDIAN / GROUP_CONCAT are not abelian monoids: the engine
    rejects them serially too (paper Section 2.3), which is exactly why
    their corpus verdict is serial-only."""
    for entry in SERIAL:
        if entry.name == "loggedin-workers-knob":
            continue
        session = gate_session(entry, tpch_small)
        with pytest.raises(ReproError):
            run_entry(session, entry, "CertRefused", workers=1)


class TestCertificatePlumbing:
    @pytest.fixture
    def session(self):
        rql = RQLSession()
        setup_paper_example(rql)
        return rql

    def test_session_certify_surface(self, session):
        certificate = session.certify("CollateData", PAPER_QS, PAPER_QQ)
        assert certificate.merge_class == "concat"
        assert certificate.mergeable
        assert certificate.read_tables == ("LoggedIn",)
        # rql_workers is a live UDF: the catalog schema knows it and the
        # stateful classification fires against the real registry.
        refused = session.certify(
            "CollateData", PAPER_QS,
            "SELECT l_userid, rql_workers() FROM LoggedIn")
        assert refused.merge_class == SERIAL_ONLY
        assert not refused.mergeable
        assert any(f.rule == "RQL106" for f in refused.findings)

    def test_forged_certificate_is_refused(self, session):
        executor = ParallelExecutor(session.db, workers=2)
        honest = executor.certify("CollateData", PAPER_QS, PAPER_QQ)
        forged = dataclasses.replace(honest, merge_class=SERIAL_ONLY)
        with pytest.raises(MechanismError,
                           match="rqlint refuses parallel"):
            executor.collate_data(PAPER_QS, PAPER_QQ, "Forged",
                                  certificate=forged)

    def test_mismatched_certificate_is_refused(self, session):
        """A certificate for a different mechanism has the wrong merge
        class; dispatch is keyed off the certificate, so it cannot
        reach concat."""
        executor = ParallelExecutor(session.db, workers=2)
        monoid = executor.certify(
            "AggregateDataInVariable", PAPER_QS,
            "SELECT COUNT(*) AS online FROM LoggedIn", "max")
        assert monoid.merge_class == "monoid"
        with pytest.raises(MechanismError,
                           match="rqlint refuses parallel"):
            executor.collate_data(PAPER_QS, PAPER_QQ, "Mismatched",
                                  certificate=monoid)

    def test_honest_certificate_is_accepted(self, session):
        executor = ParallelExecutor(session.db, workers=2)
        honest = executor.certify("CollateData", PAPER_QS, PAPER_QQ)
        result = executor.collate_data(PAPER_QS, PAPER_QQ, "Honest",
                                       certificate=honest)
        assert result.snapshots == [1, 2, 3]


class TestCertificationResolvesLikeExecution:
    """A certificate is resolved in the statement context execution
    opens (``Database.reading``): same lookup order, same transaction,
    same index list."""

    @staticmethod
    def resolution_errors(session, qq):
        certificate = session.certify("CollateData", PAPER_QS, qq)
        return [f.message for f in certificate.findings
                if f.rule == "RQL100"]

    def test_temp_table_shadows_main_table(self):
        session = RQLSession()
        session.execute("CREATE TABLE t (a INTEGER)")
        session.execute("CREATE TEMP TABLE t (z INTEGER)")
        session.execute("INSERT INTO t VALUES (7)")
        # Execution reads the TEMP table; so must the certificate.
        assert session.execute("SELECT z FROM t").rows == [(7,)]
        assert self.resolution_errors(session, "SELECT z FROM t") == []
        assert self.resolution_errors(session, "SELECT a FROM t") \
            == ["no such column: a"]

    def test_open_transaction_ddl_is_visible(self):
        session = RQLSession()
        qq = "SELECT x FROM fresh"
        with session.transaction():
            session.execute("CREATE TABLE fresh (x INTEGER)")
            assert session.execute(qq).rows == []
            assert self.resolution_errors(session, qq) == []
            certificate = session.certify("CollateData", PAPER_QS, qq)
            assert certificate.read_tables == ("fresh",)
        session.execute("BEGIN")
        session.execute("DROP TABLE fresh")
        assert self.resolution_errors(session, qq) \
            == ["no such table: fresh"]
        session.execute("ROLLBACK")
        assert self.resolution_errors(session, qq) == []

    def test_primary_key_index_is_listed_once(self, monkeypatch):
        """The provider the certifier is handed lists a table's indexes
        exactly as EXPLAIN binds them: catalog order, ``__pk_`` once."""
        from repro.analysis.query import mergeclass

        session = RQLSession()
        session.execute("CREATE TABLE p (k INTEGER PRIMARY KEY, v INTEGER)")
        session.execute("CREATE INDEX a_idx ON p (v)")
        session.execute("CREATE INDEX zz_idx ON p (k)")
        seen = {}
        real = mergeclass.certify_mechanism

        def spy(*args, schema=None, **kwargs):
            seen["indexes"] = schema.table_indexes("p")
            return real(*args, schema=schema, **kwargs)

        monkeypatch.setattr(mergeclass, "certify_mechanism", spy)
        session.certify("CollateData", PAPER_QS, "SELECT v FROM p")
        assert seen["indexes"] == [
            ("__pk_p", ["k"]), ("a_idx", ["v"]), ("zz_idx", ["k"])]
        (search,) = [row[0] for row in session.execute(
            "EXPLAIN SELECT v FROM p WHERE k = 1").rows
            if row[0].startswith("SEARCH")]
        assert search == f"SEARCH p USING INDEX {seen['indexes'][0][0]} (=)"
