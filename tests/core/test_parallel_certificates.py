"""The runner rule: the certificate picks the partition count.

Two or more partitions need a certificate whose class is the fold's
class; one partition never does.  Two halves:

* the **differential gate** runs every runnable corpus entry through
  the reference loop and through the product path at ``workers`` 1 and
  4.  Every verdict must produce byte-identical result tables and
  database state, or raise the same error: mergeable verdicts split
  into partitions, ``serial-only`` ones run as one partition.  A false "mergeable" verdict fails here, not in review.
* **certificate plumbing**: the executor certifies every run itself (a
  forged or mismatched verdict is never split), and ``session.certify``
  exposes the same verdict against the live catalog.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import pytest

from repro.core import RQLSession, parallel
from repro.core.parallel import ParallelExecutor
from repro.errors import ReproError
from repro.sql.certify import SERIAL_ONLY
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


def run_outcome(session: RQLSession, entry, table: str,
                workers: Optional[int]):
    """(result, result table, database dump), or the raised error's
    (class, message) with the dump.  ``workers=None`` runs the
    reference loop."""
    try:
        if workers is None:
            result = session.run_reference(entry.mechanism, entry.qs,
                                           entry.qq, table, entry.arg)
        else:
            result = run_entry(session, entry, table, workers=workers)
    except ReproError as exc:
        return ((type(exc), str(exc)), None,
                full_database_dump(session.db))
    return result, result_table(session, table), \
        full_database_dump(session.db)


def assert_product_is_reference(entry, tpch_small):
    """The gate: the product path at ``workers`` 1 and 4 is
    byte-identical to the reference loop (result table and
    ``full_database_dump``) or raises the same error; returns the
    ``workers=4`` result and result table (None when all raised)."""
    session = gate_session(entry, tpch_small)
    table = "CertGate_" + entry.name.replace("-", "_")
    try:
        reference, reference_rows, reference_state = run_outcome(
            session, entry, table, workers=None)
        for workers in (1, 4):
            product, rows, state = run_outcome(
                session, entry, table, workers=workers)
            if isinstance(reference, tuple):
                assert product == reference, \
                    f"{entry.name}: workers={workers} raised differently"
                assert state == reference_state
                continue
            assert reference.parallel is None
            assert product.parallel is not None
            assert product.parallel.workers == workers
            assert product.parallel.merge_class == entry.expected_class
            assert product.snapshots == reference.snapshots
            assert rows == reference_rows, \
                f"{entry.name}: result table diverged at workers={workers}"
            assert state == reference_state, \
                f"{entry.name}: database state diverged at " \
                f"workers={workers}"
        if isinstance(reference, tuple):
            return None, None
        return product, rows
    finally:
        session.execute(f'DROP TABLE IF EXISTS "{table}"')


@pytest.mark.parametrize("entry", MERGEABLE, ids=lambda e: e.name)
def test_mergeable_entries_are_byte_identical(entry, tpch_small):
    result, rows = assert_product_is_reference(entry, tpch_small)
    assert result is not None
    assert len(result.parallel.partitions) \
        == min(4, len(result.snapshots))
    if entry.name == "loggedin-empty-range":
        assert result.snapshots == []
        assert rows is None


@pytest.mark.parametrize("entry", SERIAL, ids=lambda e: e.name)
def test_serial_only_entries_are_refused_in_parallel(entry, tpch_small):
    """A ``serial-only`` verdict is refused a split, not refused a run:
    at ``workers=4`` it is one partition, byte-identical to the
    reference loop, or raises the reference loop's error."""
    result, _ = assert_product_is_reference(entry, tpch_small)
    if result is not None:
        assert result.parallel.merge_class == SERIAL_ONLY
        assert result.parallel.partitions == [result.snapshots]


def test_workers_knob_runs_serially_but_not_in_parallel(tpch_small):
    """The RQL106 entry isolates the runner rule: the Qq is valid SQL
    the reference loop executes, so only the certificate keeps
    ``workers=4`` from splitting it — and the one-partition run equals
    the reference run."""
    entry = [e for e in SERIAL if e.name == "loggedin-workers-knob"][0]
    session = gate_session(entry, tpch_small)
    serial = session.run_reference(entry.mechanism, entry.qs, entry.qq,
                                   "KnobHistory", entry.arg)
    assert serial.snapshots == [1, 2, 3]
    serial_rows = result_table(session, "KnobHistory")
    serial_state = full_database_dump(session.db)
    result = run_entry(session, entry, "KnobHistory", workers=4)
    assert result.parallel.merge_class == SERIAL_ONLY
    assert result.parallel.partitions == [[1, 2, 3]]
    assert result_table(session, "KnobHistory") == serial_rows
    assert full_database_dump(session.db) == serial_state


def test_non_monoid_aggregates_rejected_at_any_worker_count(tpch_small):
    """MEDIAN / GROUP_CONCAT are not abelian monoids: the engine
    rejects them serially too (paper Section 2.3), which is exactly why
    their corpus verdict is serial-only."""
    for entry in SERIAL:
        if entry.name == "loggedin-workers-knob":
            continue
        session = gate_session(entry, tpch_small)
        for workers in (1, 4):
            with pytest.raises(ReproError):
                run_entry(session, entry, "CertRefused", workers=workers)


class TestCertificatePlumbing:
    @pytest.fixture
    def session(self):
        rql = RQLSession()
        setup_paper_example(rql)
        return rql

    @staticmethod
    def serial_rows(session, table):
        session.run_reference("CollateData", PAPER_QS, PAPER_QQ, table)
        return result_table(session, table)

    @staticmethod
    def run_with_verdict(session, monkeypatch, verdict, table):
        """Run CollateData at ``workers=2`` with the executor's own
        certification answering ``verdict``."""
        monkeypatch.setattr(parallel, "certify",
                            lambda *args, **kwargs: verdict)
        return ParallelExecutor(session.db, workers=2).run(
            "CollateData", PAPER_QS, PAPER_QQ, table)

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

    def test_forged_certificate_is_refused(self, session, monkeypatch):
        """A forged ``serial-only`` verdict is refused a split: one
        partition, the reference loop's result."""
        expected = self.serial_rows(session, "Serial")
        honest = session.certify("CollateData", PAPER_QS, PAPER_QQ)
        forged = dataclasses.replace(honest, merge_class=SERIAL_ONLY)
        result = self.run_with_verdict(session, monkeypatch, forged,
                                       "Forged")
        assert result.parallel.merge_class == SERIAL_ONLY
        assert result.parallel.partitions == [[1, 2, 3]]
        assert result_table(session, "Forged") == expected

    def test_mismatched_certificate_is_refused(self, session, monkeypatch):
        """A certificate for a different mechanism has the wrong merge
        class; the partition count is keyed off the certificate, so it
        cannot reach concat's merge."""
        expected = self.serial_rows(session, "Serial")
        monoid = session.certify(
            "AggregateDataInVariable", PAPER_QS,
            "SELECT COUNT(*) AS online FROM LoggedIn", "max")
        assert monoid.merge_class == "monoid"
        result = self.run_with_verdict(session, monkeypatch, monoid,
                                       "Mismatched")
        assert result.parallel.merge_class == "monoid"
        assert result.parallel.partitions == [[1, 2, 3]]
        assert result_table(session, "Mismatched") == expected

    def test_honest_certificate_is_accepted(self, session):
        expected = self.serial_rows(session, "Serial")
        result = ParallelExecutor(session.db, workers=2).run(
            "CollateData", PAPER_QS, PAPER_QQ, "Honest")
        assert result.snapshots == [1, 2, 3]
        assert result.parallel.merge_class == "concat"
        assert result.parallel.partitions == [[1, 2], [3]]
        assert result_table(session, "Honest") == expected


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
        exactly as EXPLAIN binds them: catalog order, ``__pk_`` once.
        (An ``INTEGER`` key is the rowid and has no index, so the key
        here is ``TEXT``.)"""
        session = RQLSession()
        session.execute("CREATE TABLE p (k TEXT PRIMARY KEY, v INTEGER)")
        session.execute("CREATE INDEX a_idx ON p (v)")
        session.execute("CREATE INDEX zz_idx ON p (k)")
        seen = {}
        real = parallel.certify_mechanism

        def spy(*args, schema=None, **kwargs):
            seen["indexes"] = [(index.name, index.columns)
                               for index in schema.table("p")[1]]
            return real(*args, schema=schema, **kwargs)

        monkeypatch.setattr(parallel, "certify_mechanism", spy)
        session.certify("CollateData", PAPER_QS, "SELECT v FROM p")
        assert seen["indexes"] == [
            ("__pk_p", ["k"]), ("a_idx", ["v"]), ("zz_idx", ["k"])]
        (search,) = [row[0] for row in session.execute(
            "EXPLAIN SELECT v FROM p WHERE k = 1").rows
            if row[0].startswith("SEARCH")]
        assert search == f"SEARCH p USING INDEX {seen['indexes'][0][0]} (=)"
