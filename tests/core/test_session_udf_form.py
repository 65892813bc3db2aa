"""RQLSession API, SnapIds management, and the Section 3 UDF call form."""

import pytest

from repro.core import RQLSession
from repro.errors import RqlError


class TestSnapIds:
    def test_declare_records_snapids(self, session):
        session.execute("CREATE TABLE t (a INTEGER)")
        sid = session.declare_snapshot(name="first",
                                       timestamp="2018-01-01 00:00:00")
        rows = session.execute(
            "SELECT snap_id, snap_ts, snap_name FROM SnapIds"
        ).rows
        assert rows == [(sid, "2018-01-01 00:00:00", "first")]

    def test_id_for_name(self, session):
        session.execute("CREATE TABLE t (a INTEGER)")
        sid = session.declare_snapshot(name="tagged")
        assert session.snapids.id_for_name("tagged") == sid
        with pytest.raises(RqlError):
            session.snapids.id_for_name("missing")

    def test_qs_builders(self, session):
        session.execute("CREATE TABLE t (a INTEGER)")
        for _ in range(10):
            session.declare_snapshot()
        snapids = session.snapids
        assert snapids.all_ids() == list(range(1, 11))
        last5 = session.execute(snapids.qs_last(5)).rows
        assert [r[0] for r in last5] == [6, 7, 8, 9, 10]
        stepped = session.execute(snapids.qs_last(3, step=2)).rows
        assert [r[0] for r in stepped] == [6, 8, 10]
        pinned = session.execute(snapids.qs_last(3, end=7)).rows
        assert [r[0] for r in pinned] == [5, 6, 7]
        ranged = session.execute(snapids.qs_range(2, 6, step=2)).rows
        assert [r[0] for r in ranged] == [2, 4, 6]

    def test_qs_time_range(self, session):
        session.execute("CREATE TABLE t (a INTEGER)")
        session.declare_snapshot(timestamp="2018-01-01 10:00:00")
        session.declare_snapshot(timestamp="2018-01-02 10:00:00")
        session.declare_snapshot(timestamp="2018-01-03 10:00:00")
        rows = session.execute(session.snapids.qs_time_range(
            "2018-01-01 00:00:00", "2018-01-02 23:59:59",
        )).rows
        assert [r[0] for r in rows] == [1, 2]

    def test_qs_last_without_snapshots(self, session):
        with pytest.raises(RqlError):
            session.snapids.qs_last(3)

    @pytest.mark.parametrize("declare", [
        lambda s: s.declare_snapshot(name=5),
        lambda s: s.declare_snapshot(timestamp=20180101),
        lambda s: s.transaction(with_snapshot=True, name=5).__enter__(),
        lambda s: (s.execute("BEGIN"), s.commit_with_snapshot(name=[5])),
    ], ids=["declare-name", "declare-timestamp", "transaction",
            "commit-with-snapshot"])
    def test_no_snapshot_id_without_its_snapids_row(self, session, declare):
        """A non-text label is refused before the snapshot is declared,
        so no snapshot id exists that a Qs over SnapIds would miss."""
        session.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(RqlError, match="must be a string"):
            declare(session)
        if session.db._in_explicit_txn:
            session.execute("ROLLBACK")
        assert session.latest_snapshot_id == 0
        assert session.snapids.all_ids() == []
        sid = session.declare_snapshot(name="after")
        assert session.snapids.all_ids() == [sid] == [1]


class TestUdfForm:
    """The paper's Section 3 syntax: mechanisms invoked as UDFs over the
    SELECT on SnapIds."""

    def test_collate_data_udf(self, paper_session):
        s = paper_session
        s.execute(
            "SELECT CollateData(snap_id, "
            "'SELECT DISTINCT l_userid, current_snapshot() AS sid "
            "FROM LoggedIn', 'U1') FROM SnapIds"
        )
        assert len(s.execute('SELECT * FROM "U1"').rows) == 8

    def test_udf_respects_qs_where(self, paper_session):
        s = paper_session
        s.execute(
            "SELECT CollateData(snap_id, "
            "'SELECT l_userid FROM LoggedIn', 'U2') "
            "FROM SnapIds WHERE snap_id > 1"
        )
        assert len(s.execute('SELECT * FROM "U2"').rows) == 5

    def test_aggregate_in_variable_udf(self, paper_session):
        s = paper_session
        s.execute(
            "SELECT AggregateDataInVariable(snap_id, "
            "'SELECT DISTINCT current_snapshot() AS sid FROM LoggedIn "
            "WHERE l_userid = ''UserB'' ', 'U3', 'min') FROM SnapIds"
        )
        assert s.execute('SELECT * FROM "U3"').scalar() == 1

    def test_aggregate_in_table_udf(self, paper_session):
        s = paper_session
        s.execute(
            "SELECT AggregateDataInTable(snap_id, "
            "'SELECT l_country, COUNT(*) AS c FROM LoggedIn "
            "GROUP BY l_country', 'U4', '(c,max)') FROM SnapIds"
        )
        assert sorted(s.execute('SELECT l_country, c FROM "U4"').rows) \
            == [("UK", 2), ("USA", 2)]

    def test_intervals_udf(self, paper_session):
        s = paper_session
        s.execute(
            "SELECT CollateDataIntoIntervals(snap_id, "
            "'SELECT l_userid FROM LoggedIn', 'U5') FROM SnapIds"
        )
        rows = sorted(s.execute('SELECT * FROM "U5"').rows)
        assert rows[0] == ("UserA", 1, 1)
        assert ("UserB", 1, 3) in rows

    def test_udf_metrics_accessible(self, paper_session):
        s = paper_session
        qq = "SELECT l_userid FROM LoggedIn"
        s.execute(
            f"SELECT CollateData(snap_id, '{qq}', 'U6') FROM SnapIds"
        )
        sink = s.udf_metrics("CollateData", qq, "U6")
        assert sink is not None
        # The sink may collect trailing activity after the loop; the
        # first three iterations are the loop body invocations.
        assert [m.snapshot_id for m in sink.iterations[:3]] == [1, 2, 3]

    def test_reset_udf_state(self, paper_session):
        s = paper_session
        qq = "SELECT l_userid FROM LoggedIn"
        s.execute(f"SELECT CollateData(snap_id, '{qq}', 'U7') FROM SnapIds")
        s.reset_udf_state()
        assert s.udf_metrics("CollateData", qq, "U7") is None


class TestSessionLifecycle:
    def test_close_rolls_back_open_txn(self):
        s = RQLSession()
        s.execute("CREATE TABLE t (a INTEGER)")
        s.execute("BEGIN")
        s.execute("INSERT INTO t VALUES (1)")
        s.close()
        # A fresh facade over the same disks would not see the insert;
        # here we just check the session is reusable read-only.

    def test_latest_snapshot_id(self, session):
        session.execute("CREATE TABLE t (a INTEGER)")
        assert session.latest_snapshot_id == 0
        session.declare_snapshot()
        assert session.latest_snapshot_id == 1
