"""RQL mechanism tests against the paper's LoggedIn example and the
mechanism-equivalence properties from DESIGN.md."""

import threading

import pytest

from repro.core import RQLSession
from repro.core.mechanisms import AggregateDataInVariableRun
from repro.errors import (
    AggregateError,
    MechanismError,
    PlanError,
    QueryCancelled,
)
from repro.sql import executor
from repro.storage.record import decode_record
from repro.workloads import LoggedInSimulator


class TestCollateData:
    def test_paper_section_21_example(self, paper_session):
        s = paper_session
        s.collate_data(
            "SELECT snap_id FROM SnapIds",
            "SELECT DISTINCT l_userid, current_snapshot() FROM LoggedIn",
            "Result",
        )
        rows = sorted(s.execute('SELECT * FROM "Result"').rows)
        assert rows == sorted([
            ("UserA", 1), ("UserB", 1), ("UserC", 1),
            ("UserB", 2), ("UserC", 2),
            ("UserB", 3), ("UserC", 3), ("UserD", 3),
        ])

    def test_subset_qs(self, paper_session):
        s = paper_session
        s.collate_data(
            "SELECT snap_id FROM SnapIds WHERE snap_id >= 2",
            "SELECT l_userid FROM LoggedIn",
            "R2",
        )
        assert len(s.execute('SELECT * FROM "R2"').rows) == 5

    def test_qs_with_step(self, paper_session):
        s = paper_session
        s.collate_data(
            "SELECT snap_id FROM SnapIds WHERE snap_id % 2 = 1",
            "SELECT DISTINCT current_snapshot() FROM LoggedIn",
            "R3",
        )
        assert sorted(r[0] for r in s.execute('SELECT * FROM "R3"').rows) \
            == [1, 3]

    def test_result_metrics_per_iteration(self, paper_session):
        result = paper_session.collate_data(
            "SELECT snap_id FROM SnapIds",
            "SELECT l_userid FROM LoggedIn", "R4",
        )
        assert result.iterations == 3
        assert result.snapshots == [1, 2, 3]
        assert result.result_rows == 8
        assert [m.snapshot_id for m in result.metrics.iterations] == [1, 2, 3]

    def test_empty_snapshot_set(self, paper_session):
        result = paper_session.collate_data(
            "SELECT snap_id FROM SnapIds WHERE snap_id > 99",
            "SELECT l_userid FROM LoggedIn", "R5",
        )
        assert result.iterations == 0


class TestAggregateDataInVariable:
    def test_count_snapshots_with_user(self, paper_session):
        s = paper_session
        s.aggregate_data_in_variable(
            "SELECT snap_id FROM SnapIds",
            "SELECT DISTINCT 1 FROM LoggedIn WHERE l_userid = 'UserB'",
            "R", "sum",
        )
        assert s.execute('SELECT * FROM "R"').scalar() == 3

    def test_first_occurrence(self, paper_session):
        s = paper_session
        s.aggregate_data_in_variable(
            "SELECT snap_id FROM SnapIds",
            "SELECT DISTINCT current_snapshot() FROM LoggedIn "
            "WHERE l_userid = 'UserD'",
            "R", "min",
        )
        assert s.execute('SELECT * FROM "R"').scalar() == 3

    def test_avg_special_case(self, paper_session):
        s = paper_session
        s.aggregate_data_in_variable(
            "SELECT snap_id FROM SnapIds",
            "SELECT COUNT(*) FROM LoggedIn", "R", "avg",
        )
        assert s.execute('SELECT * FROM "R"').scalar() == \
            pytest.approx((3 + 2 + 3) / 3)

    def test_multi_row_qq_rejected(self, paper_session):
        with pytest.raises(MechanismError):
            paper_session.aggregate_data_in_variable(
                "SELECT snap_id FROM SnapIds",
                "SELECT l_userid FROM LoggedIn", "R", "min",
            )

    def test_multi_column_qq_rejected(self, paper_session):
        with pytest.raises(MechanismError):
            paper_session.aggregate_data_in_variable(
                "SELECT snap_id FROM SnapIds",
                "SELECT l_userid, l_time FROM LoggedIn "
                "WHERE l_userid = 'UserB'",
                "R", "min",
            )

    def test_multi_column_qq_fails_before_any_row_is_decoded(
            self, monkeypatch):
        """The column count is checked before the cursor is consumed:
        no row of the Qq's table is decoded, none is counted."""
        rql = RQLSession(workers=1)
        rql.execute("CREATE TABLE t (tag TEXT, n INTEGER)")
        with rql.transaction(with_snapshot=True):
            rql.execute("INSERT INTO t VALUES " + ", ".join(
                f"('row-of-t', {i})" for i in range(50)))
        decoded = []

        def recording(raw, *width):
            record = decode_record(raw, *width)
            decoded.append(record)
            return record

        monkeypatch.setattr(executor, "decode_record", recording)
        run = AggregateDataInVariableRun(rql.db, "SELECT tag, n FROM t",
                                         "R", "min")
        with pytest.raises(MechanismError, match="single-column"):
            run.run("SELECT snap_id FROM SnapIds")
        assert [it.qq_rows for it in run.sink.iterations] == [0]
        assert decoded  # the Qs rows were read through the same decoder
        assert not any(record[:1] == ("row-of-t",) for record in decoded)
        rql.close()

    def test_non_monoid_rejected(self, paper_session):
        with pytest.raises(AggregateError):
            paper_session.aggregate_data_in_variable(
                "SELECT snap_id FROM SnapIds",
                "SELECT COUNT(*) FROM LoggedIn", "R", "count distinct",
            )


class TestAggregateDataInTable:
    def test_first_login_per_user(self, paper_session):
        s = paper_session
        s.aggregate_data_in_table(
            "SELECT snap_id FROM SnapIds",
            "SELECT DISTINCT l_userid, l_time FROM LoggedIn",
            "R", "(l_time,min)",
        )
        rows = dict(s.execute('SELECT l_userid, l_time FROM "R"').rows)
        assert rows["UserA"] == "2008-11-09 13:23:44"
        assert rows["UserD"] == "2008-11-11 10:08:04"
        assert len(rows) == 4

    def test_max_simultaneous_per_country(self, paper_session):
        s = paper_session
        s.aggregate_data_in_table(
            "SELECT snap_id FROM SnapIds",
            "SELECT l_country, COUNT(*) AS c FROM LoggedIn "
            "GROUP BY l_country",
            "R", "(c,max)",
        )
        assert sorted(s.execute('SELECT l_country, c FROM "R"').rows) == \
            [("UK", 2), ("USA", 2)]

    def test_multiple_aggregations(self, paper_session):
        s = paper_session
        s.aggregate_data_in_table(
            "SELECT snap_id FROM SnapIds",
            "SELECT l_country, COUNT(*) AS c FROM LoggedIn "
            "GROUP BY l_country",
            "R", "(c,max):(c2,sum)" if False else [("c", "max")],
        )
        assert len(s.execute('SELECT * FROM "R"').rows) == 2

    def test_avg_hidden_columns_excluded_from_visible(self, paper_session):
        s = paper_session
        result = s.aggregate_data_in_table(
            "SELECT snap_id FROM SnapIds",
            "SELECT l_country, COUNT(*) AS c FROM LoggedIn "
            "GROUP BY l_country",
            "R", [("c", "avg")],
        )
        assert result.columns == ["l_country", "c"]
        rows = dict(s.execute('SELECT l_country, c FROM "R"').rows)
        # USA: 2, 1, 1 logins -> avg 4/3. UK: 1, 1, 2 -> 4/3.
        assert rows["USA"] == pytest.approx(4 / 3)
        assert rows["UK"] == pytest.approx(4 / 3)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_only_the_schemas_own_helpers_are_hidden(self, paper_session,
                                                     workers):
        """Hidden means "this run's own AVG helper", found by position —
        never "any column whose name starts with ``__``"."""
        s = paper_session
        qs = "SELECT snap_id FROM SnapIds"
        collated = s.collate_data(
            qs, "SELECT l_country AS __g, l_userid FROM LoggedIn", "R",
            workers=workers)
        assert collated.columns == ["__g", "l_userid"]
        assert collated.columns == \
            list(s.execute('SELECT * FROM "R"').columns)
        folded = s.aggregate_data_in_table(
            qs, "SELECT l_country AS __g, COUNT(*) AS c FROM LoggedIn "
                "GROUP BY l_country",
            "R", [("c", "avg")], workers=workers)
        assert folded.columns == ["__g", "c"]
        assert list(s.execute('SELECT * FROM "R"').columns) == \
            ["__g", "c", "__avg_sum_1", "__avg_cnt_1"]

    def test_missing_aggregation_column(self, paper_session):
        with pytest.raises(MechanismError):
            paper_session.aggregate_data_in_table(
                "SELECT snap_id FROM SnapIds",
                "SELECT l_userid FROM LoggedIn", "R", [("nope", "max")],
            )

    def test_all_columns_aggregated_rejected(self, paper_session):
        with pytest.raises(MechanismError):
            paper_session.aggregate_data_in_table(
                "SELECT snap_id FROM SnapIds",
                "SELECT DISTINCT l_time FROM LoggedIn "
                "WHERE l_userid = 'UserB'",
                "R", [("l_time", "min")],
            )

    def test_result_index_created(self, paper_session):
        result = paper_session.aggregate_data_in_table(
            "SELECT snap_id FROM SnapIds",
            "SELECT DISTINCT l_userid, l_time FROM LoggedIn",
            "R", [("l_time", "min")],
        )
        assert result.result_index_bytes > 0


class TestCollateDataIntoIntervals:
    def test_paper_lifetimes(self, paper_session):
        s = paper_session
        s.collate_data_into_intervals(
            "SELECT snap_id FROM SnapIds",
            "SELECT l_userid FROM LoggedIn", "R",
        )
        rows = sorted(s.execute('SELECT * FROM "R"').rows)
        assert rows == [
            ("UserA", 1, 1), ("UserB", 1, 3),
            ("UserC", 1, 3), ("UserD", 3, 3),
        ]

    def test_gap_reopens_interval(self, session):
        sim = LoggedInSimulator(session, users=3, seed=3)
        # User0000 logs in, out, in again across snapshots.
        session.execute(
            "INSERT INTO LoggedIn VALUES ('U', '2008-01-01', 'US')"
        )
        session.declare_snapshot()  # S1: present
        session.execute("BEGIN")
        session.execute("DELETE FROM LoggedIn WHERE l_userid = 'U'")
        session.commit_with_snapshot()  # S2: absent
        session.execute("BEGIN")
        session.execute(
            "INSERT INTO LoggedIn VALUES ('U', '2008-01-03', 'US')"
        )
        session.commit_with_snapshot()  # S3: present again
        session.collate_data_into_intervals(
            "SELECT snap_id FROM SnapIds",
            "SELECT l_userid FROM LoggedIn WHERE l_userid = 'U'", "R",
        )
        rows = sorted(session.execute('SELECT * FROM "R"').rows)
        assert rows == [("U", 1, 1), ("U", 3, 3)]

    def test_interval_columns_present(self, paper_session):
        result = paper_session.collate_data_into_intervals(
            "SELECT snap_id FROM SnapIds",
            "SELECT l_userid, l_country FROM LoggedIn", "R",
        )
        assert result.columns == [
            "l_userid", "l_country", "start_snapshot", "end_snapshot",
        ]

    def test_compacter_than_collate(self, paper_session):
        s = paper_session
        collate = s.collate_data(
            "SELECT snap_id FROM SnapIds",
            "SELECT l_userid FROM LoggedIn", "RC",
        )
        intervals = s.collate_data_into_intervals(
            "SELECT snap_id FROM SnapIds",
            "SELECT l_userid FROM LoggedIn", "RI",
        )
        assert intervals.result_rows < collate.result_rows


class TestPersistentResults:
    def test_persistent_result_is_snapshotable(self, paper_session):
        s = paper_session
        s.collate_data(
            "SELECT snap_id FROM SnapIds",
            "SELECT l_userid FROM LoggedIn", "Persisted", persistent=True,
        )
        before = s.execute('SELECT COUNT(*) FROM "Persisted"').scalar()
        sid = s.declare_snapshot()
        s.execute('DELETE FROM "Persisted"')
        assert s.execute(
            f'SELECT AS OF {sid} COUNT(*) FROM "Persisted"'
        ).scalar() == before


# Result-table names arrive from callers (over the wire, in server
# mode): every place that puts one into SQL text goes through the one
# identifier quoter, so no name can address another table.
HOSTILE_NAMES = [
    'victim" --',
    'semi;colon',
    "two  words\tand a tab",
    'a""b',
    'x"; DROP TABLE victim; --',
]

MECHANISM_CALLS = [
    ("collate_data", "SELECT l_userid FROM LoggedIn", ()),
    ("aggregate_data_in_variable",
     "SELECT COUNT(*) AS n FROM LoggedIn", ("sum",)),
    ("aggregate_data_in_table",
     "SELECT l_country, COUNT(*) AS c FROM LoggedIn GROUP BY l_country",
     ([("c", "max")],)),
    ("collate_data_into_intervals", "SELECT l_userid FROM LoggedIn", ()),
]


def quoted(name):
    return '"' + name.replace('"', '""') + '"'


class TestResultTableNames:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("method, qq, extra", MECHANISM_CALLS,
                             ids=[c[0] for c in MECHANISM_CALLS])
    @pytest.mark.parametrize("name", HOSTILE_NAMES)
    def test_any_name_round_trips_and_touches_no_other_table(
            self, paper_session, name, method, qq, extra, workers):
        s = paper_session
        s.execute("CREATE TABLE victim (x INTEGER)")
        s.execute("INSERT INTO victim VALUES (1)")
        qs = "SELECT snap_id FROM SnapIds ORDER BY snap_id"
        select = f"SELECT * FROM {quoted(name)}"
        first = getattr(s, method)(qs, qq, name, *extra, workers=workers)
        assert first.table == name
        rows = s.execute(select).rows
        assert first.result_rows == len(rows) > 0
        # The second run drops the first run's table under that name.
        second = getattr(s, method)(qs, qq, name, *extra, workers=workers)
        assert s.execute(select).rows == rows
        assert second.result_rows == len(rows)
        s._drop_result_table(name)
        with pytest.raises(PlanError, match="no such table"):
            s.execute(select)
        assert s.execute("SELECT x FROM victim").rows == [(1,)]


def _cancel_session():
    """Four snapshots and a Qq whose ``probe`` UDF records each snapshot
    it evaluates and sets ``cancel`` during snapshot 2."""
    s = RQLSession()
    s.execute("CREATE TABLE events (val INTEGER)")
    for n in range(4):
        s.execute(f"INSERT INTO events VALUES ({n})")
        s.declare_snapshot()
    cancel = threading.Event()
    seen = set()

    def probe(value, snapshot_id):
        seen.add(int(snapshot_id))
        if int(snapshot_id) == 2:
            cancel.set()
        return value

    s.db.register_function("probe", probe)
    return s, cancel, seen


class TestCancel:
    QQ = "SELECT probe(val, current_snapshot()) FROM events"
    QS = "SELECT snap_id FROM SnapIds ORDER BY snap_id"

    def test_serial_loop_stops_at_the_next_snapshot(self):
        """The reference loop polls ``cancel`` between snapshot
        iterations: set during snapshot 2, the run never starts
        snapshot 3."""
        s, cancel, seen = _cancel_session()
        with pytest.raises(QueryCancelled, match="before snapshot 3"):
            s.run_reference("CollateData", self.QS, self.QQ, "R",
                            cancel=cancel)
        assert seen == {1, 2}
        result = s.run_reference("CollateData", self.QS, self.QQ, "R",
                                 cancel=threading.Event())
        assert result.parallel is None  # the table-backed loop
        assert result.snapshots == [1, 2, 3, 4]

    def test_one_partition_run_stops_at_the_next_snapshot(self):
        """The product path at ``workers=1`` polls the same event
        between snapshots of its one partition: set during snapshot 2,
        snapshot 3 never starts, and the run raises once it stopped."""
        s, cancel, seen = _cancel_session()
        with pytest.raises(QueryCancelled):
            s.run_mechanism("CollateData", self.QS, self.QQ, "R",
                            workers=1, cancel=cancel)
        assert seen == {1, 2}
        # The run's reader is closed with it: no read context is left
        # on either engine.
        assert s.db.engine.open_read_contexts() == []
        assert s.db.aux_engine.open_read_contexts() == []
        result = s.run_mechanism("CollateData", self.QS, self.QQ, "R",
                                 workers=1, cancel=threading.Event())
        assert result.parallel.partitions == [[1, 2, 3, 4]]
        assert result.snapshots == [1, 2, 3, 4]


class TestRefusal:
    """A mechanism call inside an open transaction is refused before it
    touches anything: the same error embedded at every worker count and
    on a server ticket, T's rows unchanged, the transaction still open,
    and ``COMMIT`` keeps T."""

    QS = "SELECT snap_id FROM SnapIds ORDER BY snap_id"
    QQ = "SELECT val FROM events"
    MESSAGE = ("a retrospective query cannot run inside an open "
               "transaction; COMMIT or ROLLBACK first")

    @staticmethod
    def populate(handle):
        handle.execute("CREATE TABLE events (val INTEGER)")
        for n in range(3):
            handle.execute(f"INSERT INTO events VALUES ({n})")
            handle.declare_snapshot()
        handle.execute("CREATE TABLE R (x INTEGER)")
        handle.execute("INSERT INTO R VALUES (7), (8)")

    def assert_refused_and_intact(self, handle, workers):
        handle.execute("BEGIN")
        handle.execute("INSERT INTO events VALUES (99)")
        with pytest.raises(MechanismError) as refused:
            handle.collate_data(self.QS, self.QQ, "R", workers=workers)
        assert str(refused.value) == self.MESSAGE
        assert handle.execute("SELECT x FROM R ORDER BY x").rows \
            == [(7,), (8,)]
        # Still inside the caller's transaction: its write is visible.
        assert handle.execute("SELECT COUNT(*) FROM events").scalar() == 4
        handle.execute("COMMIT")
        assert handle.execute("SELECT x FROM R ORDER BY x").rows \
            == [(7,), (8,)]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_embedded(self, workers):
        s = RQLSession()
        self.populate(s)
        self.assert_refused_and_intact(s, workers)
        s.close()

    def test_server_ticket(self):
        from repro.server import RQLServer
        server = RQLServer(gate_timeout=30.0)
        try:
            client = server.connect("alice")
            self.populate(client)
            self.assert_refused_and_intact(client, 1)
            client.close()
        finally:
            server.close()
