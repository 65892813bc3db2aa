"""Differential gate: stats-driven plans vs heuristic plans.

ANALYZE may flip access paths (seq scan <-> index probe) and reorder
joins, but it must never change *what* a query returns.  Two harnesses
enforce that:

* every runnable entry of the PR 7 verdict corpus runs before and
  after ANALYZE on the same session and must produce the same result
  set;
* a Hypothesis harness generates 100+ random workloads (rows +
  predicates over indexed and unindexed columns) and compares an
  ANALYZEd database against an un-ANALYZEd twin — for SELECT, and for
  DELETE/UPDATE against an index-free third twin as well: the access
  path never changes which rows a statement touches.

Comparisons are order-canonical (columns + sorted rows): an index
range scan legitimately yields rows in key order where a heuristic
seq scan yields insertion order — the relational result is the same.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RQLSession
from repro.errors import ReproError
from repro.sql.certify import SERIAL_ONLY
from repro.sql.database import Database
from repro.workloads import SnapshotHistoryBuilder, UW30, setup_paper_example
from repro.workloads.corpus import CORPUS, run_entry

RUNNABLE = [e for e in CORPUS
            if e.runnable and e.expected_class != SERIAL_ONLY]


def canonical(columns, rows):
    return tuple(columns), sorted((tuple(r) for r in rows), key=repr)


def result_table(session, table):
    try:
        result = session.execute(f'SELECT * FROM "{table}"')
    except ReproError:
        return None
    return canonical(result.columns, result.rows)


@pytest.fixture(scope="module")
def gate_sessions():
    """Fresh (not shared) workload sessions this module may ANALYZE."""
    tpch = RQLSession()
    builder = SnapshotHistoryBuilder(tpch, scale_factor=0.001, seed=7)
    builder.load_initial()
    builder.build_history(UW30, 8)
    paper = RQLSession()
    setup_paper_example(paper)
    return {"tpch": tpch, "loggedin": paper}


class TestCorpusDifferential:
    @pytest.mark.parametrize("entry", RUNNABLE, ids=lambda e: e.name)
    def test_analyze_does_not_change_results(self, entry, gate_sessions):
        session = gate_sessions[entry.workload]
        table = "PlanGate_" + entry.name.replace("-", "_")
        try:
            heuristic = run_entry(session, entry, table, workers=1)
            heuristic_rows = result_table(session, table)
            session.execute(f'DROP TABLE IF EXISTS "{table}"')

            session.execute("ANALYZE")
            costed = run_entry(session, entry, table, workers=1)
            assert result_table(session, table) == heuristic_rows, \
                f"{entry.name}: result set changed after ANALYZE"
            assert costed.snapshots == heuristic.snapshots
        finally:
            session.execute(f'DROP TABLE IF EXISTS "{table}"')


# ---------------------------------------------------------------------------
# Hypothesis harness: random workloads, analyzed vs heuristic twin
# ---------------------------------------------------------------------------

values_a = st.one_of(st.none(), st.integers(min_value=-20, max_value=20))
values_b = st.integers(min_value=0, max_value=5)
values_s = st.one_of(st.none(), st.sampled_from(["x", "y", "zz", ""]))

rows_strategy = st.lists(
    st.tuples(values_a, values_b, values_s), min_size=0, max_size=25,
)

comparison = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


@st.composite
def predicates(draw):
    """Random WHERE text over k (PK index), a (secondary), b (none)."""
    kind = draw(st.sampled_from(
        ["cmp_k", "cmp_a", "cmp_b", "between_k", "in_a", "flipped_a",
         "null_a", "builtin_k", "and", "or"]))
    if kind == "cmp_k":
        op = draw(comparison)
        return f"k {op} {draw(st.integers(0, 25))}"
    if kind == "cmp_a":
        op = draw(comparison)
        return f"a {op} {draw(st.integers(-20, 20))}"
    if kind == "cmp_b":
        op = draw(comparison)
        return f"b {op} {draw(st.integers(0, 5))}"
    if kind == "between_k":
        lo = draw(st.integers(0, 25))
        return f"k BETWEEN {lo} AND {lo + draw(st.integers(0, 10))}"
    if kind == "flipped_a":
        op = draw(comparison)
        return f"{draw(st.integers(-20, 20))} {op} a"
    if kind == "null_a":
        op = draw(comparison)
        return f"a {op} NULL"
    if kind == "builtin_k":
        op = draw(comparison)
        return f"k {op} abs({draw(st.integers(-25, 0))})"
    if kind == "in_a":
        members = draw(st.lists(st.integers(-20, 20), min_size=1,
                                max_size=4))
        return f"a IN ({', '.join(map(str, members))})"
    left = draw(predicates())
    right = draw(predicates())
    joiner = "AND" if kind == "and" else "OR"
    return f"({left}) {joiner} ({right})"


QUERIES = (
    "SELECT k, a, b, s FROM t WHERE {pred}",
    "SELECT COUNT(*), SUM(b) FROM t WHERE {pred}",
    "SELECT b, COUNT(*) FROM t WHERE {pred} GROUP BY b",
    "SELECT s, u.v FROM t, u WHERE t.b = u.k AND ({pred})",
)


def _lit(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return f"'{value}'"
    return str(value)


def outcome(db, sql):
    """Canonical result, or the error — twins must agree on both.

    An unqualified `k` is ambiguous in the join template (t.k vs u.k);
    the planner must reject it identically whichever join order wins.
    """
    try:
        result = db.execute(sql)
    except ReproError as exc:
        return ("error", str(exc))
    return canonical(result.columns, result.rows)


def build_twins(rows):
    """An un-ANALYZEd database, its ANALYZEd twin and an index-free
    twin (no primary key, no secondary index), same content."""
    twins = []
    for indexed in (True, True, False):
        db = Database()
        key_type = "INTEGER PRIMARY KEY" if indexed else "INTEGER"
        db.execute(f"CREATE TABLE t (k {key_type}, a INTEGER, "
                   "b INTEGER, s TEXT)")
        if indexed:
            db.execute("CREATE INDEX t_a ON t (a)")
        db.execute("CREATE TABLE u (k INTEGER PRIMARY KEY, v TEXT)")
        for key in range(6):
            db.execute(f"INSERT INTO u VALUES ({key}, 'v{key}')")
        for key, (a, b, s) in enumerate(rows):
            db.execute(f"INSERT INTO t VALUES ({key}, {_lit(a)}, "
                       f"{_lit(b)}, {_lit(s)})")
        twins.append(db)
    twins[1].execute("ANALYZE")
    return twins


@given(rows=rows_strategy, predicate=predicates(),
       query=st.sampled_from(QUERIES))
@settings(max_examples=120, deadline=None)
def test_random_workloads_plan_equivalently(rows, predicate, query):
    heuristic, analyzed, _index_free = build_twins(rows)
    sql = query.format(pred=predicate)
    assert outcome(analyzed, sql) == outcome(heuristic, sql)


@given(rows=rows_strategy, predicate=predicates())
@settings(max_examples=30, deadline=None)
def test_random_workloads_agree_as_of(rows, predicate):
    # Statistics gathered after the pin must not perturb AS OF reads.
    heuristic, analyzed, _index_free = build_twins(rows)
    for db in (heuristic, analyzed):
        db.executescript("BEGIN; COMMIT WITH SNAPSHOT;")
        db.execute("DELETE FROM t WHERE b >= 3")
    analyzed.execute("ANALYZE")
    sql = f"SELECT AS OF 1 k, a, b, s FROM t WHERE {predicate}"
    assert outcome(analyzed, sql) == outcome(heuristic, sql)


DML = (
    "DELETE FROM t WHERE {pred}",
    # The updated column is the indexed one: rows move inside the very
    # index the statement may be walking.
    "UPDATE t SET a = a + 1 WHERE {pred}",
)


def dml_outcome(db, sql):
    try:
        rowcount = db.execute(sql).rowcount
    except ReproError as exc:
        return ("error", str(exc))
    return rowcount, outcome(db, "SELECT k, a, b, s FROM t")


@given(rows=rows_strategy, predicate=predicates(),
       statement=st.sampled_from(DML))
@settings(max_examples=100, deadline=None)
def test_access_path_never_changes_which_rows_dml_touches(
        rows, predicate, statement):
    heuristic, analyzed, index_free = build_twins(rows)
    sql = statement.format(pred=predicate)
    expected = dml_outcome(index_free, sql)
    assert dml_outcome(heuristic, sql) == expected
    assert dml_outcome(analyzed, sql) == expected


def test_dml_never_consults_statistics(monkeypatch):
    # The order rows are deleted/updated in decides B-tree page layout
    # and therefore Pagelog/Maplog bytes; it must not depend on ANALYZE.
    from repro.sql.database import _Context

    _heuristic, analyzed, _index_free = build_twins(
        [(i - 5, i % 3, "x") for i in range(12)])

    def refuse(self, name):
        raise AssertionError(f"DML looked up statistics for {name}")

    monkeypatch.setattr(_Context, "table_stats", refuse)
    assert analyzed.execute("DELETE FROM t WHERE a = 2").rowcount == 1
    assert analyzed.execute(
        "UPDATE t SET a = a + 1 WHERE k BETWEEN 2 AND 4").rowcount == 3
