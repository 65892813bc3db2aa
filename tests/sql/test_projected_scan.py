"""A single-table scan decodes each record only as far as the statement
reads.

The planner gives a scan step a *width*: one past the highest column
position any column reference of the statement names
(:func:`repro.sql.planner.read_width`).  The record codec stops after
that many values, and a leaf's entry memo records the width it was
filled at (DESIGN.md, "The node cache contract").  These tests pin:

(a) the width equals what static resolution says the statement reads,
    for every single-table SELECT in ``examples/`` and the golden-plan
    corpus;
(b) ``decode_record(raw, w) == decode_record(raw)[:w]``;
(c) a probe or a write after a narrow fill sees whole rows;
(d) a wide scan after a narrow fill decodes each leaf once, and then
    both widths borrow the wide memo;
(e) a reference the width missed fails loudly instead of reading NULL.
"""

from __future__ import annotations

import ast as pyast
import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.query.sqlfile import SqlCorpus
from repro.sql import executor, planner
from repro.sql.database import Database
from repro.sql.expressions import flatten_from
from repro.sql.parser import parse_one
from repro.sql.planner import _SelectPlanner, read_width
from repro.sql.semantic import ContextSchema, resolve_select
from repro.storage.page import PAGE_TYPE_BTREE_LEAF
from repro.storage.record import decode_record, encode_record
from repro.workloads.corpus import SNAPIDS_DDL
from repro.workloads.loggedin import LOGGEDIN_DDL
from repro.workloads.plans import PLAN_CORPUS
from repro.workloads.tpch.schema import ALL_DDL

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = ROOT / "examples"
SESSION_FUNCTIONS = ("current_snapshot", "snapshot_id", "rql_workers")


# ---------------------------------------------------------------------------
# (a) the planner's width is what the statement reads
# ---------------------------------------------------------------------------

def _database(*ddl: str) -> Database:
    db = Database()
    for statement in ddl:
        db.executescript(statement)
    for name in SESSION_FUNCTIONS:
        db.register_function(name, lambda *args: 1)
    return db


def _example_sql_statements():
    """(DDL, [SELECT text]) of the annotated example corpus: every
    case's Qq and Qs."""
    corpus = SqlCorpus("examples/retrospective_queries.sql").parse(
        (EXAMPLES / "retrospective_queries.sql").read_text())
    ddl = "\n".join(corpus.ddl_lines)
    texts = [text for case in corpus.cases for text in (case.qq, case.qs)]
    return ddl, texts


def _example_py_statements():
    """Every string constant of the Python examples that is a SELECT."""
    texts = []
    for path in sorted(EXAMPLES.glob("*.py")):
        for node in pyast.walk(pyast.parse(path.read_text())):
            if isinstance(node, pyast.Constant) \
                    and isinstance(node.value, str) \
                    and node.value.lstrip().upper().startswith("SELECT "):
                texts.append(node.value)
    return texts


def _width_cases(db: Database, texts):
    """(text, expected width, planner's width or None, read_width) for
    each text that parses as a single-table SELECT over ``db``."""
    cases = []
    for text in texts:
        try:
            select = parse_one(text)
        except Exception:
            continue  # a fragment of an f-string
        if select.source is None or len(flatten_from(select.source)[0]) != 1:
            continue
        select = dataclasses.replace(select, as_of=None)
        table = flatten_from(select.source)[0][0].name
        with db._select_context(select) as ctx:
            summary = resolve_select(select, ContextSchema(ctx))
            if not summary.resolved or summary.unknown_functions:
                continue  # a result table, or the UDF call form
            columns = ctx.open_table(table).info.column_names()
            positions = [c.lower() for c in columns]
            read = summary.read_columns.get(table, [])
            expected = 1 + max((positions.index(c.lower()) for c in read),
                               default=-1)
            select_planner = _SelectPlanner(select, ctx)
            select_planner.columns_and_rows()
            step = select_planner.plan.steps[0]
            planned = step.width if step.access.kind == "scan" else None
            cases.append((text, expected, planned,
                          read_width(select, columns)))
    return cases


def test_the_width_is_one_past_the_last_column_the_statement_reads():
    sql_ddl, sql_texts = _example_sql_statements()
    corpus_ddl = [ddl for _, ddl in ALL_DDL] + [LOGGEDIN_DDL, SNAPIDS_DDL]
    examples_db = _database(SNAPIDS_DDL, sql_ddl)
    corpus_db = _database(*corpus_ddl)
    try:
        cases = _width_cases(examples_db, sql_texts)
        cases += _width_cases(
            corpus_db,
            [entry.sql for entry in PLAN_CORPUS] + _example_py_statements())
    finally:
        examples_db.close()
        corpus_db.close()
    assert len(cases) >= 20
    planned = [case for case in cases if case[2] is not None]
    assert len(planned) >= 10
    # Some statements read a proper prefix of their table, some all of it.
    assert any(expected == 0 for _, expected, _, _ in cases)
    assert len({expected for _, expected, _, _ in cases}) >= 3
    for text, expected, width, computed in cases:
        assert computed == expected, text
        assert width in (None, expected), text


@pytest.mark.parametrize("sql, width", [
    ("SELECT COUNT(*) FROM t", 0),
    ("SELECT a FROM t", 1),
    ("SELECT COUNT(*) FROM t WHERE b > 1", 2),
    ("SELECT COUNT(*) FROM t GROUP BY b", 2),
    ("SELECT a FROM t GROUP BY a HAVING MAX(b) > 1", 2),
    ("SELECT a FROM t ORDER BY b", 2),
    ("SELECT a AS x FROM t ORDER BY x", 1),
    ("SELECT a AS c FROM t ORDER BY c", 3),   # c names a column too
    ("SELECT LENGTH(c) FROM t", 3),
    ("SELECT * FROM t", 3),
    ("SELECT t.* FROM t", 3),
])
def test_every_clause_counts_and_a_star_reads_every_column(sql, width):
    assert read_width(parse_one(sql), ["a", "b", "c"]) == width


def test_a_join_reads_whole_records(decodes):
    db = _database("CREATE TABLE t (a INTEGER, b INTEGER, c TEXT);"
                   "CREATE TABLE u (x INTEGER, y INTEGER, z TEXT)")
    try:
        db.execute("INSERT INTO t VALUES (1, 2, 'z'), (2, 3, 'y')")
        db.execute("INSERT INTO u VALUES (1, 5, 'w')")
        del decodes[:]
        assert db.execute(
            "SELECT a, y FROM t JOIN u ON t.a = u.x").rows == [(1, 5)]
        assert decodes and set(decodes) == {None}
    finally:
        db.close()


# ---------------------------------------------------------------------------
# (b) the codec
# ---------------------------------------------------------------------------

_values = st.one_of(
    st.none(), st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1),
    st.floats(allow_nan=False), st.text(max_size=12),
    st.binary(max_size=12))


@settings(max_examples=200, deadline=None)
@given(st.lists(_values, max_size=10), st.integers(min_value=0,
                                                     max_value=13))
def test_a_cut_decode_is_a_prefix_of_the_whole_decode(values, width):
    raw = encode_record(values)
    assert decode_record(raw, width) == decode_record(raw)[:width]
    assert decode_record(raw, None) == decode_record(raw)


# ---------------------------------------------------------------------------
# (c) and (d): the memo's width
# ---------------------------------------------------------------------------

ROWS = 60


@pytest.fixture
def db():
    db = Database(page_size=1024)
    db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER, pad TEXT)")
    db.execute("INSERT INTO t VALUES "
               + ", ".join(f"({k}, {k % 5}, 'pad{k}')" for k in range(ROWS)))
    yield db
    db.close()


@pytest.fixture
def decodes(monkeypatch):
    """The width of every executor ``decode_record`` call since the last
    reset (None for a whole record)."""
    calls = []

    def counting(raw, width=None):
        calls.append(width)
        return decode_record(raw, width)

    monkeypatch.setattr(executor, "decode_record", counting)
    return calls


def leaf_memos(db):
    """[(width, entries)] of every leaf memo of ``t`` (None if unfilled)."""
    with db._select_context(parse_one("SELECT 1")) as ctx:
        tree = ctx.open_table("t").tree
        pages = [tree.source.fetch(pid) for pid in tree.page_ids()]
        return [None if page.node is None or page.node.entries is None
                else page.node.entries[1:]
                for page in pages if page.page_type == PAGE_TYPE_BTREE_LEAF]


def test_a_probe_after_a_narrow_fill_reads_the_whole_row(db, decodes):
    assert db.execute("SELECT SUM(k) FROM t").scalar() == sum(range(ROWS))
    memos = leaf_memos(db)
    assert len(memos) > 1
    assert all(width == 1 and all(len(row) == 1 for _, row in entries)
               for width, entries in memos)
    assert set(decodes) == {1}
    with db._select_context(parse_one("SELECT 1")) as ctx:
        assert ctx.open_table("t").get(30) == (30, 0, "pad30")
    assert db.execute("SELECT * FROM t WHERE k = 12").rows \
        == [(12, 2, "pad12")]
    assert db.execute("SELECT pad FROM t WHERE k BETWEEN 3 AND 5").rows \
        == [("pad3",), ("pad4",), ("pad5",)]
    # A write locates rows through the same tree: whole rows go back.
    db.execute("UPDATE t SET v = 9 WHERE k = 7")
    db.execute("UPDATE t SET v = v + 1 WHERE v = 4")
    assert db.execute("SELECT * FROM t WHERE k IN (4, 7)").rows \
        == [(4, 5, "pad4"), (7, 9, "pad7")]
    assert db.execute("SELECT COUNT(*) FROM t WHERE pad LIKE 'pad%'") \
        .scalar() == ROWS


def test_a_wide_scan_after_a_narrow_fill_decodes_each_leaf_once(db,
                                                                 decodes):
    narrow = db.execute("SELECT k FROM t WHERE k + 0 >= 0").rows
    assert narrow == [(k,) for k in range(ROWS)]
    assert decodes == [1] * ROWS
    del decodes[:]
    wide = db.execute("SELECT * FROM t").rows
    assert wide == [(k, k % 5, f"pad{k}") for k in range(ROWS)]
    assert decodes == [None] * ROWS
    assert all(width is None for width, _ in leaf_memos(db))
    del decodes[:]
    assert db.execute("SELECT k FROM t WHERE k + 0 >= 0").rows == narrow
    assert db.execute("SELECT k, v FROM t").rows == [r[:2] for r in wide]
    assert db.execute("SELECT COUNT(*) FROM t").scalar() == ROWS
    assert db.execute("SELECT * FROM t").rows == wide
    assert decodes == []


def test_a_wider_narrow_scan_refills_and_a_narrower_one_borrows(db,
                                                                decodes):
    db.execute("SELECT k FROM t")
    del decodes[:]
    assert db.execute("SELECT v, k FROM t WHERE v = 1").rows \
        == [(1, k) for k in range(ROWS) if k % 5 == 1]
    assert decodes == [2] * ROWS
    assert all(width == 2 for width, _ in leaf_memos(db))
    del decodes[:]
    assert db.execute("SELECT MAX(k) FROM t").scalar() == ROWS - 1
    assert decodes == []


# ---------------------------------------------------------------------------
# (e) a missed read is an error
# ---------------------------------------------------------------------------

def test_a_read_the_width_missed_raises_instead_of_reading_null(
        db, monkeypatch):
    monkeypatch.setattr(planner, "read_width", lambda select, columns: 1)
    with pytest.raises(IndexError):
        db.execute("SELECT v FROM t")
    with pytest.raises(IndexError):
        db.execute("SELECT k FROM t ORDER BY pad")
