"""One resolution of a SELECT: the merge certificate's front half
(``semantic.resolve_select``) and EXPLAIN's SEMANTIC lines describe the
statement that executes — its output names, the columns it reads and
the index each pushed conjunct is actually searched through.

The property runs generated one- and two-table statements through a
snapshot cursor and compares; the named tests pin cases where the two
accounts used to disagree."""

import sqlite3
from contextlib import contextmanager

from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from repro.core.session import RQLSession
from repro.errors import ReproError
from repro.sql.expressions import Scope
from repro.sql.parser import parse_sql
from repro.sql.planner import ROWID_PATH
from repro.sql.semantic import ContextSchema, resolve_select

QS = "SELECT snap_id FROM SnapIds ORDER BY snap_id"

DDL = """
CREATE TABLE t (k INTEGER PRIMARY KEY, a INTEGER, b TEXT, c INTEGER);
CREATE INDEX t_a ON t (a);
CREATE TABLE u (id INTEGER PRIMARY KEY, k INTEGER, label TEXT);
CREATE INDEX u_k ON u (k);
"""
ROWS = """
INSERT INTO t VALUES (1, 1, 'x', 10), (2, 1, 'y', 20), (3, 2, 'x', 30),
                     (4, 5, 'z', NULL);
INSERT INTO u VALUES (1, 1, 'one'), (2, 3, 'three'), (3, 3, 'tres');
"""
COLUMNS = {"t": ("k", "a", "b", "c"), "u": ("id", "k", "label")}
TEXT_COLUMNS = {"b", "label"}

_SESSIONS = {}


def history(analyzed: bool) -> RQLSession:
    """A session holding ``t`` and ``u`` at snapshot 1 (ANALYZEd or
    not), built once per module."""
    if analyzed not in _SESSIONS:
        session = RQLSession()
        session.db.executescript(DDL)
        with session.transaction(with_snapshot=True, name="one"):
            session.db.executescript(ROWS)
        if analyzed:
            session.execute("ANALYZE")
        _SESSIONS[analyzed] = session
    return _SESSIONS[analyzed]


def parse_one(sql):
    (statement,) = parse_sql(sql)
    return statement


@contextmanager
def resolutions():
    """The (binding, column) pairs the executor binds a name to while
    the block runs: every successful :meth:`Scope.resolve` over a FROM
    table's row (the aggregated row's scope has no binding)."""
    seen = set()
    real = Scope.resolve

    def resolve(self, ref):
        pos = real(self, ref)
        binding, column = self.bindings[pos]
        if binding:
            seen.add((binding.lower(), column.lower()))
        return pos

    Scope.resolve = resolve
    try:
        yield seen
    finally:
        Scope.resolve = real


def certificate_summary(session, sql):
    """The summary a run's certificate is made of: the Qq resolved in a
    read context of the live database."""
    with session.db.reading() as ctx:
        return resolve_select(parse_one(sql), ContextSchema(ctx))


def explain(session, sql):
    return [row[0] for row in session.execute("EXPLAIN " + sql).rows]


def searched_indexes(notes):
    """Index names (and ROWID_PATH) the access lines search through."""
    found = set()
    for note in notes:
        if not note.startswith("SEARCH "):
            continue
        if f"USING {ROWID_PATH} " in note:
            found.add(ROWID_PATH)
        elif " USING INDEX " in note:
            found.add(note.split(" USING INDEX ")[1].split(" ")[0])
    return found


def index_verdicts(notes):
    verdicts = []
    for note in notes:
        if note.startswith("SEMANTIC: pushdown ") and "[index " in note:
            verdicts.append(note.rsplit("[index ", 1)[1].rstrip("]"))
    return verdicts


# ---------------------------------------------------------------------------
# The property
# ---------------------------------------------------------------------------


@st.composite
def statements(draw):
    """One- and two-table SELECTs over t and u: indexed (``a``, ``u.k``),
    rowid-alias (``k``, ``id``) and unindexed columns; aliases in WHERE,
    GROUP BY, HAVING and ORDER BY; stars, unaliased calls,
    ``current_snapshot()`` items and IN lists."""
    source = draw(st.sampled_from(
        ["t", "u", "t, u", "t JOIN u ON t.k = u.k", "u JOIN t ON u.k = t.a"]))
    tables = [name for name in ("t", "u") if name in source.split()
              or f"{name}," in source]
    pairs = [(table, column) for table in tables
             for column in COLUMNS[table]]

    def ref(pair):
        table, column = pair
        return f"{table}.{column}" if len(tables) == 2 else column

    def literal(pair):
        if pair[1] in TEXT_COLUMNS:
            return draw(st.sampled_from(["'x'", "'one'", "'z'"]))
        return str(draw(st.integers(0, 4)))

    items, plain_aliases, order_terms = [], [], []
    group_by, having = "", ""
    if draw(st.booleans()):
        # Aggregated: one grouping column, aggregate calls.
        group = ref(draw(st.sampled_from(pairs)))
        if draw(st.booleans()):
            items.append(f"{group} AS g")
            group_by = draw(st.sampled_from(["g", group]))
            order_terms.append("g")
        else:
            items.append(group)
            group_by = group
            order_terms.append(group)
        for n in range(draw(st.integers(1, 2))):
            call = draw(st.sampled_from(
                ["COUNT(*)", "SUM({})", "MAX({})", "MIN({})"]))
            call = call.format(ref(draw(st.sampled_from(pairs))))
            if draw(st.booleans()):
                items.append(f"{call} AS s{n}")
                order_terms.append(f"s{n}")
                having = having or f"s{n} IS NOT NULL"
            else:
                items.append(call)
        if draw(st.booleans()):
            items.append("current_snapshot()")
        if not draw(st.booleans()):
            having = ""
        having = having or draw(st.sampled_from(["", "COUNT(*) > 0"]))
    else:
        for n in range(draw(st.integers(1, 3))):
            pair = draw(st.sampled_from(pairs))
            kind = draw(st.sampled_from(
                ["star", "table star", "column", "alias", "call",
                 "current_snapshot", "constant", "arithmetic"]))
            if kind == "star":
                items.append("*")
            elif kind == "table star":
                items.append(f"{pair[0]}.*")
            elif kind == "column":
                items.append(ref(pair))
                order_terms.append(ref(pair))
            elif kind == "alias":
                items.append(f"{ref(pair)} AS x{n}")
                plain_aliases.append((f"x{n}", pair))
                order_terms.append(f"x{n}")
            elif kind == "call":
                items.append(f"ABS({ref(pair)})")
            elif kind == "current_snapshot":
                items.append("current_snapshot()")
            elif kind == "constant":
                items.append("7")
            else:
                items.append(f"{ref(pair)} + 1")
        order_terms.append("1")

    conjuncts = []
    for _ in range(draw(st.integers(0, 3))):
        pair = draw(st.sampled_from(pairs))
        name = ref(pair)
        if plain_aliases and draw(st.booleans()):
            name, pair = draw(st.sampled_from(plain_aliases))
        shape = draw(st.sampled_from(["=", ">", "between", "in"]))
        if shape == "between":
            conjuncts.append(f"{name} BETWEEN {literal(pair)} "
                             f"AND {literal(pair)}")
        elif shape == "in":
            conjuncts.append(f"{name} IN ({literal(pair)}, "
                             f"{literal(pair)})")
        else:
            conjuncts.append(f"{name} {shape} {literal(pair)}")
    if len(tables) == 2 and "JOIN" not in source and draw(st.booleans()):
        conjuncts.append("t.k = u.k")

    sql = f"SELECT {', '.join(items)} FROM {source}"
    if conjuncts:
        sql += " WHERE " + " AND ".join(conjuncts)
    if group_by:
        sql += f" GROUP BY {group_by}"
    if having:
        sql += f" HAVING {having}"
    if order_terms and draw(st.booleans()):
        sql += f" ORDER BY {draw(st.sampled_from(order_terms))}"
    return sql


@given(sql=statements(), analyzed=st.booleans())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_the_summary_describes_the_statement_that_runs(sql, analyzed):
    session = history(analyzed)
    select = parse_one(sql)
    with resolutions() as resolved:
        try:
            columns, rows = session.db.open_cursor(select, snapshot_id=1)
            list(rows)
        except ReproError:
            reject()

    summary = certificate_summary(session, sql)
    assert summary.resolved, summary.issues
    assert [output.name for output in summary.outputs] == columns
    reads = {(table.lower(), column.lower())
             for table, read in summary.read_columns.items()
             for column in read}
    assert reads == resolved

    if "current_snapshot" not in sql:  # no such function outside a run
        notes = explain(session, sql)
        assert set(index_verdicts(notes)) <= searched_indexes(notes), notes


# ---------------------------------------------------------------------------
# Cases where the two accounts used to disagree
# ---------------------------------------------------------------------------


def fresh(*statements):
    session = RQLSession()
    for statement in statements:
        session.execute(statement)
    return session


def test_a_scan_chosen_by_statistics_gets_no_index_verdict():
    session = fresh(
        "CREATE TABLE t (a INTEGER, b INTEGER)",
        "CREATE INDEX t_a ON t (a)",
        "INSERT INTO t VALUES (1, 1), (1, 2), (1, 3)",
        "ANALYZE")
    notes = explain(session, "SELECT a FROM t WHERE a = 1")
    assert notes[0] == "SCAN t"
    assert "SEMANTIC: pushdown a = 1" in notes


def test_an_in_list_is_not_index_served():
    session = fresh(
        "CREATE TABLE t (a INTEGER, grp TEXT)",
        "CREATE INDEX t_grp ON t (grp)")
    notes = explain(session, "SELECT a FROM t WHERE grp IN ('a', 'b')")
    assert notes[0] == "SCAN t"
    assert "SEMANTIC: pushdown grp IN ('a', 'b')" in notes


def test_an_alias_in_where_is_the_column_it_names():
    session = fresh(
        "CREATE TABLE t (a INTEGER, b INTEGER)",
        "CREATE INDEX t_a ON t (a)")
    notes = explain(session, "SELECT a AS x FROM t WHERE x > 1")
    assert notes[0] == "SEARCH t USING INDEX t_a (range)"
    assert "SEMANTIC: pushdown a > 1 [index t_a]" in notes

    unindexed = fresh("CREATE TABLE t (a INTEGER, b INTEGER)")
    certificate = unindexed.certify(
        "CollateData", QS, "SELECT a AS x FROM t WHERE x > 1")
    assert [f.message for f in certificate.findings if f.rule == "RQL104"] \
        == ["pushable predicate a > 1 has no index leading with t.a: "
            "every snapshot iteration full-scans the table"]


def test_grouped_outputs_are_named_as_the_run_names_them():
    session = fresh("CREATE TABLE t (g TEXT, v INTEGER)")
    with session.transaction(with_snapshot=True, name="one"):
        session.execute("INSERT INTO t VALUES ('a', 1), ('a', 2)")
    qq = "SELECT g, SUM(v), current_snapshot() FROM t GROUP BY g"
    summary = certificate_summary(session, qq)
    session.collate_data(QS, qq, "R")
    columns = session.execute("SELECT * FROM R").columns
    assert [output.name for output in summary.outputs] == columns \
        == ["g", "SUM()", "column3"]


def test_a_table_fold_pair_may_name_an_unaliased_call():
    session = fresh("CREATE TABLE t (g TEXT, v INTEGER)")
    with session.transaction(with_snapshot=True, name="one"):
        session.execute("INSERT INTO t VALUES ('a', 1), ('a', 2)")
    qq = "SELECT g, SUM(v) FROM t GROUP BY g"
    pairs = [("SUM()", "max")]
    certificate = session.certify("AggregateDataInTable", QS, qq, pairs)
    assert [f.rule for f in certificate.errors] == []
    session.aggregate_data_in_table(QS, qq, "R", pairs)
    assert session.execute("SELECT * FROM R").rows == [("a", 3)]


def test_a_star_names_the_columns_in_from_order():
    """The join order is the planner's (a single-table conjunct puts
    ``u`` first here); ``*`` still lists the FROM tables' columns in
    FROM order, as sqlite3 does."""
    script = ("CREATE TABLE t (k INTEGER, a INTEGER);"
              "CREATE TABLE u (id INTEGER, label TEXT);"
              "INSERT INTO t VALUES (1, 2);"
              "INSERT INTO u VALUES (3, 'x');")
    sql = "SELECT * FROM t, u WHERE u.id = 3"
    session = RQLSession()
    session.db.executescript(script)
    assert explain(session, sql)[:2] == ["SCAN u", "CROSS JOIN t"]
    result = session.execute(sql)
    oracle = sqlite3.connect(":memory:")
    oracle.executescript(script)
    cursor = oracle.execute(sql)
    assert result.columns == [d[0] for d in cursor.description] \
        == ["k", "a", "id", "label"]
    assert result.rows == cursor.fetchall() == [(1, 2, 3, "x")]
