"""The AST binder against the text path.

``prepare_qq(qq).bind(sid)`` is what every snapshot loop runs;
``parse_one(rewrite_qq(qq, sid))`` is the paper's textual rewrite and the
reference.  The contract is dataclass equality of the two statements
(DESIGN.md §3c), and everything else follows from it:

(a) equality over every Qq the repository ships and over Hypothesis-built
    SELECTs with calls in every clause;
(b) the error table — the same class (and, for the three binding
    errors, message) on both paths;
(c) ``bind`` never mutates the prepared tree and shares what it can;
(d) result-level differential: the four mechanisms, serial and
    partitioned, and a view refresh, against a loop that runs the
    rewritten *text* through ``Database.execute`` per snapshot — over a
    history in which an index appears and a table disappears;
(e) a 70-snapshot run parses Qq once, on either path at any worker count;
plus the regression tests of the binder's bug fix: only a *call* of
``current_snapshot`` is special, a column or alias of that name is not.
"""

from __future__ import annotations

import ast as python_ast
import copy
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.query.sqlfile import SqlCorpus
from repro.bench import harness as bench_harness
from repro.core import RQLSession
from repro.core.folds import find_mechanism
from repro.core.rewrite import prepare_qq, rewrite_qq
from repro.errors import LexerError, MechanismError, ParseError, SqlError
from repro.retro.metrics import MetricsSink
from repro.sql import ast, parser
from repro.sql.parser import parse_one
from repro.workloads.corpus import CORPUS
from repro.workloads.tpch import queries as tpch_queries

SNAPSHOT_IDS = (1, 2 ** 31)
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def text_path(qq: str, sid: int) -> ast.Select:
    return parse_one(rewrite_qq(qq, sid))


def assert_binds_like_the_text(qq: str) -> None:
    prepared = prepare_qq(qq)
    for sid in SNAPSHOT_IDS:
        assert prepared.bind(sid) == text_path(qq, sid), qq


# ---------------------------------------------------------------------------
# (a) AST equality
# ---------------------------------------------------------------------------

def _example_selects():
    """Every SELECT the examples contain: the Qq of each case of the
    annotated .sql corpus, and each string constant of the .py files
    that starts with SELECT (Qs and Qq alike)."""
    found = []
    for path in sorted(EXAMPLES.glob("*.sql")):
        cases = SqlCorpus(path.name).parse(path.read_text()).cases
        found.extend((f"{path.name}:{c.name}", c.qq) for c in cases)
    for path in sorted(EXAMPLES.glob("*.py")):
        nodes = list(python_ast.walk(python_ast.parse(path.read_text())))
        fragments = {id(part) for node in nodes
                     if isinstance(node, python_ast.JoinedStr)
                     for part in node.values}  # pieces of an f-string
        for node in nodes:
            if isinstance(node, python_ast.Constant) \
                    and isinstance(node.value, str) \
                    and id(node) not in fragments \
                    and node.value.lstrip().upper().startswith("SELECT"):
                found.append((f"{path.name}:{node.lineno}", node.value))
    return found


SHIPPED = (
    [(f"corpus:{e.name}", e.qq) for e in CORPUS]
    + [("tpch:q1", tpch_queries.Q1_PRICING_SUMMARY),
       ("tpch:q3", tpch_queries.q3()), ("tpch:q6", tpch_queries.q6())]
    + [(f"bench:{name}", getattr(bench_harness, name))
       for name in sorted(vars(bench_harness))
       if name.startswith("QQ_")
       and isinstance(getattr(bench_harness, name), str)]
    + _example_selects()
)


def test_the_shipped_set_is_not_empty():
    sources = {label.split(":")[0] for label, _ in SHIPPED}
    assert {"corpus", "tpch", "bench", "retrospective_queries.sql",
            "quickstart.py"} <= sources
    assert any("current_snapshot" in qq.lower() for _, qq in SHIPPED)


@pytest.mark.parametrize("qq", [qq for _, qq in SHIPPED],
                         ids=[label for label, _ in SHIPPED])
def test_shipped_queries_bind_like_the_text(qq):
    try:
        rewrite_qq(qq, 1)
    except MechanismError as refusal:
        # e.g. the corpus' AS OF entry: both paths refuse it alike.
        with pytest.raises(MechanismError, match=str(refusal)):
            prepare_qq(qq)
        return
    assert_binds_like_the_text(qq)


#: one call per clause, by hand, so no clause is left to chance
ONE_CLAUSE_EACH = [
    "SELECT current_snapshot() FROM t",
    "SELECT DISTINCT a, current_snapshot() AS sid FROM t",
    "SELECT ALL current_snapshot() + 1 FROM t;",
    "SELECT a FROM t JOIN u ON t.a = current_snapshot()",
    "SELECT a FROM t INNER JOIN u ON u.b = t.a JOIN w "
    "ON w.c < current_snapshot()",
    "SELECT a FROM t WHERE b = current_snapshot()",
    "SELECT a FROM t GROUP BY a, current_snapshot()",
    "SELECT a FROM t GROUP BY a HAVING COUNT(*) > current_snapshot()",
    "SELECT a FROM t ORDER BY current_snapshot() DESC, a",
    "SELECT a FROM t LIMIT current_snapshot()",
    "SELECT a FROM t LIMIT 3 OFFSET current_snapshot()",
    "SELECT a FROM t LIMIT current_snapshot(), 3",
    "SELECT current_snapshot()",
    # nested
    "SELECT SUM(current_snapshot()), COUNT(DISTINCT current_snapshot()) "
    "FROM t",
    "SELECT CASE a WHEN current_snapshot() THEN 1 "
    "ELSE current_snapshot() END FROM t",
    "SELECT CASE WHEN a > 1 THEN current_snapshot() END FROM t",
    "SELECT a FROM t WHERE a IN (1, current_snapshot(), 3)",
    "SELECT a FROM t WHERE current_snapshot() NOT IN (a, b)",
    "SELECT a FROM t WHERE a BETWEEN current_snapshot() - 2 "
    "AND current_snapshot()",
    "SELECT a FROM t WHERE NOT (a = -current_snapshot()) "
    "AND b LIKE 'x' || current_snapshot()",
    "SELECT a FROM t WHERE abs(current_snapshot()) IS NOT NULL",
    # spelling
    "SELECT Current_Snapshot(), CURRENT_SNAPSHOT ( ), current_snapshot(\n) "
    "FROM t",
    "select current_snapshot /* really */ () from t",
    'SELECT "current_snapshot"() FROM t',
    # what must not be touched
    "SELECT 'select current_snapshot()', a -- current_snapshot(1)\nFROM t",
    "/* SELECT AS OF 3 */ SELECT a /* current_snapshot() */ FROM t ;",
    "  SELECT 'it''s', x'00ff' FROM t  ;  ",
    # a name is not a call
    "SELECT a AS current_snapshot FROM t",
    "SELECT a current_snapshot FROM t",
    "SELECT t.current_snapshot FROM t",
    "SELECT current_snapshot, current_snapshot() FROM t "
    "ORDER BY current_snapshot",
    "SELECT a FROM t current_snapshot "
    "WHERE current_snapshot.a = current_snapshot()",
]


@pytest.mark.parametrize("qq", ONE_CLAUSE_EACH)
def test_each_clause_binds_like_the_text(qq):
    assert_binds_like_the_text(qq)


def test_the_select_list_literal_is_named_like_the_injected_one():
    """Column naming follows from AST equality: a call in the select
    list is the literal the text path injects, hence ``column2``."""
    db = RQLSession().db
    db.execute("CREATE TABLE t (a)")
    sid = db.declare_snapshot()
    qq = "SELECT a, current_snapshot(), current_snapshot() AS s FROM t"
    columns, rows = db.open_cursor(prepare_qq(qq).bind(sid))
    rows.close()
    assert columns == db.execute(rewrite_qq(qq, sid)).columns \
        == ["a", "column2", "s"]


# -- Hypothesis-built SELECTs ------------------------------------------------

_calls = st.sampled_from([
    "current_snapshot()", "CURRENT_SNAPSHOT()", "Current_Snapshot ( )",
    "current_snapshot(\n )", "current_snapshot/* () */()",
])
_atoms = st.one_of(
    _calls, _calls,
    st.sampled_from([
        "a", "b", "t.a", "u.b", "1", "2.5", "NULL", "current_snapshot",
        "t.current_snapshot", "'current_snapshot()'", "'select'",
        "'it''s AS OF 3'", "x'0a'",
    ]),
)


def _compound(inner):
    def fmt(template, count):
        return st.tuples(*[inner] * count).map(
            lambda parts: template.format(*parts))
    return st.one_of(
        fmt("({} + {})", 2), fmt("({} * {} - {})", 3), fmt("(- {})", 1),
        fmt("({} || {})", 2), fmt("abs({})", 1), fmt("coalesce({}, {})", 2),
        fmt("COUNT({})", 1), fmt("sum(DISTINCT {})", 1), fmt("MAX({})", 1),
        fmt("CASE WHEN {} > {} THEN {} ELSE {} END", 4),
        fmt("CASE {} WHEN {} THEN {} END", 3),
        fmt("({} IN ({}, {}))", 3), fmt("({} NOT IN ({}))", 2),
        fmt("({} BETWEEN {} AND {})", 3),
        fmt("({} NOT BETWEEN {} AND {})", 3),
        fmt("({} LIKE {})", 2), fmt("({} IS NOT NULL)", 1),
        fmt("({} = {} AND NOT {} < {})", 4), fmt("({} <> {} OR {})", 3),
    )


_exprs = st.recursive(_atoms, _compound, max_leaves=6)
_aliases = st.sampled_from(
    ["", "", " AS x", " y", " AS current_snapshot", " current_snapshot"])
_items = st.one_of(
    st.tuples(_exprs, _aliases).map("".join),
    st.sampled_from(["*", "t.*"]),
)
_keyword_case = st.sampled_from([str.upper, str.lower, str.title])
_comments = st.sampled_from([
    "", "", " /* select current_snapshot() */ ",
    " -- SELECT AS OF current_snapshot()\n",
])


def _optional(strategy):
    return st.one_of(st.just(""), strategy)


@st.composite
def selects(draw):
    kw = draw(_keyword_case)
    sql = draw(st.sampled_from(["", " ", "\n", "/* as of */ "]))
    sql += kw("select") + draw(_comments)
    sql += " " + kw(draw(st.sampled_from(["", "", "distinct ", "all "])))
    sql += ", ".join(draw(st.lists(_items, min_size=1, max_size=3)))
    if draw(st.booleans()):
        sql += " " + kw("from") + " t" + draw(st.sampled_from(
            ["", " AS t1", " current_snapshot"]))
        join = draw(st.sampled_from(["", ", u", "join", "inner join",
                                     "cross join"]))
        if "join" in join:
            sql += f" {kw(join)} u" + draw(_optional(
                _exprs.map(lambda e: f" {kw('on')} {e}")))
        else:
            sql += join
    sql += draw(_comments)
    sql += draw(_optional(_exprs.map(lambda e: f" {kw('where')} {e}")))
    if draw(st.booleans()):
        keys = draw(st.lists(_exprs, min_size=1, max_size=2))
        sql += f" {kw('group by')} " + ", ".join(keys)
        sql += draw(_optional(_exprs.map(lambda e: f" {kw('having')} {e}")))
    if draw(st.booleans()):
        keys = draw(st.lists(
            st.tuples(_exprs, st.sampled_from(["", " ASC", " desc"]))
            .map("".join), min_size=1, max_size=2))
        sql += f" {kw('order by')} " + ", ".join(keys)
    if draw(st.booleans()):
        sql += f" {kw('limit')} " + draw(_exprs)
        sql += draw(_optional(st.one_of(
            _exprs.map(lambda e: f" {kw('offset')} {e}"),
            _exprs.map(lambda e: f", {e}"))))
    return sql + draw(st.sampled_from(["", ";", " ; ", "\n;\n",
                                       " -- current_snapshot(2)"]))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(qq=selects(), sid=st.sampled_from(SNAPSHOT_IDS))
def test_generated_selects_bind_like_the_text(qq, sid):
    assert prepare_qq(qq).bind(sid) == text_path(qq, sid)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(qq=selects())
def test_references_current_snapshot_means_the_binding_varies(qq):
    prepared = prepare_qq(qq)
    varies = {k: v for k, v in vars(prepared.bind(1)).items()
              if k != "as_of"} \
        != {k: v for k, v in vars(prepared.bind(2)).items()
            if k != "as_of"}
    assert prepared.references_current_snapshot == varies


# ---------------------------------------------------------------------------
# (b) the error table
# ---------------------------------------------------------------------------

NOT_A_SELECT = "Qq must be a SELECT statement"
HAS_AS_OF = "Qq must not contain AS OF; RQL binds snapshots"
CALL_HAS_ARGUMENTS = "current_snapshot must be called with no arguments"

SAME_ON_BOTH_PATHS = [
    ("DELETE FROM t", MechanismError, NOT_A_SELECT),
    ("", MechanismError, NOT_A_SELECT),
    ("  ;  ", MechanismError, NOT_A_SELECT),
    ("BEGIN", MechanismError, NOT_A_SELECT),
    ("SELECT AS OF 3 * FROM t", MechanismError, HAS_AS_OF),
    ("select as of snapshot_id('x') a from t", MechanismError, HAS_AS_OF),
    ("SELECT current_snapshot(1) FROM t", MechanismError,
     CALL_HAS_ARGUMENTS),
    ("SELECT current_snapshot(*) FROM t", MechanismError,
     CALL_HAS_ARGUMENTS),
    ("SELECT current_snapshot(DISTINCT x) FROM t", MechanismError,
     CALL_HAS_ARGUMENTS),
    ("SELECT a FROM t WHERE a IN (SUM(Current_Snapshot(a, b)))",
     MechanismError, CALL_HAS_ARGUMENTS),
    ("SELECT 'unterminated FROM t", LexerError, None),
    ("SELECT a FROM t WHERE a = $1", LexerError, None),
    ("SELECT a FROM t /* open", LexerError, None),
    ("SELECT a FROM t WHERE", ParseError, None),
    ("SELECT FROM t", ParseError, None),
    ("SELECT a FROM t LEFT JOIN u ON 1", ParseError, None),
    ("SELECT a, FROM t GROUP a", ParseError, None),
]

#: the binder refuses at prepare what the text path let through to the
#: cursor (or to ``parse_one``), which raised a SqlError there
REFUSED_EARLIER = [
    "INSERT INTO t SELECT a FROM u",
    "EXPLAIN SELECT a FROM t",
    "CREATE TABLE x AS SELECT a FROM t",
    "SELECT a FROM t; SELECT b FROM t",
]


#: no SELECT keyword anywhere *and* no parse: the text path, which never
#: parsed before looking for the keyword, said "must be a SELECT"; the
#: binder reports the parser's own error
PARSER_SPEAKS_FIRST = ["SELEC a FROM t", "a FROM t", "(SELECT 1)"]


@pytest.mark.parametrize("qq", PARSER_SPEAKS_FIRST)
def test_a_qq_that_does_not_parse_raises_the_parsers_error(qq):
    with pytest.raises(ParseError):
        prepare_qq(qq)


@pytest.mark.parametrize("qq, error, message", SAME_ON_BOTH_PATHS)
def test_a_malformed_qq_raises_alike_on_both_paths(qq, error, message):
    for path in (lambda: text_path(qq, 1), lambda: prepare_qq(qq)):
        with pytest.raises(error) as raised:
            path()
        assert type(raised.value) is error
        if message is not None:
            assert str(raised.value) == message


def test_a_parse_error_is_positioned_in_the_users_text():
    qq = "SELECT a FROM t WHERE )"
    with pytest.raises(ParseError) as bound:
        prepare_qq(qq)
    with pytest.raises(ParseError) as rewritten:
        text_path(qq, 12345)
    assert bound.value.position == qq.index(")")
    assert rewritten.value.position == qq.index(")") + len(" AS OF 12345")


@pytest.mark.parametrize("qq", REFUSED_EARLIER)
def test_a_non_select_is_refused_at_prepare(qq):
    with pytest.raises(MechanismError, match=NOT_A_SELECT):
        prepare_qq(qq)
    session = RQLSession()
    session.execute("CREATE TABLE t (a)")
    session.execute("CREATE TABLE u (a)")
    sid = session.declare_snapshot()
    with pytest.raises(SqlError):
        session.db.execute_cursor(rewrite_qq(qq, sid))


@pytest.mark.parametrize("workers", [1, 2])
def test_errors_surface_on_the_first_iteration_and_write_nothing(workers):
    session = RQLSession()
    session.execute("CREATE TABLE t (a)")
    qs = "SELECT snap_id FROM SnapIds"
    bad = "SELECT current_snapshot(1), a FROM t"
    # Over an empty Qs the reference loop evaluates no iteration, so it
    # parses nothing and raises nothing; the product path prepares Qq
    # once before it reads Qs, so it refuses a malformed Qq regardless.
    session.run_reference("CollateData", qs, "INSERT INTO t SELECT 1", "R")
    with pytest.raises(MechanismError):
        session.collate_data(qs, "INSERT INTO t SELECT 1", "R",
                             workers=workers)
    session.declare_snapshot()
    session.declare_snapshot()
    for qq, error in ((bad, MechanismError), ("SELECT a FROM", SqlError),
                      ("UPDATE t SET a = 1", MechanismError)):
        with pytest.raises(error):
            session.collate_data(qs, qq, "R", workers=workers)
        with pytest.raises(SqlError, match="no such table"):
            session.execute('SELECT * FROM "R"')
    # A malformed Qs is reported before Qq is looked at.
    with pytest.raises(MechanismError, match="Qs must be a SELECT"):
        session.collate_data("DELETE FROM SnapIds", bad, "R", workers=workers)


# ---------------------------------------------------------------------------
# (c) bind never mutates, and shares what it does not rebuild
# ---------------------------------------------------------------------------

SHARING_QQ = ("SELECT a, current_snapshot() AS sid, b + 1 FROM t JOIN u "
              "ON t.a = u.a WHERE b > 2 AND c IN (1, current_snapshot()) "
              "GROUP BY a ORDER BY a LIMIT 5")


def test_bind_leaves_the_prepared_tree_as_parsed():
    prepared = prepare_qq(SHARING_QQ)
    as_prepared = copy.deepcopy(prepared.statement)
    bound = [prepared.bind(sid) for sid in range(1, 101)]
    assert prepared.statement == as_prepared == parse_one(SHARING_QQ)
    assert prepared.statement.as_of is None
    assert len({id(b) for b in bound}) == 100
    assert [b.as_of.value for b in bound] == list(range(1, 101))
    assert bound[0] != bound[1]


def test_bind_builds_new_nodes_only_on_the_path_to_a_call():
    prepared = prepare_qq(SHARING_QQ)
    statement = prepared.statement
    one, two = prepared.bind(1), prepared.bind(2)
    for bound in (one, two):
        # no call below: shared with the prepared tree
        assert bound.source is statement.source
        assert bound.group_by is statement.group_by
        assert bound.order_by is statement.order_by
        assert bound.limit is statement.limit
        assert bound.items[0] is statement.items[0]
        assert bound.items[2] is statement.items[2]
        assert bound.where.left is statement.where.left
        assert bound.where.right.operand is statement.where.right.operand
        # on the path to a call: rebuilt, with its source position
        assert bound.items is not statement.items
        assert bound.items[1] is not statement.items[1]
        assert bound.items[1].alias == "sid"
        assert (bound.items[1].line, bound.items[1].col) \
            == (statement.items[1].line, statement.items[1].col) != (0, 0)
        assert bound.where is not statement.where
        assert bound.where.right.items is not statement.where.right.items
    # two bound trees share no rebuilt node
    assert one.items is not two.items
    assert one.where.right is not two.where.right
    assert one.as_of is not two.as_of


def test_a_qq_without_calls_shares_everything_but_the_select():
    prepared = prepare_qq("SELECT a FROM t WHERE a > 1")
    assert not prepared.references_current_snapshot
    bound = prepared.bind(9)
    assert bound is not prepared.statement
    assert bound.as_of == ast.Literal(9)
    assert bound.items is prepared.statement.items
    assert bound.where is prepared.statement.where


def test_planning_and_running_bound_trees_leaves_the_prepared_one_alone():
    session = RQLSession()
    session.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b)")
    session.execute("INSERT INTO t VALUES (1, 5), (2, 6), (3, 7)")
    sids = [session.declare_snapshot() for _ in range(3)]
    qq = ("SELECT a, current_snapshot() AS sid, SUM(b) AS total FROM t "
          "WHERE a >= 2 AND b < 100 + current_snapshot() GROUP BY a "
          "HAVING COUNT(*) > 0 ORDER BY a DESC LIMIT 10")
    prepared = prepare_qq(qq)
    for _ in range(2):
        for sid in sids:
            bound = prepared.bind(sid)
            as_bound = copy.deepcopy(bound)
            columns, rows = session.db.open_cursor(bound)
            assert list(rows) == [(3, sid, 7), (2, sid, 6)]
            assert columns == ["a", "sid", "total"]
            assert bound == as_bound
    assert prepared.statement == parse_one(qq)


# ---------------------------------------------------------------------------
# (d) result-level differential against the text loop
# ---------------------------------------------------------------------------

ALL_SNAPSHOTS = "SELECT snap_id FROM SnapIds ORDER BY snap_id"
WHILE_U_EXISTS = ("SELECT snap_id FROM SnapIds WHERE snap_id <= 5 "
                  "ORDER BY snap_id")


@pytest.fixture(scope="module")
def history():
    """Eight snapshots of ``t`` (and ``u``): an index on ``t.v`` appears
    before snapshot 4 and ``u`` is dropped before snapshot 6, so the
    same Qq is planned differently — and against a different catalog —
    along the history."""
    session = RQLSession()
    session.execute(
        "CREATE TABLE t (k INTEGER PRIMARY KEY, g TEXT, v INTEGER)")
    session.execute("CREATE TABLE u (g TEXT, w INTEGER)")
    session.execute("INSERT INTO u VALUES ('a', 10), ('b', 20), ('c', 30)")
    session.execute("INSERT INTO t VALUES " + ", ".join(
        f"({k}, '{'abc'[k % 3]}', {k % 5})" for k in range(1, 41)))
    for step in range(1, 9):
        if step == 4:
            session.execute("CREATE INDEX t_v ON t (v)")
        if step == 6:
            session.execute("DROP TABLE u")
        session.execute(f"UPDATE t SET v = v + 1 WHERE k % 8 = {step % 8}")
        session.execute(f"DELETE FROM t WHERE k = {step}")
        session.execute(
            f"INSERT INTO t VALUES ({100 + step}, 'b', {step % 4})")
        if step <= 5:
            session.execute(f"UPDATE u SET w = w + {step} WHERE g = 'a'")
        assert session.declare_snapshot() == step
    yield session
    session.close()


def test_the_history_changes_plan_and_catalog(history):
    def plan(sid):
        return [row[0] for row in history.execute(
            f"EXPLAIN SELECT AS OF {sid} k FROM t WHERE v = 3").rows]
    assert not any("t_v" in line for line in plan(3))
    assert any("t_v" in line for line in plan(4))
    assert history.execute("SELECT AS OF 5 COUNT(*) FROM u").scalar() == 3
    with pytest.raises(SqlError, match="no such table"):
        history.execute("SELECT AS OF 6 COUNT(*) FROM u")


CASES = [
    ("CollateData", None, ALL_SNAPSHOTS,
     "SELECT k, v, current_snapshot() FROM t WHERE v = 3"),
    ("CollateData", None, WHILE_U_EXISTS,
     "SELECT t.k, u.w, current_snapshot() AS sid FROM t, u "
     "WHERE t.g = u.g AND t.v = 2 ORDER BY t.k"),
    ("AggregateDataInVariable", "sum", ALL_SNAPSHOTS,
     "SELECT COUNT(*) + current_snapshot() FROM t WHERE v = 3"),
    ("AggregateDataInTable", [("sv", "avg"), ("c", "sum"), ("hi", "max")],
     ALL_SNAPSHOTS,
     "SELECT g, SUM(v) AS sv, COUNT(*) AS c, MAX(k) AS hi FROM t "
     "WHERE v BETWEEN 1 AND 3 GROUP BY g"),
    ("CollateDataIntoIntervals", None, ALL_SNAPSHOTS,
     "SELECT k, g FROM t WHERE v = 3"),
]


def text_loop(session, qs, qq):
    """The reference: per snapshot of Qs, the rewritten text through
    ``Database.execute``.  Returns (columns, {sid: rows}, iterations)."""
    db = session.db
    sids = [int(row[0]) for row in db.execute(qs).rows]
    sink = MetricsSink()
    previous = db.metrics
    db.attach_metrics(sink)
    columns, rows = None, {}
    try:
        for sid in sids:
            current = sink.begin_iteration(sid)
            result = db.execute(rewrite_qq(qq, sid))
            current.qq_rows = len(result.rows)
            sink.end_iteration()
            columns = list(result.columns)
            rows[sid] = [tuple(row) for row in result.rows]
    finally:
        db.attach_metrics(previous)
    return columns, rows, sink.iterations


def counters(iterations):
    return [(it.snapshot_id, it.qq_rows, it.pagelog_reads,
             it.spt_entries_scanned) for it in iterations]


@pytest.mark.parametrize("mechanism, arg, qs, qq", CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
@pytest.mark.parametrize("workers", [1, 2])
def test_mechanisms_match_the_text_loop(history, mechanism, arg, qs, qq,
                                        workers):
    cache = history.db.engine.retro.cache
    cache.clear()
    columns, rows_at, reference = text_loop(history, qs, qq)
    fold = find_mechanism(mechanism).fold(arg)
    for sid, rows in rows_at.items():
        fold.step(sid, columns, rows)
    expected = fold.result()

    cache.clear()
    result = history.run_mechanism(mechanism, qs, qq, "R", arg,
                                   workers=workers)
    stored = history.execute('SELECT * FROM "R"')
    assert list(stored.columns) == expected.columns
    assert [tuple(row) for row in stored.rows] == expected.rows
    assert result.columns == [c for i, c in enumerate(expected.columns)
                              if i not in expected.helpers]
    assert result.snapshots == list(rows_at)
    ran = sorted(result.metrics.iterations, key=lambda it: it.snapshot_id)
    if workers == 1:
        assert counters(ran) == counters(reference)
    else:
        # Which partition meets a shared page first depends on thread
        # timing; what each snapshot's Qq returns and scans does not.
        assert [(s, q, e) for s, q, _, e in counters(ran)] \
            == [(s, q, e) for s, q, _, e in counters(reference)]
        assert {it.worker for it in ran} == {1, 2}


def test_a_view_refresh_matches_the_text_loop():
    session = RQLSession()
    session.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, g TEXT, v)")
    session.execute("CREATE TABLE u (g TEXT)")
    session.execute("INSERT INTO t VALUES " + ", ".join(
        f"({k}, '{'ab'[k % 2]}', {k % 4})" for k in range(1, 21)))
    qq = "SELECT k, g FROM t WHERE v = 3"

    def step(n):
        session.execute(f"UPDATE t SET v = v + 1 WHERE k % 5 = {n % 5}")
        return session.declare_snapshot()

    step(1), step(2)
    session.create_materialized_view("mv", "CollateDataIntoIntervals", qq)
    step(3)
    session.execute("CREATE INDEX t_v ON t (v)")
    step(4)
    session.execute("DROP TABLE u")
    last = step(5)
    report = session.refresh_view("mv")
    assert (report.mode, report.built_from, report.target) \
        == ("delta", 2, last)

    columns, rows_at, reference = text_loop(
        session, "SELECT snap_id FROM SnapIds ORDER BY snap_id", qq)
    fold = find_mechanism("CollateDataIntoIntervals").fold(None)
    for sid, rows in rows_at.items():
        fold.step(sid, columns, rows)
    stored = session.execute("SELECT * FROM mv")
    assert list(stored.columns) == fold.result().columns
    assert [tuple(row) for row in stored.rows] == fold.result().rows
    assert report.evaluated_snapshots == 3
    assert report.qq_rows == sum(it.qq_rows for it in reference[2:])
    session.close()


# ---------------------------------------------------------------------------
# (e) Qq is parsed once per run
# ---------------------------------------------------------------------------

@pytest.fixture
def parsed(monkeypatch):
    """Every text handed to the parser since the fixture was set up."""
    texts = []
    parse_statements = parser.Parser.parse_statements

    def counting(self):
        texts.append(self.sql)
        return parse_statements(self)

    monkeypatch.setattr(parser.Parser, "parse_statements", counting)
    return texts


def test_a_70_snapshot_run_parses_qq_once(parsed):
    session = RQLSession()
    session.execute("CREATE TABLE probe_t (k INTEGER PRIMARY KEY, v)")
    session.execute("INSERT INTO probe_t VALUES (1, 0), (2, 0)")
    for sid in range(1, 71):
        session.execute(f"UPDATE probe_t SET v = {sid} WHERE k = 1")
        assert session.declare_snapshot() == sid
    qq = "SELECT v, current_snapshot() FROM probe_t WHERE k = 1"
    qs = "SELECT snap_id FROM SnapIds ORDER BY snap_id"
    expected = [(sid, sid) for sid in range(1, 71)]
    # The product path: certification and every partition share the
    # one parse, at any worker count.
    for workers in (1, 2):
        del parsed[:]
        result = session.collate_data(qs, qq, "R", workers=workers)
        assert result.iterations == 70
        assert session.execute('SELECT * FROM "R"').rows == expected
        assert [text for text in parsed if "probe_t" in text] == [qq]
    # The reference loop parses once too, on its first iteration.
    del parsed[:]
    session.run_reference("CollateData", qs, qq, "R")
    assert session.execute('SELECT * FROM "R"').rows == expected
    assert [text for text in parsed if "probe_t" in text] == [qq]
    assert not any("AS OF" in text for text in parsed)


def test_the_udf_form_parses_qq_once(parsed):
    session = RQLSession()
    session.execute("CREATE TABLE probe_t (k INTEGER PRIMARY KEY, v)")
    session.execute("INSERT INTO probe_t VALUES (1, 0)")
    for _ in range(5):
        session.declare_snapshot()
    del parsed[:]
    qq = "SELECT v, current_snapshot() FROM probe_t"
    session.execute(
        f"SELECT CollateData(snap_id, '{qq}', 'R') FROM SnapIds")
    assert session.execute('SELECT COUNT(*) FROM "R"').scalar() == 5
    assert parsed.count(qq) == 1
    assert not any("AS OF" in text for text in parsed)


# ---------------------------------------------------------------------------
# Only a call is special: current_snapshot as a column or alias name
# ---------------------------------------------------------------------------

NAME_NOT_CALL = [
    ("SELECT a AS current_snapshot FROM named",
     ["current_snapshot"], lambda sid: [(1,), (2,)]),
    ("SELECT a current_snapshot FROM named",
     ["current_snapshot"], lambda sid: [(1,), (2,)]),
    ("SELECT named.current_snapshot FROM named",
     ["current_snapshot"], lambda sid: [(70,), (80,)]),
    ("SELECT current_snapshot, current_snapshot() FROM named "
     "WHERE current_snapshot > 75",
     ["current_snapshot", "column2"], lambda sid: [(80, sid)]),
]


@pytest.mark.parametrize("qq, columns, rows_at", NAME_NOT_CALL)
@pytest.mark.parametrize("workers", [1, 2])
def test_a_column_or_alias_named_current_snapshot(qq, columns, rows_at,
                                                  workers):
    session = RQLSession()
    session.execute("CREATE TABLE named (a INTEGER, current_snapshot INTEGER)")
    session.execute("INSERT INTO named VALUES (1, 70), (2, 80)")
    sids = [session.declare_snapshot() for _ in range(3)]
    result = session.collate_data("SELECT snap_id FROM SnapIds", qq, "R",
                                  workers=workers)
    assert result.columns == columns
    assert session.execute('SELECT * FROM "R"').rows \
        == [row for sid in sids for row in rows_at(sid)]
    assert rewrite_qq(qq, 2).count("current_snapshot") \
        == qq.count("current_snapshot") - qq.count("current_snapshot()")


def test_only_a_call_makes_a_view_vary_per_snapshot():
    for qq, _, _ in NAME_NOT_CALL[:3]:
        assert not prepare_qq(qq).references_current_snapshot
    assert prepare_qq(NAME_NOT_CALL[3][0]).references_current_snapshot
    # Delta-skip survives a column of that name.
    session = RQLSession()
    session.execute("CREATE TABLE named (a INTEGER, current_snapshot INTEGER)")
    session.execute("CREATE TABLE other (x)")
    session.execute("INSERT INTO named VALUES (1, 70)")
    session.declare_snapshot()
    session.create_materialized_view(
        "mv", "CollateData", "SELECT a AS current_snapshot FROM named")
    session.execute("INSERT INTO other VALUES (1)")
    session.declare_snapshot()
    assert session.refresh_view("mv").mode == "delta-skip"
    assert session.execute("SELECT * FROM mv").rows == [(1,), (1,)]
    session.close()
