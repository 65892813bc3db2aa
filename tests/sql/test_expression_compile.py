"""The specialised closures against the generic evaluator and SQLite.

What the expression compiler decides once per statement (operator,
operand classes, which conjuncts already yield a truth value) must never
change a result.  Five differentials pin that:

(a) a column-vs-constant comparison against ``compare`` plus a plain
    operator table, over every value class and the ugly corners;
(b) ``compile_predicate`` against ``all(is_true(f(row)) for f in ...)``,
    including which UDF calls are reached;
(c) a corpus of scalar expressions against stdlib ``sqlite3``, with the
    intentional divergences listed by name, and select-list aliases in
    WHERE, GROUP BY, HAVING and ORDER BY beside SQLite's;
(d) the aggregate loop: zero rows, DISTINCT, HAVING, NULL group keys;
(e) the leaf-batch form of every batchable conjunct against
    ``filter(compile_predicate(...))``, and the prefix rule that keeps
    UDFs (and LIMIT) per row.
"""

import itertools
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError, ReproError, TypeMismatchError
from repro.sql import ast
from repro.sql.database import Database
from repro.sql.expressions import ExpressionCompiler, PostAggRef, Scope
from repro.sql.types import compare, is_true, type_class

OPERATORS = ("=", "!=", "<", "<=", ">", ">=")

#: what each operator makes of ``compare``'s -1 / 0 / 1, written out the
#: way the evaluator decided it per row before it was compiled
HOLDS = {
    "=": lambda c: c == 0, "!=": lambda c: c != 0,
    "<": lambda c: c < 0, "<=": lambda c: c <= 0,
    ">": lambda c: c > 0, ">=": lambda c: c >= 0,
}


class MyInt(int):
    pass


class MyStr(str):
    pass


NAN = float("nan")
INF = float("inf")

#: every class of value a row can hold, its corners, and a few things a
#: row must not hold (``type_class`` rejects them)
VALUES = [
    None, True, False,
    0, 1, -1, 5, 2**53 - 1, 2**53, 2**53 + 1, -2**53 - 1, 10**30, -10**30,
    0.0, -0.0, 1.0, 1.5, -1.5, float(2**53), 1e30, INF, -INF, NAN,
    "", "O", "F", "a", "abc", "O ", "1",
    b"", b"O", b"abc", bytearray(b"O"),
    MyInt(5), MyStr("O"),
    object(), [1], (1,),
]

#: literals of each class; ``True`` and the blob take the generic closure
CONSTANTS = [
    0, 5, -1, 2**53, 2**53 + 1, 10**30,
    0.0, -0.0, 1.5, float(2**53), INF, -INF, NAN,
    "", "O", "abc",
    b"O", True,
]


def _outcome(call):
    """A result, or the error it raised, in comparable form."""
    try:
        return ("value", call())
    except ReproError as exc:
        return ("error", type(exc), str(exc))


def _reference(left, op, right):
    result = compare(left, right)
    if result is None:
        return None
    return 1 if HOLDS[op](result) else 0


def _column(name):
    return ast.ColumnRef(table=None, name=name)


def _compiled_comparisons(op, constant):
    """The four spellings of one column-vs-constant comparison, each as
    (closure, constant_on_left)."""
    compiler = ExpressionCompiler(Scope([("t", "c")]), {})
    literal = ast.Literal(constant)
    for column in (_column("c"), PostAggRef(0)):
        yield compiler.compile(ast.BinaryOp(op, column, literal)), False
        yield compiler.compile(ast.BinaryOp(op, literal, column)), True


def _check_comparison(value, op, constant):
    for closure, constant_on_left in _compiled_comparisons(op, constant):
        if constant_on_left:
            expected = _outcome(lambda: _reference(constant, op, value))
        else:
            expected = _outcome(lambda: _reference(value, op, constant))
        got = _outcome(lambda: closure((value,)))
        assert got == expected, (value, op, constant, constant_on_left)
        if got[0] == "value" and got[1] is not None:
            assert type(got[1]) is int  # exactly 0 / 1, never a bool


class TestTypedComparison:
    """(a) the closure is `compare` + the operator table, nothing else."""

    @pytest.mark.parametrize("op", OPERATORS)
    def test_corpus_cross_product(self, op):
        for value, constant in itertools.product(VALUES, CONSTANTS):
            _check_comparison(value, op, constant)

    @settings(max_examples=300, deadline=None)
    @given(
        value=st.one_of(
            st.sampled_from(VALUES), st.integers(),
            st.floats(allow_nan=True, allow_infinity=True),
            st.text(max_size=4), st.binary(max_size=4)),
        op=st.sampled_from(OPERATORS),
        constant=st.one_of(
            st.sampled_from(CONSTANTS), st.integers(),
            st.floats(allow_nan=True, allow_infinity=True),
            st.text(max_size=4)),
    )
    def test_random_values(self, value, op, constant):
        _check_comparison(value, op, constant)

    def test_nan_compares_equal_as_compare_says(self):
        # `compare` asks `<`, then `>`, else equal: a NaN is "equal" to
        # everything numeric.  Ugly, and the contract.
        assert compare(NAN, 1.0) == 0
        _check_comparison(NAN, "=", 1.0)
        _check_comparison(1.0, "!=", NAN)

    def test_null_literal_is_not_specialised(self):
        compiler = ExpressionCompiler(Scope([("t", "c")]), {})
        closure = compiler.compile(
            ast.BinaryOp("=", _column("c"), ast.Literal(None)))
        assert closure((None,)) is None
        assert closure((1,)) is None


# ---------------------------------------------------------------------------
# (b) compile_predicate
# ---------------------------------------------------------------------------

#: conjuncts of every node type: some yield a truth value themselves,
#: the others (column, literal, arithmetic, call, CASE) need ``is_true``
CONJUNCT_POOL = [
    ast.BinaryOp("=", _column("a"), ast.Literal(1)),
    ast.BinaryOp("<", ast.Literal(0), _column("a")),
    ast.BinaryOp("=", _column("s"), ast.Literal("O")),
    ast.BinaryOp(">=", _column("a"), _column("b")),
    ast.BinaryOp("AND", ast.BinaryOp(">", _column("a"), ast.Literal(0)),
                 ast.IsNull(_column("s"), True)),
    ast.BinaryOp("OR", ast.IsNull(_column("a"), False),
                 ast.BinaryOp("!=", _column("b"), ast.Literal(2))),
    ast.UnaryOp("NOT", ast.BinaryOp("=", _column("b"), ast.Literal(0))),
    ast.IsNull(_column("b"), False),
    ast.InList(_column("a"), [ast.Literal(1), ast.Literal(None)], False),
    ast.Between(_column("a"), ast.Literal(0), _column("b"), False),
    ast.Between(_column("a"), _column("b"), ast.Literal(2), True),
    ast.Like(_column("s"), ast.Literal("o%"), False),
    _column("a"),
    _column("s"),
    ast.Literal(1),
    ast.Literal("0"),
    ast.Literal(None),
    ast.BinaryOp("+", _column("a"), ast.Literal(1)),
    ast.BinaryOp("%", _column("a"), _column("b")),
    ast.FunctionCall("probe", [_column("a")], False, False),
    ast.FunctionCall("boom", [_column("b")], False, False),
    ast.CaseExpr(None, [(ast.IsNull(_column("a"), False), ast.Literal(1))],
                 _column("b")),
]

row_values = st.one_of(
    st.none(), st.integers(min_value=-2, max_value=3),
    st.sampled_from([0.0, 1.5, "O", "open", "0", "1", ""]))


class TestCompilePredicate:
    @settings(max_examples=400, deadline=None)
    @given(conjuncts=st.lists(st.sampled_from(CONJUNCT_POOL), max_size=4),
           row=st.tuples(row_values, row_values, row_values))
    def test_equals_all_is_true(self, conjuncts, row):
        calls = []

        def probe(value):
            calls.append(("probe", value))
            return value

        def boom(value):
            calls.append(("boom", value))
            if value is None or value == 2:
                raise TypeMismatchError(f"boom({value!r})")
            return value

        compiler = ExpressionCompiler(
            Scope([("t", "a"), ("t", "b"), ("t", "s")]),
            {"probe": probe, "boom": boom})
        predicate = compiler.compile_predicate(conjuncts)
        evaluators = [compiler.compile(c) for c in conjuncts]

        expected = _outcome(
            lambda: all(is_true(f(row)) for f in evaluators))
        expected_calls, calls[:] = list(calls), []
        got = _outcome(lambda: bool(predicate(row)))
        assert got == expected
        # Left-to-right short-circuit: the same UDF calls, in the same
        # order, reached or not reached exactly as the generic loop.
        assert calls == expected_calls

    def test_later_conjunct_is_not_reached_after_a_rejection(self):
        def boom(_value):
            raise TypeMismatchError("must not be reached")

        compiler = ExpressionCompiler(Scope([("t", "a")]), {"boom": boom})
        rejecting = ast.BinaryOp("=", _column("a"), ast.Literal(1))
        raising = ast.FunctionCall("boom", [_column("a")], False, False)
        predicate = compiler.compile_predicate([rejecting, raising])
        assert not predicate((2,))
        assert not predicate((None,))
        with pytest.raises(TypeMismatchError):
            predicate((1,))

    def test_no_conjuncts_pass_every_row(self):
        predicate = ExpressionCompiler(Scope([]), {}).compile_predicate([])
        assert predicate(())


# ---------------------------------------------------------------------------
# (c) scalar expressions against SQLite
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def engines():
    lite = sqlite3.connect(":memory:")
    yield Database(), lite
    lite.close()


def _both(engines, expression):
    db, lite = engines
    ours = db.execute(f"SELECT {expression}").scalar()
    theirs = lite.execute(f"SELECT {expression}").fetchone()[0]
    return ours, theirs


BETWEEN_POINTS = ("1", "5", "9", "NULL")  # below / inside / above / NULL

AGREEING = [
    # comparisons, across and within classes
    "1 < 2", "2 <= 2", "3 > 4", "1.0 = 1", "1 != 1.5", "'a' < 'b'",
    "'abc' >= 'abd'", "1 < 'a'", "'1' = 1", "x'00' > 'zzz'", "NULL = NULL",
    "NULL != 1", "9007199254740993 > 9007199254740992.0",
    "9007199254740993 = 9007199254740992.0",
    # three-valued AND / OR / NOT
    "NULL AND 0", "NULL AND 1", "0 AND NULL", "NULL OR 1", "NULL OR 0",
    "1 OR NULL", "NOT NULL", "NOT 0", "NOT 5", "NOT (NULL AND 0)",
    # IN
    "1 IN (1, NULL)", "2 IN (1, NULL)", "2 NOT IN (1, NULL)",
    "2 NOT IN (1, 3)", "NULL IN (1, 2)", "'a' IN ('a', 'b')",
    # CASE
    "CASE WHEN NULL THEN 1 ELSE 2 END", "CASE WHEN 0 THEN 1 END",
    "CASE 2 WHEN 1 THEN 'a' WHEN 2 THEN 'b' END",
    "CASE NULL WHEN NULL THEN 1 ELSE 0 END",
    # division truncates toward zero, the remainder follows the dividend
    "7 / 2", "-7 / 2", "7 / -2", "-7 / -2", "7.0 / 2", "1 / 0", "1.0 / 0",
    "5 % 4", "-5 % 4", "5 % -4", "-5 % -4", "1 % 0", "0 % 5", "NULL % 2",
    "(-7 / 2) * 2 + -7 % 2",
    # LIKE
    "'abc' LIKE 'a%'", "'abc' LIKE 'A_C'", "'abc' NOT LIKE 'b%'",
    "NULL LIKE 'a'", "'a' LIKE NULL", "5 LIKE '5'",
    # TOTAL is always a float (SUM keeps integers), 0.0 over no value
    "TOTAL(1)", "TOTAL(NULL)",
] + [
    f"{x} {between} {lo} AND {hi}"
    for x, lo, hi in itertools.product(BETWEEN_POINTS, repeat=3)
    for between in ("BETWEEN", "NOT BETWEEN")
]

#: where the engine differs from SQLite ON PURPOSE: expression ->
#: (what the engine gives, or the error class; what SQLite gives).  A new
#: entry here is a decision; a corpus line that stops agreeing is a bug.
DIVERGENCES = {
    # no scalar MAX(a, b) / MIN(a, b): the names are aggregates only
    "MAX(1, 2)": (PlanError, 2),
    # float %: the engine keeps the fractional remainder (fmod); SQLite
    # casts both operands to INTEGER first
    "5.5 % 2": (1.5, 1.0),
    "-5.5 % 2": (-1.5, -1.0),
}


class TestAgainstSqlite:
    @pytest.mark.parametrize("expression", AGREEING)
    def test_corpus_agrees(self, engines, expression):
        ours, theirs = _both(engines, expression)
        assert ours == theirs and type(ours) is type(theirs), expression

    @pytest.mark.parametrize("expression", sorted(DIVERGENCES))
    def test_named_divergences_stay_as_decided(self, engines, expression):
        db, lite = engines
        ours, theirs = DIVERGENCES[expression]
        assert lite.execute(f"SELECT {expression}").fetchone()[0] == theirs
        if isinstance(ours, type):
            with pytest.raises(ours):
                db.execute(f"SELECT {expression}")
        else:
            got = db.execute(f"SELECT {expression}").scalar()
            assert got == ours and type(got) is type(ours)

    @settings(max_examples=200, deadline=None)
    @given(a=st.integers(min_value=-10**18, max_value=10**18),
           b=st.integers(min_value=-10**9, max_value=10**9)
           .filter(lambda b: b != 0))
    def test_division_identity(self, engines, a, b):
        """(a / b) * b + a % b = a, which a truncating `/` beside a
        flooring `%` broke for operands of different signs."""
        db, lite = engines
        query = f"SELECT {a} / {b}, {a} % {b}, ({a} / {b}) * {b} + {a} % {b}"
        quotient, remainder, rebuilt = db.execute(query).rows[0]
        assert rebuilt == a
        assert abs(remainder) < abs(b)
        assert remainder == 0 or (remainder < 0) == (a < 0)
        assert (quotient, remainder, rebuilt) == lite.execute(query).fetchone()


#: select-list aliases side by side with SQLite over one table, in every
#: clause that may name one.  A FROM column keeps meaning the column, so
#: ``b AS a ... WHERE a > 1`` reads column ``a``.
ALIASED = [
    "SELECT a AS x, COUNT(*) FROM t GROUP BY x",
    "SELECT a AS x FROM t ORDER BY x + 0 DESC",
    "SELECT b AS x FROM t WHERE x > 2",
    "SELECT b AS a FROM t WHERE a > 1",
    "SELECT a AS b FROM t ORDER BY b + 0 DESC, a",
    "SELECT a + b AS s FROM t WHERE s > 4 ORDER BY s",
    "SELECT a AS x, b AS y FROM t WHERE x = 1 AND y < 5",
    "SELECT a AS x, COUNT(*) AS n FROM t GROUP BY x ORDER BY n * -1, x",
    "SELECT a AS x, SUM(b) AS y FROM t GROUP BY x HAVING y > 2 "
    "ORDER BY y + 0",
]


@pytest.fixture(scope="module")
def aliased():
    db, lite = Database(), sqlite3.connect(":memory:")
    for run in (db.execute, lite.execute):
        run("CREATE TABLE t (a INTEGER, b INTEGER)")
        run("INSERT INTO t VALUES (1, 5), (1, 3), (2, 1)")
    yield db, lite
    lite.close()


class TestAliasesAgainstSqlite:
    @pytest.mark.parametrize("query", ALIASED)
    def test_alias_resolves_as_sqlite_does(self, aliased, query):
        db, lite = aliased
        assert db.execute(query).rows == lite.execute(query).fetchall()

    @pytest.mark.parametrize("query", [
        "SELECT COUNT(*) AS n FROM t WHERE n > 1",
        "SELECT a, COUNT(*) AS n FROM t GROUP BY n",
    ])
    def test_aggregate_alias_before_aggregation_is_refused(self, aliased,
                                                           query):
        db, lite = aliased
        with pytest.raises(sqlite3.OperationalError):
            lite.execute(query)
        with pytest.raises(PlanError, match="aliased aggregate n"):
            db.execute(query)


# ---------------------------------------------------------------------------
# BETWEEN is Kleene: x >= lo AND x <= hi
# ---------------------------------------------------------------------------

def _between_table(index: bool) -> Database:
    """All 64 (x, lo, hi) over {1, 5, 9, NULL}, keyed by ``id``."""
    db = Database()
    db.execute("CREATE TABLE t (id INTEGER, x INTEGER, lo INTEGER, "
               "hi INTEGER)")
    if index:
        db.execute("CREATE INDEX t_x ON t (x)")
    rows = ", ".join(
        f"({i}, {x}, {lo}, {hi})" for i, (x, lo, hi) in enumerate(
            itertools.product(BETWEEN_POINTS, repeat=3)))
    db.execute(f"INSERT INTO t VALUES {rows}")
    return db


def _ids(db: Database, where: str):
    return [row[0] for row in
            db.execute(f"SELECT id FROM t WHERE {where} ORDER BY id").rows]


class TestBetweenIsThreeValued:
    @pytest.mark.parametrize("negated", [False, True],
                             ids=["between", "not_between"])
    def test_truth_table_equals_the_conjunction(self, negated):
        db = _between_table(index=False)
        between = "NOT BETWEEN" if negated else "BETWEEN"
        spelled = "NOT (x >= {lo} AND x <= {hi})" if negated \
            else "(x >= {lo} AND x <= {hi})"
        # column-valued bounds: every row is one cell of the truth table
        assert _ids(db, f"x {between} lo AND hi") \
            == _ids(db, spelled.format(lo="lo", hi="hi"))
        # literal bounds (the typed comparison), a NULL literal included
        for lo, hi in itertools.product(BETWEEN_POINTS, repeat=2):
            assert _ids(db, f"x {between} {lo} AND {hi}") \
                == _ids(db, spelled.format(lo=lo, hi=hi)), (lo, hi)
        # an operand that is not a column is evaluated once
        assert _ids(db, f"x + 0 {between} lo AND hi") \
            == _ids(db, f"x {between} lo AND hi")

    def test_one_false_bound_decides(self):
        db = Database()
        assert db.execute("SELECT 5 BETWEEN NULL AND 3").scalar() == 0
        assert db.execute("SELECT 5 NOT BETWEEN NULL AND 3").scalar() == 1
        assert db.execute("SELECT 5 BETWEEN 7 AND NULL").scalar() == 0
        assert db.execute("SELECT 5 BETWEEN NULL AND 7").scalar() is None
        assert db.execute("SELECT 5 NOT BETWEEN 3 AND NULL").scalar() is None

    def test_rows_are_not_silently_missing(self):
        """The reported shape: a NULL `lo` hid rows 4 and 5 from SELECT,
        UPDATE and DELETE alike."""
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER, lo INTEGER)")
        db.execute("INSERT INTO t VALUES (0, 0), (1, 0), (2, NULL), "
                   "(3, NULL), (4, NULL), (5, NULL)")
        where = "a NOT BETWEEN lo AND 3"
        assert [r[0] for r in db.execute(
            f"SELECT a FROM t WHERE {where} ORDER BY a").rows] == [4, 5]
        db.execute(f"UPDATE t SET lo = -1 WHERE {where}")
        assert db.execute(
            "SELECT COUNT(*) FROM t WHERE lo = -1").scalar() == 2
        db.execute("DELETE FROM t WHERE a NOT BETWEEN NULL AND 3")
        assert [r[0] for r in db.execute(
            "SELECT a FROM t ORDER BY a").rows] == [0, 1, 2, 3]

    @pytest.mark.parametrize("where", [
        "x BETWEEN NULL AND 5", "x BETWEEN 5 AND NULL",
        "x BETWEEN NULL AND NULL", "x BETWEEN 1 AND 5",
        "x NOT BETWEEN NULL AND 5", "x NOT BETWEEN 5 AND NULL",
    ])
    def test_index_path_returns_the_scan_path_rows(self, where):
        # A NULL bound is not an index key: the conjunct falls through
        # to the row filter, which must agree with the unindexed table.
        indexed, plain = _between_table(True), _between_table(False)
        assert _ids(indexed, where) == _ids(plain, where)
        explain = [r[0] for r in indexed.execute(
            "EXPLAIN SELECT id FROM t WHERE x BETWEEN 1 AND 5").rows]
        assert any("USING INDEX t_x" in line for line in explain)


# ---------------------------------------------------------------------------
# (d) the aggregate loop
# ---------------------------------------------------------------------------

@pytest.fixture
def grouped():
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER, s TEXT)")
    db.execute(
        "INSERT INTO t VALUES (1, 2, 'x'), (NULL, 2, 'x'), (3, NULL, 'y'), "
        "(1, 2, NULL), (4, NULL, 'y'), (NULL, NULL, NULL), (1, 1, 'x'), "
        "(3, NULL, 'y')")
    return db


class TestAggregateLoop:
    AGGREGATES = ("COUNT(*), COUNT(a), SUM(a), MIN(a), MAX(a), AVG(a), "
                  "COUNT(DISTINCT a)")

    def test_no_group_by_over_zero_rows_yields_one_row(self, grouped):
        empty = [(0, 0, None, None, None, None, 0)]
        assert grouped.execute(
            f"SELECT {self.AGGREGATES} FROM t WHERE a > 100").rows == empty
        grouped.execute("DELETE FROM t")
        assert grouped.execute(
            f"SELECT {self.AGGREGATES} FROM t").rows == empty
        # ... and with GROUP BY, zero rows are zero groups
        assert grouped.execute(
            "SELECT b, COUNT(*) FROM t GROUP BY b").rows == []

    def test_no_group_by(self, grouped):
        assert grouped.execute(f"SELECT {self.AGGREGATES} FROM t").rows \
            == [(8, 6, 13, 1, 4, 13 / 6, 3)]
        assert grouped.execute(
            "SELECT COUNT(*) FROM t WHERE s = 'x'").scalar() == 3

    def test_count_distinct_per_group(self, grouped):
        assert grouped.execute(
            "SELECT b, COUNT(DISTINCT a), COUNT(DISTINCT s) FROM t "
            "GROUP BY b").rows == [(2, 1, 1), (None, 2, 1), (1, 1, 1)]

    def test_group_by_one_key_in_first_appearance_order(self, grouped):
        assert grouped.execute(
            "SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b").rows \
            == [(2, 3, 2), (None, 4, 10), (1, 1, 1)]

    def test_group_by_three_keys_with_null_keys(self, grouped):
        assert grouped.execute(
            "SELECT a, b, s, COUNT(*) FROM t GROUP BY a, b, s").rows == [
            (1, 2, "x", 1), (None, 2, "x", 1), (3, None, "y", 2),
            (1, 2, None, 1), (4, None, "y", 1), (None, None, None, 1),
            (1, 1, "x", 1)]

    def test_having_compares_aggregates_and_keys(self, grouped):
        counted = "SELECT b, COUNT(*) FROM t GROUP BY b HAVING "
        assert grouped.execute(counted + "COUNT(*) > 1").rows \
            == [(2, 3), (None, 4)]
        assert grouped.execute(counted + "1 < COUNT(*)").rows \
            == [(2, 3), (None, 4)]
        assert grouped.execute(counted + "b = 2").rows == [(2, 3)]
        assert grouped.execute(counted + "b != 2").rows == [(1, 1)]
        assert grouped.execute(
            counted + "COUNT(*) BETWEEN 3 AND 4 AND SUM(a) > 2").rows \
            == [(None, 4)]
        # a HAVING that is not a truth-valued node goes through is_true
        assert grouped.execute(counted + "COUNT(*) - 1").rows \
            == [(2, 3), (None, 4)]


# ---------------------------------------------------------------------------
# (e) the leaf-batch form
# ---------------------------------------------------------------------------

def _is_sql_value(value) -> bool:
    try:
        type_class(value)
    except TypeMismatchError:
        return False
    return True


#: one row per SQL value of the corpus (what a row may hold), as a leaf
#: hands them out: (rowid, row)
LEAF = [(rowid, (value,)) for rowid, value in
        enumerate(v for v in VALUES if _is_sql_value(v))]

C = _column("c")
#: literals a batchable comparison may meet: every typed constant, and
#: the ones that take the generic ``compare`` (NULL, a blob, ``True``)
LITERALS = [ast.Literal(value) for value in CONSTANTS + [None]]


def _comparisons():
    for op, literal in itertools.product(OPERATORS, LITERALS):
        yield ast.BinaryOp(op, C, literal)
        yield ast.BinaryOp(op, literal, C)


BATCHABLE = list(_comparisons()) + [
    ast.IsNull(C, False),
    ast.IsNull(C, True),
    ast.Between(C, ast.Literal(0), ast.Literal(5.5), False),
    ast.Between(C, ast.Literal("a"), ast.Literal("z"), True),
    ast.Between(C, ast.Literal(None), ast.Literal(2**53), False),
    ast.Between(C, ast.Literal(-1), ast.Literal(None), True),
    ast.InList(C, [ast.Literal(1), ast.Literal("O"), ast.Literal(b"O")],
               False),
    ast.InList(C, [ast.Literal(NAN), ast.Literal(None)], False),
    ast.InList(C, [ast.Literal(-0.0), ast.Literal(2**53 + 1)], True),
    ast.InList(C, [ast.Literal(None)], True),
    ast.UnaryOp("NOT", ast.BinaryOp("<", C, ast.Literal(1.5))),
    ast.UnaryOp("NOT", ast.IsNull(C, False)),
    ast.BinaryOp("OR", ast.BinaryOp("=", C, ast.Literal("O")),
                 ast.BinaryOp(">", C, ast.Literal(None))),
    ast.BinaryOp("AND", ast.BinaryOp(">=", ast.Literal(0), C),
                 ast.UnaryOp("NOT", ast.InList(C, [ast.Literal(None)],
                                               True))),
]


def _batch_against_rows(conjuncts):
    """The leaf filter's rows and ``filter(compile_predicate(...))``'s
    rows of the same leaf, as row identities."""
    compiler = ExpressionCompiler(Scope([("t", "c")]), {})
    leaf_filter, rest = compiler.compile_leaf_filter(conjuncts)
    assert leaf_filter is not None and rest == []
    per_row = filter(compiler.compile_predicate(conjuncts),
                     [row for _, row in LEAF])
    return [id(r) for r in leaf_filter(LEAF)], [id(r) for r in per_row]


class TestLeafBatchForm:
    @pytest.mark.parametrize("conjunct", BATCHABLE,
                             ids=lambda c: type(c).__name__)
    def test_every_batchable_conjunct_equals_the_row_filter(self, conjunct):
        got, want = _batch_against_rows([conjunct])
        assert got == want

    def test_the_corpus_holds_every_value_class(self):
        values = [row[0] for _, row in LEAF]
        assert {type_class(v) for v in values} == {0, 1, 2, 3}
        for corner in (True, -0.0, 2**53 - 1, 2**53 + 1, b"", None):
            assert any(v is corner or (type(v) is type(corner)
                                       and v == corner) for v in values)
        assert any(v != v for v in values)  # NaN

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(BATCHABLE), min_size=2, max_size=3))
    def test_and_of_conjuncts_equals_the_row_filter(self, conjuncts):
        got, want = _batch_against_rows(conjuncts)
        assert got == want

    @pytest.mark.parametrize("conjunct", [
        ast.FunctionCall("probe", [C], False, False),
        ast.BinaryOp("=", ast.BinaryOp("+", C, ast.Literal(1)),
                     ast.Literal(2)),
        ast.BinaryOp("=", C, C),
        ast.Like(C, ast.Literal("O%"), False),
        ast.Between(C, ast.Literal(0), C, False),
        ast.InList(C, [ast.Literal(1), C], False),
        ast.IsNull(ast.BinaryOp("+", C, ast.Literal(1)), False),
        ast.UnaryOp("-", C),
        C,
        ast.Literal(1),
    ], ids=lambda c: type(c).__name__)
    def test_what_is_not_batchable_stays_per_row(self, conjunct):
        compiler = ExpressionCompiler(Scope([("t", "c")]),
                                      {"probe": lambda v: v})
        batchable = ast.BinaryOp("=", C, ast.Literal(1))
        assert compiler.compile_leaf_filter([conjunct, batchable]) \
            == (None, [conjunct, batchable])
        leaf_filter, rest = compiler.compile_leaf_filter(
            [batchable, conjunct, batchable])
        assert leaf_filter is not None
        assert rest == [conjunct, batchable]


ROWS = 120


@pytest.fixture
def probed():
    """A table over several leaves and a UDF that logs its calls."""
    db = Database(page_size=1024)
    db.execute("CREATE TABLE t (a INTEGER, s TEXT)")
    db.execute("INSERT INTO t VALUES " + ", ".join(
        f"({i}, '{'O' if i % 3 else 'F'}')" for i in range(ROWS)))
    calls = []

    def probe(value):
        calls.append(value)
        return 1 if value % 7 == 6 else 0

    db.register_function("probe", probe)
    yield db, calls
    db.close()


class TestPrefixRule:
    """Each WHERE against the same WHERE spelled so that no conjunct is
    batchable (``a + 0``, ``s || ''``): the row filter alone, the
    pipeline every conjunct took before leaf batches.  Rows and UDF
    calls must agree, with and without LIMIT."""

    @pytest.mark.parametrize("where, per_row", [
        # a UDF first: nothing is batched
        ("probe(a) AND s = 'O'", "probe(a) AND s || '' = 'O'"),
        # the UDF is reached for exactly the rows s = 'O' passed
        ("s = 'O' AND probe(a)", "s || '' = 'O' AND probe(a)"),
        ("a >= 10 AND s = 'O' AND probe(a) AND a < 100",
         "a + 0 >= 10 AND s || '' = 'O' AND probe(a) AND a + 0 < 100"),
        ("a IS NOT NULL AND probe(a) = 1",
         "a + 0 IS NOT NULL AND probe(a) = 1"),
    ])
    @pytest.mark.parametrize("limit", [None, 1, 3])
    def test_udf_calls_equal_the_row_filters(self, probed, where, per_row,
                                             limit):
        db, calls = probed
        tail = "" if limit is None else f" LIMIT {limit}"
        rows = db.execute(f"SELECT a, s FROM t WHERE {where}{tail}").rows
        got = list(calls)
        del calls[:]
        want = db.execute(f"SELECT a, s FROM t WHERE {per_row}{tail}").rows
        assert rows == want
        assert got == calls
        if limit is not None:
            assert len(got) < ROWS  # LIMIT stopped the UDF early

    def test_the_udf_sees_exactly_the_rows_the_prefix_passed(self, probed):
        db, calls = probed
        assert db.execute("SELECT COUNT(*) FROM t "
                          "WHERE s = 'O' AND probe(a)").scalar() \
            == len([a for a in range(ROWS) if a % 3 and a % 7 == 6])
        assert calls == [a for a in range(ROWS) if a % 3]
