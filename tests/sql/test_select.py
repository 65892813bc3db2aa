"""End-to-end SELECT execution tests."""

import pytest

from repro.errors import PlanError
from repro.sql.database import Database


@pytest.fixture
def loaded(db):
    db.execute("CREATE TABLE t (a INTEGER, b TEXT, c REAL)")
    db.execute(
        "INSERT INTO t VALUES (1, 'one', 1.5), (2, 'two', 2.5), "
        "(3, 'three', NULL), (NULL, 'null-a', 4.0), (2, 'two-again', 0.5)"
    )
    return db


class TestProjection:
    def test_star(self, loaded):
        result = loaded.execute("SELECT * FROM t")
        assert result.columns == ["a", "b", "c"]
        assert len(result.rows) == 5

    def test_expressions(self, loaded):
        result = loaded.execute("SELECT a * 10 + 1 FROM t WHERE a = 1")
        assert result.scalar() == 11

    def test_aliases_in_result(self, loaded):
        result = loaded.execute("SELECT a AS alpha FROM t WHERE a = 3")
        assert result.columns == ["alpha"]

    def test_constant_select_without_from(self, loaded):
        assert loaded.execute("SELECT 40 + 2").scalar() == 42

    def test_null_propagation(self, loaded):
        result = loaded.execute("SELECT a + c FROM t WHERE b = 'three'")
        assert result.scalar() is None


class TestWhere:
    def test_comparisons(self, loaded):
        assert len(loaded.execute(
            "SELECT * FROM t WHERE a >= 2").rows) == 3
        assert len(loaded.execute(
            "SELECT * FROM t WHERE b != 'two'").rows) == 4

    def test_null_never_matches(self, loaded):
        assert len(loaded.execute(
            "SELECT * FROM t WHERE a = NULL").rows) == 0
        assert len(loaded.execute(
            "SELECT * FROM t WHERE a IS NULL").rows) == 1

    def test_and_or(self, loaded):
        result = loaded.execute(
            "SELECT b FROM t WHERE a = 2 AND c > 1 OR b = 'one'"
        )
        assert sorted(r[0] for r in result.rows) == ["one", "two"]

    def test_in_between_like(self, loaded):
        assert len(loaded.execute(
            "SELECT * FROM t WHERE a IN (1, 3)").rows) == 2
        assert len(loaded.execute(
            "SELECT * FROM t WHERE a BETWEEN 2 AND 3").rows) == 3
        assert len(loaded.execute(
            "SELECT * FROM t WHERE b LIKE 'two%'").rows) == 2


class TestDistinctOrderLimit:
    def test_distinct(self, loaded):
        result = loaded.execute("SELECT DISTINCT a FROM t")
        assert sorted(r[0] for r in result.rows
                      if r[0] is not None) == [1, 2, 3]
        assert len(result.rows) == 4  # includes the NULL

    def test_order_by_asc_desc(self, loaded):
        result = loaded.execute("SELECT a FROM t ORDER BY a")
        assert [r[0] for r in result.rows] == [None, 1, 2, 2, 3]
        result = loaded.execute("SELECT a FROM t ORDER BY a DESC")
        assert [r[0] for r in result.rows] == [3, 2, 2, 1, None]

    def test_order_by_alias_and_position(self, loaded):
        by_alias = loaded.execute(
            "SELECT a AS x FROM t WHERE a IS NOT NULL ORDER BY x DESC"
        )
        by_position = loaded.execute(
            "SELECT a FROM t WHERE a IS NOT NULL ORDER BY 1 DESC"
        )
        assert [r[0] for r in by_alias.rows] == \
            [r[0] for r in by_position.rows] == [3, 2, 2, 1]

    def test_limit_offset(self, loaded):
        result = loaded.execute("SELECT a FROM t ORDER BY a LIMIT 2 OFFSET 1")
        assert [r[0] for r in result.rows] == [1, 2]

    def test_order_by_multiple_keys(self, loaded):
        result = loaded.execute(
            "SELECT a, b FROM t WHERE a = 2 ORDER BY a, b DESC"
        )
        assert [r[1] for r in result.rows] == ["two-again", "two"]


class TestAggregates:
    def test_count_star_vs_column(self, loaded):
        assert loaded.execute("SELECT COUNT(*) FROM t").scalar() == 5
        assert loaded.execute("SELECT COUNT(a) FROM t").scalar() == 4
        assert loaded.execute("SELECT COUNT(DISTINCT a) FROM t").scalar() == 3

    def test_sum_avg_min_max(self, loaded):
        assert loaded.execute("SELECT SUM(a) FROM t").scalar() == 8
        assert loaded.execute("SELECT MIN(c) FROM t").scalar() == 0.5
        assert loaded.execute("SELECT MAX(b) FROM t").scalar() == "two-again"
        assert loaded.execute("SELECT AVG(a) FROM t").scalar() == 2.0

    def test_empty_aggregate(self, loaded):
        assert loaded.execute(
            "SELECT COUNT(*) FROM t WHERE a = 99").scalar() == 0
        assert loaded.execute(
            "SELECT SUM(a) FROM t WHERE a = 99").scalar() is None

    def test_group_by(self, loaded):
        result = loaded.execute(
            "SELECT a, COUNT(*) AS c FROM t GROUP BY a ORDER BY a"
        )
        assert result.rows == [(None, 1), (1, 1), (2, 2), (3, 1)]

    def test_group_by_having(self, loaded):
        result = loaded.execute(
            "SELECT a, COUNT(*) AS c FROM t GROUP BY a HAVING c > 1"
        )
        assert result.rows == [(2, 2)]

    def test_group_by_expression_output(self, loaded):
        result = loaded.execute(
            "SELECT a, SUM(c) * 2 FROM t WHERE a = 2 GROUP BY a"
        )
        assert result.rows == [(2, 6.0)]

    def test_ungrouped_column_rejected(self, loaded):
        with pytest.raises(PlanError):
            loaded.execute("SELECT a, b, COUNT(*) FROM t GROUP BY a")

    def test_order_by_aggregate(self, loaded):
        result = loaded.execute(
            "SELECT a, COUNT(*) FROM t WHERE a IS NOT NULL "
            "GROUP BY a ORDER BY COUNT(*) DESC, a"
        )
        assert [r[0] for r in result.rows] == [2, 1, 3]


class TestJoins:
    @pytest.fixture
    def join_db(self, db):
        db.execute("CREATE TABLE dept (id INTEGER PRIMARY KEY, name TEXT)")
        db.execute("CREATE TABLE emp (eid INTEGER, did INTEGER, pay REAL)")
        db.execute("INSERT INTO dept VALUES (1, 'eng'), (2, 'ops'), (3, 'hr')")
        db.execute(
            "INSERT INTO emp VALUES (1, 1, 10.0), (2, 1, 20.0), "
            "(3, 2, 30.0), (4, NULL, 40.0)"
        )
        return db

    def test_comma_join_with_where(self, join_db):
        result = join_db.execute(
            "SELECT e.eid, d.name FROM emp e, dept d "
            "WHERE e.did = d.id ORDER BY e.eid"
        )
        assert result.rows == [(1, "eng"), (2, "eng"), (3, "ops")]

    def test_join_on(self, join_db):
        result = join_db.execute(
            "SELECT COUNT(*) FROM emp JOIN dept ON emp.did = dept.id"
        )
        assert result.scalar() == 3

    def test_null_join_keys_dropped(self, join_db):
        result = join_db.execute(
            "SELECT COUNT(*) FROM emp e, dept d WHERE e.did = d.id"
        )
        assert result.scalar() == 3

    def test_cross_join(self, join_db):
        result = join_db.execute("SELECT COUNT(*) FROM emp, dept")
        assert result.scalar() == 12

    def test_join_uses_pk_index(self, join_db):
        # dept.id has a PK index -> no auto-index should be built.
        from repro.retro.metrics import MetricsSink

        sink = MetricsSink()
        join_db.attach_metrics(sink)
        join_db.execute(
            "SELECT COUNT(*) FROM emp e, dept d WHERE e.did = d.id"
        )
        join_db.attach_metrics(None)
        assert sink.current.index_creation_seconds == 0.0

    def test_join_without_index_builds_auto_index(self, join_db):
        from repro.retro.metrics import MetricsSink

        sink = MetricsSink()
        join_db.attach_metrics(sink)
        join_db.execute(
            "SELECT COUNT(*) FROM dept d, emp e WHERE d.id = e.did "
            "AND d.name = 'eng'"
        )
        join_db.attach_metrics(None)
        assert sink.current.index_creation_seconds > 0.0

    def test_three_way_join(self, join_db):
        join_db.execute("CREATE TABLE loc (did INTEGER, city TEXT)")
        join_db.execute(
            "INSERT INTO loc VALUES (1, 'NYC'), (2, 'SF')"
        )
        result = join_db.execute(
            "SELECT e.eid, d.name, l.city FROM emp e, dept d, loc l "
            "WHERE e.did = d.id AND d.id = l.did ORDER BY e.eid"
        )
        assert result.rows == [
            (1, "eng", "NYC"), (2, "eng", "NYC"), (3, "ops", "SF"),
        ]

    def test_ambiguous_column(self, join_db):
        join_db.execute("CREATE TABLE emp2 (eid INTEGER)")
        with pytest.raises(PlanError):
            join_db.execute("SELECT eid FROM emp, emp2")

    def test_unknown_table(self, join_db):
        with pytest.raises(PlanError):
            join_db.execute("SELECT * FROM nonexistent")


class TestIndexSelection:
    def test_equality_uses_index(self, db):
        db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        for i in range(0, 500, 50):
            db.execute(
                "INSERT INTO t VALUES " + ", ".join(
                    f"({j}, 'v{j}')" for j in range(i, i + 50)
                )
            )
        # Correctness of equality + range through the PK index.
        assert db.execute("SELECT v FROM t WHERE k = 250").scalar() == "v250"
        assert db.execute(
            "SELECT COUNT(*) FROM t WHERE k < 100").scalar() == 100
        assert db.execute(
            "SELECT COUNT(*) FROM t WHERE k >= 450").scalar() == 50
        assert db.execute(
            "SELECT COUNT(*) FROM t WHERE k BETWEEN 10 AND 19").scalar() == 10

    def test_secondary_index(self, db):
        db.execute("CREATE TABLE t (k INTEGER, grp TEXT)")
        db.execute(
            "INSERT INTO t VALUES " + ", ".join(
                f"({i}, 'g{i % 5}')" for i in range(100)
            )
        )
        db.execute("CREATE INDEX t_grp ON t (grp)")
        result = db.execute("SELECT COUNT(*) FROM t WHERE grp = 'g3'")
        assert result.scalar() == 20


# ---------------------------------------------------------------------------
# A function call on the constant side of a comparison
# ---------------------------------------------------------------------------

#: (predicate, the same predicate with the column wrapped so that no
#: index can serve it and nothing folds at plan time)
FUNCTION_CONSTANT_PREDICATES = [
    ("a = abs(-5)", "a + 0 = abs(-5)"),
    ("c = upper('v5')", "c || '' = upper('v5')"),
    ("a < length('abc')", "a + 0 < length('abc')"),
    ("a BETWEEN abs(-2) AND 3", "a + 0 BETWEEN abs(-2) AND 3"),
    ("abs(-7) <= a", "abs(-7) <= a + 0"),
    ("a = five()", "a + 0 = five()"),
    ("a > five()", "a + 0 > five()"),
]


def function_constant_twin(indexed):
    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, c TEXT)")
    db.execute("INSERT INTO t VALUES " + ", ".join(
        f"({i}, 'V{i}')" for i in range(10)) + ", (NULL, 'V5')")
    if indexed:
        db.execute("CREATE INDEX t_a ON t (a)")
        db.execute("CREATE INDEX t_c ON t (c)")
    db.register_function("five", lambda: 5)
    return db


class TestFunctionCallOnTheConstantSide:
    @pytest.mark.parametrize("indexed", [False, True],
                             ids=["unindexed", "indexed"])
    @pytest.mark.parametrize("pred,wrapped", FUNCTION_CONSTANT_PREDICATES)
    def test_matches_the_unindexable_form(self, pred, wrapped, indexed):
        db = function_constant_twin(indexed)
        got = db.execute(f"SELECT a, c FROM t WHERE {pred}")
        want = db.execute(f"SELECT a, c FROM t WHERE {wrapped}")
        assert sorted(got.rows, key=repr) == sorted(want.rows, key=repr)
        assert want.rows, "the predicate should select something"

    @pytest.mark.parametrize("indexed", [False, True],
                             ids=["unindexed", "indexed"])
    def test_limit_and_offset_fold_builtins(self, indexed):
        db = function_constant_twin(indexed)
        rows = db.execute(
            "SELECT a FROM t WHERE a >= 0 LIMIT abs(-2) OFFSET length('x')"
        ).rows
        assert len(rows) == 2
        assert rows == db.execute(
            "SELECT a FROM t WHERE a >= 0 LIMIT 2 OFFSET 1").rows

    def test_limit_calling_a_udf_says_why(self):
        db = function_constant_twin(False)
        with pytest.raises(PlanError, match="built-in"):
            db.execute("SELECT a FROM t LIMIT five()")

    def test_builtin_constant_still_uses_the_index(self):
        db = function_constant_twin(True)
        plan = [row[0] for row in db.execute(
            "EXPLAIN SELECT c FROM t WHERE a = abs(-5)").rows]
        assert plan[0] == "SEARCH t USING INDEX t_a (=)"

    def test_explain_never_calls_a_udf(self):
        db = function_constant_twin(True)
        calls = []
        db.register_function("noisy", lambda: calls.append(1) or 5)
        plan = [row[0] for row in db.execute(
            "EXPLAIN SELECT c FROM t WHERE a = noisy()").rows]
        assert plan[0] == "SCAN t"
        assert calls == []
        assert db.execute(
            "SELECT c FROM t WHERE a = noisy()").rows == [("V5",)]
        assert calls, "execution evaluates the UDF in the row filter"


# Index keys are doubles: ints beyond +-(2**53 - 1) share a key with their
# neighbours and ints beyond the double range saturate to +-inf.  The row
# locator re-applies the consumed conjunct, so every indexed statement must
# equal its ``k + 0`` twin (which no index serves).
BIG = 2 ** 53
WIDE_KEYS = [BIG, BIG + 1, BIG + 2, 5, -BIG, -BIG - 1]
HUGE = "1" + "0" * 400


@pytest.fixture
def wide_keys(db):
    db.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
    db.execute("CREATE INDEX t_k ON t(k)")
    for v, k in enumerate(WIDE_KEYS):
        db.execute(f"INSERT INTO t VALUES ({k}, {v})")
    return db


class TestIndexKeyPrecision:
    @pytest.mark.parametrize("where", [
        f"k = {BIG + 1}",
        f"k = {BIG}",
        f"k = {-BIG - 1}",
        f"k = {BIG}.0",
        f"k > {BIG}",
        f"k >= {BIG + 1}",
        f"k < {-BIG}",
        f"k <= {BIG + 1}",
        f"k BETWEEN {BIG + 1} AND {BIG + 1}",
        f"k BETWEEN {-BIG - 1} AND {BIG}",
        f"k = {HUGE}",
        f"k < {HUGE}",
        f"k > -{HUGE}",
        f"k >= {HUGE}",
    ], ids=lambda where: where.replace(HUGE, "1e400"))
    def test_indexed_probe_equals_its_unindexed_twin(self, wide_keys, where):
        indexed = wide_keys.execute(
            f"SELECT k FROM t WHERE {where} ORDER BY k").rows
        twin = wide_keys.execute(
            f"SELECT k FROM t WHERE {where.replace('k', 'k + 0', 1)} "
            "ORDER BY k").rows
        assert indexed == twin
        plan = wide_keys.execute(
            f"EXPLAIN SELECT k FROM t WHERE {where}").rows[0][0]
        assert plan.startswith("SEARCH t USING INDEX t_k")

    def test_equality_beyond_2_53_returns_one_row(self, wide_keys):
        assert wide_keys.execute(
            f"SELECT k FROM t WHERE k = {BIG + 1}").rows == [(BIG + 1,)]
        assert wide_keys.execute(
            f"EXPLAIN SELECT k FROM t WHERE k = {BIG + 1}"
        ).rows[0][0] == "SEARCH t USING INDEX t_k (=)"

    def test_literal_beyond_the_double_range_matches_nothing(self, wide_keys):
        assert wide_keys.execute(
            f"SELECT k FROM t WHERE k = {HUGE}").rows == []
        assert len(wide_keys.execute(
            f"SELECT k FROM t WHERE k < {HUGE}").rows) == len(WIDE_KEYS)

    def test_native_index_join_does_not_pair_colliding_keys(self, wide_keys):
        wide_keys.execute("CREATE TABLE o (k INTEGER)")
        wide_keys.execute(f"INSERT INTO o VALUES ({BIG + 1}), (5), ({HUGE[:19]})")
        plan = wide_keys.execute(
            "EXPLAIN SELECT o.k, t.k FROM o, t WHERE t.k = o.k").rows
        assert any("USING INDEX t_k (k=?)" in line for (line,) in plan)
        assert wide_keys.execute(
            "SELECT o.k, t.k FROM o, t WHERE t.k = o.k ORDER BY o.k"
        ).rows == [(5, 5), (BIG + 1, BIG + 1)]
