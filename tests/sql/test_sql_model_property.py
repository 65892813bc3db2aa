"""Model-based property test: random single-table queries vs a Python
reference implementation.

Generates random rows plus random WHERE predicates / aggregations and
checks the SQL engine against a straightforward in-memory evaluation.
This exercises the full stack (parser → planner → B+tree scans →
expression evaluation) under randomized inputs.

A scan decodes each record only up to the last column its statement
reads, so many statements here read a proper prefix of ``(a, b, s)``:
``COUNT(*)``, ``a`` alone, ``a, b`` with ``s`` unread, aliases in
ORDER BY and HAVING, and several widths in turn over one table, where
a narrower scan borrows what a wider one decoded.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql.database import Database

COLUMNS = ("a", "b", "s")

values_a = st.one_of(st.none(), st.integers(min_value=-20, max_value=20))
values_b = st.one_of(st.none(), st.integers(min_value=0, max_value=5))
values_s = st.one_of(st.none(), st.sampled_from(["x", "y", "zz", ""]))

rows_strategy = st.lists(
    st.tuples(values_a, values_b, values_s), min_size=0, max_size=25,
)

comparison = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


#: SELECT lists as (sql_text, row -> output tuple), narrowest first
PROJECTIONS = (
    ("a", lambda r: (r["a"],)),
    ("a, b", lambda r: (r["a"], r["b"])),
    ("b, a", lambda r: (r["b"], r["a"])),
    ("a, b, s", lambda r: (r["a"], r["b"], r["s"])),
)


@st.composite
def predicates(draw, reads_s=True):
    """A random predicate as (sql_text, python_eval); without
    ``reads_s`` it never names column ``s``."""
    kinds = ["cmp_a", "cmp_b", "s_eq", "a_null", "between", "in_b", "and",
             "or"]
    if not reads_s:
        kinds.remove("s_eq")
    kind = draw(st.sampled_from(kinds))
    if kind == "cmp_a":
        op = draw(comparison)
        value = draw(st.integers(min_value=-20, max_value=20))
        py = _cmp("a", op, value)
        return f"a {op} {value}", py
    if kind == "cmp_b":
        op = draw(comparison)
        value = draw(st.integers(min_value=0, max_value=5))
        py = _cmp("b", op, value)
        return f"b {op} {value}", py
    if kind == "s_eq":
        target = draw(st.sampled_from(["x", "y", "zz"]))
        return (f"s = '{target}'",
                lambda r: r["s"] is not None and r["s"] == target)
    if kind == "a_null":
        negated = draw(st.booleans())
        sql = "a IS NOT NULL" if negated else "a IS NULL"
        return sql, (lambda r: r["a"] is not None) if negated \
            else (lambda r: r["a"] is None)
    if kind == "between":
        return draw(between_predicates())
    if kind == "in_b":
        members = sorted(draw(st.sets(
            st.integers(min_value=0, max_value=5), min_size=1,
            max_size=3)))
        sql = f"b IN ({', '.join(map(str, members))})"
        return sql, lambda r: r["b"] is not None and r["b"] in members
    left_sql, left_py = draw(predicates(reads_s))
    right_sql, right_py = draw(predicates(reads_s))
    if kind == "and":
        return (f"({left_sql}) AND ({right_sql})",
                lambda r: left_py(r) and right_py(r))
    return (f"({left_sql}) OR ({right_sql})",
            lambda r: left_py(r) or right_py(r))


@st.composite
def bounds(draw):
    """A BETWEEN bound as (sql_text, row -> value): an integer literal,
    NULL, or column ``b`` (itself NULL in some rows)."""
    kind = draw(st.sampled_from(["literal", "literal", "null", "column"]))
    if kind == "null":
        return "NULL", lambda r: None
    if kind == "column":
        return "b", lambda r: r["b"]
    value = draw(st.integers(min_value=-20, max_value=20))
    return str(value), lambda r: value


@st.composite
def between_predicates(draw):
    negated = draw(st.booleans())
    (lo_sql, lo), (hi_sql, hi) = draw(bounds()), draw(bounds())
    return (f"a {'NOT ' if negated else ''}BETWEEN {lo_sql} AND {hi_sql}",
            lambda r: _between_holds(r["a"], lo(r), hi(r), negated))


def _between_holds(value, lo, hi, negated):
    """``value [NOT] BETWEEN lo AND hi`` is TRUE, read as the Kleene
    conjunction ``value >= lo AND value <= hi``: one FALSE comparison
    decides even when the other is NULL."""
    lower = None if value is None or lo is None else value >= lo
    upper = None if value is None or hi is None else value <= hi
    if lower is False or upper is False:
        return negated
    if lower is None or upper is None:
        return False
    return not negated


def _cmp(column, op, value):
    import operator

    fn = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
          "<=": operator.le, ">": operator.gt, ">=": operator.ge}[op]
    return lambda r: r[column] is not None and fn(r[column], value)


def load(rows, page_size=None):
    db = Database() if page_size is None else Database(page_size=page_size)
    db.execute("CREATE TABLE t (a INTEGER, b INTEGER, s TEXT)")
    if rows:
        literals = ", ".join(
            "(" + ", ".join(_lit(v) for v in row) + ")" for row in rows
        )
        db.execute(f"INSERT INTO t VALUES {literals}")
    return db


def _lit(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return str(value)


@settings(max_examples=60, deadline=None)
@given(rows_strategy, predicates())
def test_filtered_count_matches_model(rows, predicate):
    sql_pred, py_pred = predicate
    db = load(rows)
    got = db.execute(f"SELECT COUNT(*) FROM t WHERE {sql_pred}").scalar()
    model = [dict(zip(COLUMNS, row)) for row in rows]
    expected = sum(1 for r in model if py_pred(r))
    assert got == expected, sql_pred


@settings(max_examples=60, deadline=None)
@given(rows_strategy, predicates(), st.sampled_from(PROJECTIONS))
def test_filtered_rows_match_model(rows, predicate, projection):
    sql_pred, py_pred = predicate
    sql_items, py_items = projection
    db = load(rows)
    got = sorted(db.execute(
        f"SELECT {sql_items} FROM t WHERE {sql_pred}").rows,
        key=repr)
    model = [dict(zip(COLUMNS, row)) for row in rows]
    expected = sorted(
        (py_items(r) for r in model if py_pred(r)),
        key=repr,
    )
    assert got == expected, (sql_items, sql_pred)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(values_a, values_b, values_s), min_size=0,
                max_size=120),
       predicates(reads_s=False),
       st.permutations(range(len(PROJECTIONS) + 1)))
def test_reads_of_several_widths_over_one_table_match_model(
        rows, predicate, order):
    """COUNT(*), ``a``, ``a, b`` (``s`` unread) and every column, over
    the same leaves in a drawn order, filtered and unfiltered: each
    width must see the model's rows whichever wider or narrower scan
    decoded the leaves before it."""
    sql_pred, py_pred = predicate
    db = load(rows, page_size=1024)
    model = [dict(zip(COLUMNS, row)) for row in rows]
    for index in order:
        for where, keep in ((f" WHERE {sql_pred}", py_pred),
                            ("", lambda r: True)):
            if index == len(PROJECTIONS):
                got = db.execute(f"SELECT COUNT(*) FROM t{where}").scalar()
                assert got == sum(1 for r in model if keep(r)), where
                continue
            sql_items, py_items = PROJECTIONS[index]
            got = db.execute(f"SELECT {sql_items} FROM t{where}").rows
            assert got == [py_items(r) for r in model if keep(r)], \
                (sql_items, where)


@settings(max_examples=150, deadline=None)
@given(rows_strategy, between_predicates())
def test_between_rows_match_model(rows, predicate):
    """[NOT] BETWEEN with literal, NULL and column-valued bounds, through
    SELECT and through DELETE (which locates rows with the same
    predicate)."""
    sql_pred, py_pred = predicate
    db = load(rows)
    got = sorted(db.execute(
        f"SELECT a, b, s FROM t WHERE {sql_pred}").rows, key=repr)
    expected = sorted(
        (row for row in rows if py_pred(dict(zip(COLUMNS, row)))), key=repr)
    assert got == expected, sql_pred
    db.execute(f"DELETE FROM t WHERE {sql_pred}")
    assert db.execute("SELECT COUNT(*) FROM t").scalar() \
        == len(rows) - len(expected), sql_pred


@settings(max_examples=40, deadline=None)
@given(rows_strategy)
def test_aggregates_match_model(rows):
    db = load(rows)
    a_values = [row[0] for row in rows if row[0] is not None]
    assert db.execute("SELECT COUNT(a) FROM t").scalar() == len(a_values)
    got_sum = db.execute("SELECT SUM(a) FROM t").scalar()
    assert got_sum == (sum(a_values) if a_values else None)
    got_min = db.execute("SELECT MIN(a) FROM t").scalar()
    assert got_min == (min(a_values) if a_values else None)
    got_max = db.execute("SELECT MAX(a) FROM t").scalar()
    assert got_max == (max(a_values) if a_values else None)
    got_avg = db.execute("SELECT AVG(a) FROM t").scalar()
    if a_values:
        assert abs(got_avg - sum(a_values) / len(a_values)) < 1e-9
    else:
        assert got_avg is None


@settings(max_examples=40, deadline=None)
@given(rows_strategy)
def test_group_by_matches_model(rows):
    db = load(rows)
    got = dict(db.execute(
        "SELECT b, COUNT(*) FROM t GROUP BY b").rows)
    expected = {}
    for row in rows:
        expected[row[1]] = expected.get(row[1], 0) + 1
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(rows_strategy, st.integers(min_value=0, max_value=2))
def test_group_by_three_keys_and_having_match_model(rows, threshold):
    """Groups (NULL keys included) come out in first-appearance order,
    HAVING compares an aggregate of the group with a constant."""
    db = load(rows)
    got = db.execute(
        "SELECT a, b, s, COUNT(*), SUM(b), COUNT(DISTINCT a) FROM t "
        f"GROUP BY a, b, s HAVING COUNT(*) > {threshold}").rows
    counts = {}
    for row in rows:
        counts[row] = counts.get(row, 0) + 1
    expected = [
        (a, b, s, n, None if b is None else b * n, 0 if a is None else 1)
        for (a, b, s), n in counts.items() if n > threshold
    ]
    assert got == expected


@settings(max_examples=40, deadline=None)
@given(rows_strategy)
def test_order_by_matches_model(rows):
    db = load(rows)
    got = [row[0] for row in db.execute(
        "SELECT a FROM t ORDER BY a").rows]
    nulls = [None] * sum(1 for row in rows if row[0] is None)
    rest = sorted(row[0] for row in rows if row[0] is not None)
    assert got == nulls + rest


@settings(max_examples=40, deadline=None)
@given(rows_strategy, st.integers(min_value=0, max_value=2))
def test_order_by_alias_and_having_alias_match_model(rows, threshold):
    """An alias names no column: ORDER BY and HAVING read the item's
    expression, and the scan decodes only the columns it names."""
    db = load(rows)
    got = [row[0] for row in db.execute(
        "SELECT a AS x FROM t ORDER BY x").rows]
    nulls = [None] * sum(1 for row in rows if row[0] is None)
    assert got == nulls + sorted(row[0] for row in rows
                                 if row[0] is not None)
    got = db.execute("SELECT b AS k, a + 1 AS y FROM t "
                     "WHERE a IS NOT NULL ORDER BY y, k").rows
    expected = sorted(((row[1], row[0] + 1) for row in rows
                       if row[0] is not None),
                      key=lambda pair: (pair[1], pair[0] is not None,
                                        pair[0] or 0))
    assert got == expected
    got = dict(db.execute(
        "SELECT b, COUNT(*) AS n FROM t GROUP BY b "
        f"HAVING n > {threshold}").rows)
    counts = {}
    for row in rows:
        counts[row[1]] = counts.get(row[1], 0) + 1
    assert got == {b: n for b, n in counts.items() if n > threshold}
    got = db.execute("SELECT COUNT(*) AS n FROM t GROUP BY b "
                     f"HAVING n > {threshold}").rows
    assert got == [(n,) for n in counts.values() if n > threshold]
