"""Qq rewriting and monoid-aggregate tests (paper Sections 2.3 and 3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rewrite import rewrite_qq, validate_qs, wrap_qs
from repro.errors import AggregateError, MechanismError
from repro.sql.aggregates import (
    mergeable_aggregate,
    parse_col_func_pairs,
)


class TestRewriteQq:
    def test_paper_example(self):
        """The exact rewrite shown in Section 3."""
        qq = ("SELECT DISTINCT current_snapshot() FROM LoggedIn\n"
              "WHERE l_userid = 'UserB';")
        out = rewrite_qq(qq, 17)
        assert out == ("SELECT AS OF 17 DISTINCT 17 FROM LoggedIn\n"
                       "WHERE l_userid = 'UserB'")

    def test_as_of_injection_only(self):
        assert rewrite_qq("SELECT * FROM t", 3) == "SELECT AS OF 3 * FROM t"

    def test_multiple_current_snapshot(self):
        out = rewrite_qq(
            "SELECT current_snapshot(), a, current_snapshot() FROM t", 9,
        )
        assert out == "SELECT AS OF 9 9, a, 9 FROM t"

    def test_string_literals_untouched(self):
        out = rewrite_qq(
            "SELECT a FROM t WHERE b = 'select current_snapshot()'", 5,
        )
        assert out == ("SELECT AS OF 5 a FROM t "
                       "WHERE b = 'select current_snapshot()'")

    def test_case_insensitive_function(self):
        out = rewrite_qq("SELECT Current_Snapshot() FROM t", 2)
        assert out == "SELECT AS OF 2 2 FROM t"

    def test_rejects_non_select(self):
        with pytest.raises(MechanismError):
            rewrite_qq("DELETE FROM t", 1)

    def test_rejects_existing_as_of(self):
        with pytest.raises(MechanismError):
            rewrite_qq("SELECT AS OF 3 * FROM t", 1)

    def test_rejects_current_snapshot_with_args(self):
        with pytest.raises(MechanismError):
            rewrite_qq("SELECT current_snapshot(1) FROM t", 1)

    def test_rewritten_sql_parses(self):
        from repro.sql.parser import parse_one

        out = rewrite_qq(
            "SELECT l_country, COUNT(*) AS c FROM LoggedIn "
            "GROUP BY l_country", 4,
        )
        stmt = parse_one(out)
        assert stmt.as_of.value == 4


class TestWrapQs:
    def test_basic(self):
        out = wrap_qs("SELECT snap_id FROM SnapIds", "rql(%s)")
        assert out == "SELECT rql(snap_id) FROM SnapIds"

    def test_where_preserved(self):
        out = wrap_qs(
            "SELECT snap_id FROM SnapIds WHERE snap_id > 5", "f(%s)",
        )
        assert out == "SELECT f(snap_id) FROM SnapIds WHERE snap_id > 5"

    def test_multi_column_rejected(self):
        with pytest.raises(MechanismError):
            wrap_qs("SELECT a, b FROM SnapIds", "f(%s)")

    def test_validate_qs(self):
        validate_qs("SELECT snap_id FROM SnapIds")
        with pytest.raises(MechanismError):
            validate_qs("DELETE FROM SnapIds")
        with pytest.raises(MechanismError):
            validate_qs("SELECT AS OF 2 snap_id FROM SnapIds")


class TestMonoidAggregates:
    def test_supported_and_rejected(self):
        for name in ("min", "MAX", "Sum", "count", "avg"):
            mergeable_aggregate(name)
        with pytest.raises(AggregateError):
            mergeable_aggregate("count distinct")
        with pytest.raises(AggregateError):
            mergeable_aggregate("median")

    def test_fold_results(self):
        cases = [
            ("min", [3, 1, 2], 1),
            ("max", [3, 1, 2], 3),
            ("sum", [3, 1, 2], 6),
            ("count", [3, None, 2], 2),
            ("avg", [3, 1, 2], 2.0),
        ]
        for name, values, expected in cases:
            agg = mergeable_aggregate(name)
            for value in values:
                agg.step(value)
            assert agg.result() == expected, name

    def test_empty_results(self):
        assert mergeable_aggregate("min").result() is None
        assert mergeable_aggregate("sum").result() is None
        assert mergeable_aggregate("count").result() == 0
        assert mergeable_aggregate("avg").result() is None

    def test_avg_has_no_plain_monoid(self):
        """AVG folds as its (sum, count) pair: the average of two
        partial averages is not the average of the whole."""
        left, right, whole = (mergeable_aggregate("avg") for _ in range(3))
        for value in (1, 2, 3):
            left.step(value)
            whole.step(value)
        right.step(7)
        whole.step(7)
        assert (left.result() + right.result()) / 2 != whole.result()
        assert left.dump() == {"func": "avg", "sum": 6.0, "count": 3}
        left.merge(right)
        assert left.result() == whole.result() == 3.25

    numbers = st.one_of(st.none(),
                        st.integers(min_value=-(10**6), max_value=10**6))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["min", "max", "sum", "count", "avg"]),
           numbers, numbers, numbers)
    def test_monoid_laws(self, name, a, b, c):
        """Associativity, commutativity, identity — the formal
        requirement of paper Section 2.3 — of ``merge`` over the
        accumulators of one value each; a fresh accumulator is e."""
        def of(*items):
            agg = mergeable_aggregate(name)
            for item in items:
                agg.step(item)
            return agg

        def op(x, y):
            x.merge(y)
            return x

        assert op(op(of(a), of(b)), of(c)).result() \
            == op(of(a), op(of(b), of(c))).result()
        assert op(of(a), of(b)).result() == op(of(b), of(a)).result()
        assert op(of(a), of()).result() == of(a).result()
        assert op(of(), of(a)).result() == of(a).result()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(min_value=-(10**6), max_value=10**6),
                    min_size=1, max_size=30),
           st.integers(min_value=0, max_value=29))
    def test_merge_equals_sequential(self, values, split_at):
        """Folding a split stream in two parts then merging equals one
        sequential fold (the monoid property the mechanisms rely on)."""
        split_at = min(split_at, len(values))
        for name in ("min", "max", "sum", "count", "avg"):
            left = mergeable_aggregate(name)
            right = mergeable_aggregate(name)
            whole = mergeable_aggregate(name)
            for value in values[:split_at]:
                left.step(value)
                whole.step(value)
            for value in values[split_at:]:
                right.step(value)
                whole.step(value)
            left.merge(right)
            merged = left.result()
            assert merged == pytest.approx(whole.result())


class TestColFuncPairs:
    def test_python_list_form(self):
        assert parse_col_func_pairs([("c", "max")]) == (("c", "max"),)

    def test_paper_string_form(self):
        assert parse_col_func_pairs("(l_time,min)") == (("l_time", "min"),)

    def test_paper_reversed_order(self):
        # The paper writes "(MAX,cn)" in Section 5.3.
        assert parse_col_func_pairs("(MAX,cn)") == (("cn", "max"),)

    def test_multiple_pairs(self):
        assert parse_col_func_pairs("(MAX,cn):(MAX,av)") == (
            ("cn", "max"), ("av", "max"),
        )

    def test_no_function_rejected(self):
        with pytest.raises(AggregateError):
            parse_col_func_pairs("(a,b)")

    def test_empty_rejected(self):
        with pytest.raises(AggregateError):
            parse_col_func_pairs([])

    def test_bad_string(self):
        with pytest.raises(AggregateError):
            parse_col_func_pairs("l_time,min")
