"""Unit tests for built-in scalar/aggregate functions and the registry."""

import pytest

from repro.errors import UdfError
from repro.sql.aggregates import (
    Avg,
    Count,
    Distinct,
    GroupConcat,
    Max,
    Min,
    Sum,
    make_aggregate,
)
from repro.sql.ast import FunctionCall
from repro.sql.functions import FunctionRegistry


def feed(agg, values):
    for value in values:
        agg.step(value)
    return agg.result()


class TestAggregateAccumulators:
    def test_count_skips_nulls(self):
        assert feed(Count(), [1, None, "x", None]) == 2

    def test_sum_and_empty(self):
        assert feed(Sum(), [1, 2.5, None]) == 3.5
        assert Sum().result() is None

    def test_avg(self):
        assert feed(Avg(), [2, 4, None]) == 3.0
        assert Avg().result() is None

    def test_min_max_mixed(self):
        assert feed(Min(), [3, 1, 2]) == 1
        assert feed(Max(), ["a", "c", "b"]) == "c"
        assert feed(Min(), [None, None]) is None

    def test_group_concat(self):
        assert feed(GroupConcat(), ["a", None, "b"]) == "a,b"
        assert GroupConcat().result() is None

    def test_distinct_wrapper(self):
        # Exact repeats collapse; values of different storage classes
        # (int 2 vs float 2.0) are kept distinct; NULLs are skipped.
        agg = Distinct(Count())
        assert feed(agg, [1, 1, 2, 2.0, None, "x"]) == 4

    def test_distinct_sum(self):
        agg = Distinct(Sum())
        assert feed(agg, [5, 5, 5, 3]) == 8

    def test_make_aggregate(self):
        assert feed(make_aggregate("SUM", False), [1, 2]) == 3
        assert feed(make_aggregate("count", True), [7, 7]) == 1
        with pytest.raises(UdfError):
            make_aggregate("median", False)

    def test_is_aggregate(self):
        # The parser's one test of "is this call an aggregate" reads the
        # aggregate registry.
        assert FunctionCall("AVG", []).is_aggregate_name()
        assert FunctionCall("total", []).is_aggregate_name()
        assert not FunctionCall("abs", []).is_aggregate_name()


class TestRegistry:
    def test_builtins_present(self):
        registry = FunctionRegistry()
        for name in ("abs", "length", "coalesce", "round", "substr"):
            assert registry.get(name) is not None

    def test_register_and_case_insensitive(self):
        registry = FunctionRegistry()
        registry.register("MyFunc", lambda v: v + 1)
        assert registry.get("myfunc")(1) == 2
        assert registry.get("MYFUNC")(1) == 2

    def test_override_builtin(self):
        registry = FunctionRegistry()
        registry.register("abs", lambda v: "overridden")
        assert registry.get("abs")(1) == "overridden"

    def test_unregister(self):
        registry = FunctionRegistry()
        registry.register("f", lambda: 1)
        registry.unregister("F")
        assert registry.get("f") is None
        registry.unregister("f")  # idempotent

    def test_non_callable_rejected(self):
        registry = FunctionRegistry()
        with pytest.raises(UdfError):
            registry.register("bad", 42)

    def test_snapshot_is_a_copy(self):
        registry = FunctionRegistry()
        snapshot = registry.snapshot()
        registry.register("late", lambda: 1)
        assert "late" not in snapshot


class TestNamedSnapshotFunction:
    def test_as_of_by_name(self, session):
        session.execute("CREATE TABLE t (a INTEGER)")
        session.execute("INSERT INTO t VALUES (1)")
        session.declare_snapshot(name="before-delete")
        session.execute("DELETE FROM t")
        count = session.execute(
            "SELECT AS OF snapshot_id('before-delete') COUNT(*) FROM t"
        ).scalar()
        assert count == 1
        assert session.execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_unknown_name_raises(self, session):
        session.execute("CREATE TABLE t (a INTEGER)")
        session.declare_snapshot()
        with pytest.raises(Exception):
            session.execute(
                "SELECT AS OF snapshot_id('nope') COUNT(*) FROM t"
            )
