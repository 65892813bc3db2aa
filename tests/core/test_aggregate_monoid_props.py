"""Monoid / merge properties for every registered aggregate.

The parallel executor's correctness rests on ``merge(fold(A), fold(B))
== fold(A + B)`` for each aggregate (paper Section 2.3's abelian-monoid
requirement), plus the stored-row merge helpers mirroring exactly what
the serial probe pass (``TableAggregateSchema.apply``) would have
produced. Hypothesis drives every registered factory — including AVG's
hidden ``(__avg_sum, __avg_cnt)`` helper pair.

Generated numbers are dyadic rationals (ints and halves) well below
2^53 so float arithmetic is exact and equality can be checked
bit-for-bit, matching the differential harness's reasoning.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregates import (
    _FACTORIES,
    MONOID_AGGREGATES,
    binary_op,
    identity_element,
    make_cross_snapshot_aggregate,
    merge_avg_stored,
    merge_stored_value,
)
from repro.core.folds import MECHANISMS, find_mechanism
from repro.core.mechanisms import TableAggregateSchema
from repro.sql.certify import MECHANISM_CLASSES

values = st.one_of(
    st.none(),
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=-200, max_value=200).map(lambda x: x / 2),
)
value_lists = st.lists(values, max_size=12)

SETTINGS = settings(max_examples=200, deadline=None)


def _eq(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a == b and type(a) is type(b)


def _fold(name, items):
    state = make_cross_snapshot_aggregate(name)
    for item in items:
        state.absorb(item)
    return state


@pytest.mark.parametrize("name", sorted(_FACTORIES))
@SETTINGS
@given(left=value_lists, right=value_lists)
def test_merge_of_partial_folds_equals_single_fold(name, left, right):
    merged = _fold(name, left)
    merged.merge(_fold(name, right))
    whole = _fold(name, left + right)
    assert _eq(merged.result(), whole.result())


@pytest.mark.parametrize("name", MONOID_AGGREGATES)
@SETTINGS
@given(a=values, b=values, c=values)
def test_binary_op_is_associative(name, a, b, c):
    if name == "count":
        a, b, c = (x is not None and 1 or 0 for x in (a, b, c))
    op = binary_op(name)
    assert _eq(op(op(a, b), c), op(a, op(b, c)))


@pytest.mark.parametrize("name", MONOID_AGGREGATES)
@SETTINGS
@given(a=values)
def test_identity_element_is_neutral(name, a):
    if name == "count":
        a = 1 if a is not None else 0
    op = binary_op(name)
    e = identity_element(name)
    assert _eq(op(e, a), a)
    assert _eq(op(a, e), a)


def _schema(func):
    schema = TableAggregateSchema([("v", func)])
    schema.bind(["g", "v"])
    return schema


def _serial_stored(schema, items):
    """Stored group row after the serial first-insert + probe passes."""
    stored = schema.widen(("k", items[0]))
    for item in items[1:]:
        updated = schema.apply(stored, ("k", item))
        if updated is not None:
            stored = updated
    return stored


@pytest.mark.parametrize("func", MONOID_AGGREGATES)
@SETTINGS
@given(left=st.lists(values, min_size=1, max_size=10),
       right=st.lists(values, min_size=1, max_size=10))
def test_merge_stored_value_matches_serial_probe_fold(func, left, right):
    schema = _schema(func)
    position = schema.agg_specs[0][0]
    earlier = _serial_stored(schema, left)[position]
    later = _serial_stored(schema, right)[position]
    serial = _serial_stored(schema, left + right)[position]
    assert _eq(merge_stored_value(func, earlier, later), serial)


@SETTINGS
@given(left=st.lists(values, min_size=1, max_size=10),
       right=st.lists(values, min_size=1, max_size=10))
def test_merge_avg_stored_matches_serial_probe_fold(left, right):
    schema = _schema("avg")
    position, _, sum_pos, cnt_pos = schema.agg_specs[0]
    a = _serial_stored(schema, left)
    b = _serial_stored(schema, right)
    serial = _serial_stored(schema, left + right)
    merged = merge_avg_stored(a[position], a[sum_pos], a[cnt_pos],
                              b[position], b[sum_pos], b[cnt_pos])
    assert _eq(merged[0], serial[position])
    assert _eq(merged[1], serial[sum_pos])
    assert _eq(merged[2], serial[cnt_pos])


def test_merge_stored_value_rejects_avg():
    with pytest.raises(Exception, match="stored-value merge"):
        merge_stored_value("avg", 1, 2)


# ---------------------------------------------------------------------------
# The fold algebra itself (repro.core.folds), without a database: plain
# per-snapshot row lists in, FoldResult out.
# ---------------------------------------------------------------------------

AGG_FUNCS = sorted(_FACTORIES)
FOLD_SETTINGS = settings(max_examples=60, deadline=None)
floats = st.one_of(
    st.none(),
    st.integers(min_value=-100, max_value=100),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


def _snapshots(cell, scalar=False):
    """Snapshot histories: one row list per snapshot."""
    if scalar:  # AggregateDataInVariable: one column, at most one row
        rows = st.lists(st.tuples(cell), max_size=1)
    else:
        rows = st.lists(
            st.tuples(st.integers(min_value=0, max_value=2), cell),
            max_size=4)
    return st.lists(rows, min_size=1, max_size=4)


#: (mechanism, argument, Qq columns)
FOLD_CASES = [("CollateData", None, ["g", "v"]),
              ("CollateDataIntoIntervals", None, ["g", "v"])] \
    + [("AggregateDataInVariable", f, ["v"]) for f in AGG_FUNCS] \
    + [("AggregateDataInTable", [("v", f)], ["g", "v"]) for f in AGG_FUNCS]
FOLD_IDS = [f"{m}-{a[0][1] if isinstance(a, list) else a}"
            for m, a, _ in FOLD_CASES]


def _stepped(fold, columns, snapshots, after=0):
    for n, rows in enumerate(snapshots, start=after + 1):
        fold.step(n, columns, rows)
    return fold


def _rows(result, stored=()):
    """The rows a result's write plan leaves behind, in rowid order:
    a new table holds ``result.rows``; otherwise the plan overwrites
    some of the ``(rowid, row)`` pairs ``stored`` and adds the rest."""
    table = {} if result.new else dict(stored)
    assert set(dict(result.changed)) <= set(table)
    assert [rowid for rowid, _ in result.changed] \
        == sorted(dict(result.changed))
    table.update(result.changed)
    table.update(enumerate(result.rows, max(table, default=0) + 1))
    return [table[rowid] for rowid in sorted(table)]


def _table(result, stored=()):
    """The stored table a result leaves behind, bit-for-bit (repr keeps
    1 / 1.0 / -0.0 apart)."""
    return repr((result.columns, _rows(result, stored),
                 result.index_columns, result.state,
                 sorted(result.helpers)))


@pytest.mark.parametrize("mechanism,arg,columns", FOLD_CASES, ids=FOLD_IDS)
@FOLD_SETTINGS
@given(data=st.data())
def test_merge_of_range_folds_equals_one_fold(mechanism, arg, columns, data):
    spec = find_mechanism(mechanism)
    history = _snapshots(values, scalar=len(columns) == 1)
    left, right = data.draw(history), data.draw(history)
    merged = _stepped(spec.fold(arg), columns, left)
    later = _stepped(spec.fold(arg, first=False), columns, right,
                     after=len(left))
    before = _table(later.result())
    merged.merge(later)
    whole = _stepped(spec.fold(arg), columns, left + right)
    assert _table(merged.result()) == _table(whole.result())
    assert _table(later.result()) == before, "merge mutated `later`"


@pytest.mark.parametrize("mechanism,arg,columns", FOLD_CASES, ids=FOLD_IDS)
@FOLD_SETTINGS
@given(data=st.data())
def test_restore_then_step_equals_one_fold_on_floats(mechanism, arg,
                                                     columns, data):
    """Why view refresh is restore + step: the same additions in the
    same order, so even float SUM/AVG agree bit-for-bit — which
    re-associating ``merge`` cannot promise."""
    spec = find_mechanism(mechanism)
    history = _snapshots(floats, scalar=len(columns) == 1)
    left, right = data.draw(history), data.draw(history)
    base = _stepped(spec.fold(arg), columns, left).result()
    state = None if base.state is None \
        else json.loads(json.dumps(base.state))
    # Rowids with a gap, as a user's DELETE would leave them: the plan
    # addresses stored rows by the rowid they were read under.
    stored = [(2 * n + 3, row) for n, row in enumerate(base.rows)]
    restored = spec.fold.restore(
        arg, lambda: (list(base.columns), list(stored)), state, len(left))
    unstepped = restored.result()
    assert unstepped is None or unstepped.empty
    _stepped(restored, columns, right, after=len(left))
    plan = restored.result()
    whole = _stepped(spec.fold(arg), columns, left + right).result()
    assert not plan.new
    assert _table(plan, stored) == _table(whole)
    # The plan is the difference and nothing else: no unchanged row is
    # rewritten, and it is empty iff the table did not move.
    assert all(repr(row) != repr(dict(stored)[rowid])
               for rowid, row in plan.changed)
    assert plan.empty == (repr(_rows(base)) == repr(_rows(whole)))


def test_stored_row_first_snapshot_duplicates_survive():
    """The serial first pass inserts unprobed; later records (stepped or
    merged) fold onto the earliest row of the group."""
    spec = find_mechanism("AggregateDataInTable")
    arg, columns = [("v", "sum")], ["g", "v"]
    fold = spec.fold(arg)
    fold.step(1, columns, [(1, 5), (1, 7), (2, 1)])
    assert fold.result().rows == [(1, 5), (1, 7), (2, 1)]
    fold.step(2, columns, [(1, 1), (1, 1)])
    assert fold.result().rows == [(1, 7), (1, 7), (2, 1)]
    later = _stepped(spec.fold(arg, first=False), columns,
                     [[(1, 10), (1, 10), (3, 3)]], after=2)
    assert later.result().rows == [(1, 20), (3, 3)]
    fold.merge(later)
    assert fold.result().rows == [(1, 27), (1, 7), (2, 1), (3, 3)]


def test_interval_gap_reopens():
    spec = find_mechanism("CollateDataIntoIntervals")
    history = [[("a",), ("b",)], [("b",)], [("a",), ("b",)]]
    expected = [("a", 1, 1), ("b", 1, 3), ("a", 3, 3)]
    stepped = _stepped(spec.fold(), ["k"], history)
    assert stepped.result().rows == expected
    merged = _stepped(spec.fold(), ["k"], history[:1])
    merged.merge(_stepped(spec.fold(None, first=False), ["k"],
                          history[1:], after=1))
    assert merged.result().rows == expected
    base = _stepped(spec.fold(), ["k"], history[:2]).result()
    stored = list(enumerate(base.rows, 1))
    restored = spec.fold.restore(
        None, lambda: (base.columns, stored), None, 2)
    restored.step(3, ["k"], history[2])
    plan = restored.result()
    assert (plan.new, plan.changed, plan.rows) \
        == (False, [(2, ("b", 1, 3))], [("a", 3, 3)])
    assert _rows(plan, stored) == expected


def test_core_registry_agrees_with_the_certificate_side():
    """The executor splits Qs only when the certified class is the
    fold's class, so both sides must name the same class."""
    assert {name: m.merge_class for name, m in MECHANISMS.items()} \
        == MECHANISM_CLASSES
