"""Monoid / merge properties for every mergeable aggregate.

The parallel executor's correctness rests on ``merge(fold(A), fold(B))
== fold(A + B)`` for each aggregate (paper Section 2.3's abelian-monoid
requirement), plus the stored-row merge (``TableAggregateSchema.merge``)
mirroring exactly what the serial probe pass
(``TableAggregateSchema.apply``) would have produced. Hypothesis drives
every mergeable aggregate of ``repro.sql.aggregates`` — including
AVG's hidden ``(__avg_sum, __avg_cnt)`` helper pair.

Generated numbers are dyadic rationals (ints and halves) well below
2^53 so float arithmetic is exact, plus ``-0.0`` and numeric text;
results are compared by ``repr``, which keeps 1 / 1.0 / -0.0 / '1'
apart, matching the differential harness's reasoning.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.folds import MECHANISMS, find_mechanism
from repro.core.mechanisms import TableAggregateSchema
from repro.sql.aggregates import MERGEABLE_AGGREGATES, mergeable_aggregate
from repro.sql.certify import MECHANISM_CLASSES

#: what SUM and AVG read as a number: ints, halves and their text
numeric_text = st.one_of(
    st.integers(min_value=-100, max_value=100).map(str),
    st.integers(min_value=-200, max_value=200).map(lambda x: str(x / 2)),
)
values = st.one_of(
    st.none(),
    st.just(-0.0),
    numeric_text,
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=-200, max_value=200).map(lambda x: x / 2),
)
value_lists = st.lists(values, max_size=12)

SETTINGS = settings(max_examples=200, deadline=None)
MONOIDS = ("min", "max", "sum", "count")


def _eq(a, b):
    return repr(a) == repr(b)


def _fold(name, items):
    state = mergeable_aggregate(name)
    for item in items:
        state.step(item)
    return state


def _merged(name, *parts):
    """The accumulator of ``parts[0]`` with the others merged in."""
    first, *rest = (_fold(name, part) for part in parts)
    for later in rest:
        first.merge(later)
    return first


@pytest.mark.parametrize("name", sorted(MERGEABLE_AGGREGATES))
@SETTINGS
@given(left=value_lists, right=value_lists)
def test_merge_of_partial_folds_equals_single_fold(name, left, right):
    merged = _fold(name, left)
    later = _fold(name, right)
    before = repr(later.dump())
    merged.merge(later)
    whole = _fold(name, left + right)
    assert _eq(merged.dump(), whole.dump())
    assert repr(later.dump()) == before, "merge mutated `later`"


@pytest.mark.parametrize("name", MONOIDS)
@SETTINGS
@given(a=value_lists, b=value_lists, c=value_lists)
def test_binary_op_is_associative(name, a, b, c):
    """The monoid's binary op is the aggregate's ``merge``."""
    right = _fold(name, a)
    right.merge(_merged(name, b, c))
    assert _eq(_merged(name, a, b, c).dump(), right.dump())


@pytest.mark.parametrize("name", MONOIDS)
@SETTINGS
@given(a=value_lists)
def test_identity_element_is_neutral(name, a):
    """The monoid's identity is a fresh accumulator."""
    assert _eq(_merged(name, [], a).dump(), _fold(name, a).dump())
    assert _eq(_merged(name, a, []).dump(), _fold(name, a).dump())


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


@pytest.mark.parametrize("func", MONOIDS)
@SETTINGS
@given(left=st.lists(values, min_size=1, max_size=10),
       right=st.lists(values, min_size=1, max_size=10))
def test_merge_stored_value_matches_serial_probe_fold(func, left, right):
    """Merging two partitions' stored rows is the serial probe fold."""
    schema = _schema(func)
    earlier = _serial_stored(schema, left)
    later = _serial_stored(schema, right)
    serial = _serial_stored(schema, left + right)
    assert _eq(schema.merge(earlier, later), serial)


@SETTINGS
@given(left=st.lists(values, min_size=1, max_size=10),
       right=st.lists(values, min_size=1, max_size=10))
def test_merge_avg_stored_matches_serial_probe_fold(left, right):
    """AVG's stored row: the visible average and its helper pair."""
    schema = _schema("avg")
    assert len(schema.columns) == 4
    merged = schema.merge(_serial_stored(schema, left),
                          _serial_stored(schema, right))
    assert _eq(merged, _serial_stored(schema, left + right))


def test_merge_stored_value_rejects_avg():
    """AVG is never merged as a plain stored value: the visible column
    is re-derived from the merged (sum, count) helpers, even where a
    stored row's visible value disagrees with them."""
    schema = _schema("avg")
    merged = schema.merge(("k", 4, 4.0, 1), ("k", None, 0.0, 0))
    assert _eq(merged, ("k", 4.0, 4.0, 1))
    merged = schema.merge(("k", 99, 4.0, 1), ("k", 0, 2.0, 1))
    assert _eq(merged, ("k", 3.0, 6.0, 2))


# ---------------------------------------------------------------------------
# The fold algebra itself (repro.core.folds), without a database: plain
# per-snapshot row lists in, FoldResult out.
# ---------------------------------------------------------------------------

AGG_FUNCS = sorted(MERGEABLE_AGGREGATES)
FOLD_SETTINGS = settings(max_examples=60, deadline=None)
floats = st.one_of(
    st.none(),
    st.just(-0.0),
    numeric_text,
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
