"""The aggregate functions: each written once, for SQL and for RQL.

An aggregate is an accumulator: ``step`` folds one value in (NULLs are
skipped) and ``result`` reads the answer.  SQL's GROUP BY steps one per
group; the RQL mechanisms step one per snapshot (or per stored group
row), so a cross-snapshot aggregate agrees with the plain SQL aggregate
by construction.

Section 2.3 of the paper requires the aggregates the mechanisms fold to
be definable by an **abelian monoid** ``(X, op, e)``: values arrive one
snapshot at a time, and partitions of the snapshot set fold apart.
MIN, MAX, SUM and COUNT qualify; AVG does not, but is "widely used in
SQL", so the paper folds it as a (sum, count) pair divided at the end.
These five are *mergeable*: ``merge(later)`` is the monoid's ``op``
(it folds in the accumulator of a later run of values), a fresh
accumulator is ``e``, and ``dump`` / :func:`restore_aggregate` carry
the state through JSON.  GROUP_CONCAT, TOTAL and the DISTINCT forms
are SQL only: a mechanism refuses them, ``COUNT DISTINCT`` /
``SUM DISTINCT`` with a pointer to Collate Data, exactly as the paper
prescribes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Type

from repro.errors import AggregateError, UdfError
from repro.sql.types import SqlValue, compare, to_number

_REJECTED_HINT = (
    "is not definable by an abelian monoid; use CollateData and run the "
    "aggregation over the collated result instead (paper Section 2.3)"
)


class Aggregate:
    """One aggregate's accumulator."""

    name = ""
    #: foldable across snapshots: has ``merge``, ``dump`` and ``restore``
    mergeable = False
    #: the attributes holding the state, which are also its JSON keys
    fields: Tuple[str, ...] = ()
    #: a value that does not replace the state leaves it as it was
    #: (MIN/MAX): a stored row need not be rewritten for it
    idempotent = False

    def step(self, value: SqlValue) -> None:
        """Fold one value into the state (NULLs are skipped)."""
        raise NotImplementedError

    def result(self) -> SqlValue:
        raise NotImplementedError

    def merge(self, later: "Aggregate") -> None:
        """Fold in the accumulator of a later run of values, as if they
        had been stepped here.  ``later`` is left untouched."""
        raise NotImplementedError

    def dump(self) -> Dict[str, SqlValue]:
        """The state as a plain dict (materialized views persist it as
        JSON); :func:`restore_aggregate` inverts it."""
        payload: Dict[str, SqlValue] = {"func": self.name}
        for key in self.fields:
            payload[key] = getattr(self, key)
        return payload


class _Single(Aggregate):
    """A mergeable aggregate whose state is its result."""

    mergeable = True
    fields = ("value",)

    def __init__(self) -> None:
        self.value: SqlValue = None

    def merge(self, later: Aggregate) -> None:
        self.step(later.value)

    def result(self) -> SqlValue:
        return self.value


class Min(_Single):
    name = "min"
    idempotent = True

    def step(self, value: SqlValue) -> None:
        if value is not None and (self.value is None
                                  or compare(value, self.value) == -1):
            self.value = value


class Max(_Single):
    name = "max"
    idempotent = True

    def step(self, value: SqlValue) -> None:
        if value is not None and (self.value is None
                                  or compare(value, self.value) == 1):
            self.value = value


class Sum(_Single):
    name = "sum"

    def step(self, value: SqlValue) -> None:
        if value is None:
            return
        number = to_number(value)
        self.value = number if self.value is None else self.value + number


class Total(Aggregate):
    """SQLite's TOTAL: SUM that is always a float, 0.0 over no rows."""

    name = "total"

    def __init__(self) -> None:
        self.value = 0.0

    def step(self, value: SqlValue) -> None:
        if value is not None:
            self.value += to_number(value)

    def result(self) -> SqlValue:
        return self.value


class Count(_Single):
    """COUNT(expr) counts non-NULL inputs; COUNT(*) feeds a constant."""

    name = "count"

    def __init__(self) -> None:
        self.value = 0

    def step(self, value: SqlValue) -> None:
        if value is not None:
            self.value += 1

    def merge(self, later: Aggregate) -> None:
        self.value += later.value


class Avg(Aggregate):
    """The paper's AVG special case: a (sum, count) monoid, divided last."""

    name = "avg"
    mergeable = True
    fields = ("sum", "count")

    def __init__(self) -> None:
        self.sum = 0.0
        self.count = 0

    def step(self, value: SqlValue) -> None:
        if value is None:
            return
        self.sum += float(to_number(value))
        self.count += 1

    def merge(self, later: Aggregate) -> None:
        self.sum += later.sum
        self.count += later.count

    def result(self) -> SqlValue:
        return self.sum / self.count if self.count else None


class GroupConcat(Aggregate):
    name = "group_concat"

    def __init__(self) -> None:
        self.parts: List[str] = []

    def step(self, value: SqlValue) -> None:
        if value is not None:
            self.parts.append(str(value))

    def result(self) -> SqlValue:
        return ",".join(self.parts) if self.parts else None


class Distinct(Aggregate):
    """Wrapper implementing DISTINCT for any inner aggregate."""

    def __init__(self, inner: Aggregate) -> None:
        self.inner = inner
        self.seen: set = set()

    def step(self, value: SqlValue) -> None:
        if value is None:
            return
        marker = (type(value).__name__, value)
        if marker in self.seen:
            return
        self.seen.add(marker)
        self.inner.step(value)

    def result(self) -> SqlValue:
        return self.inner.result()


_CLASSES: Tuple[Type[Aggregate], ...] = (Min, Max, Sum, Total, Count, Avg,
                                         GroupConcat)
#: every SQL aggregate name (lower case)
AGGREGATES: Dict[str, Type[Aggregate]] = {cls.name: cls for cls in _CLASSES}
#: the names a mechanism folds across snapshots
MERGEABLE_AGGREGATES = tuple(cls.name for cls in _CLASSES if cls.mergeable)


def make_aggregate(name: str, distinct: bool) -> Aggregate:
    """A SQL aggregate's accumulator (GROUP BY builds one per group)."""
    cls = AGGREGATES.get(name.lower())
    if cls is None:
        raise UdfError(f"no such aggregate: {name}")
    agg = cls()
    return Distinct(agg) if distinct else agg


def mergeable_aggregate(name: str) -> Aggregate:
    """A mechanism's accumulator; refuses what no monoid folds."""
    key = name.strip().lower()
    if key in ("count distinct", "count_distinct", "sum distinct",
               "sum_distinct", "distinct"):
        raise AggregateError(f"{name!r} {_REJECTED_HINT}")
    if key not in MERGEABLE_AGGREGATES:
        raise AggregateError(
            f"unknown aggregate {name!r}; supported: "
            f"{', '.join(MERGEABLE_AGGREGATES)}"
        )
    return AGGREGATES[key]()


def restore_aggregate(payload: Dict[str, SqlValue]) -> Aggregate:
    """Rebuild an accumulator from :meth:`Aggregate.dump`."""
    agg = mergeable_aggregate(str(payload["func"]))
    for key in agg.fields:
        setattr(agg, key, payload[key])
    return agg


def parse_col_func_pairs(spec) -> Tuple[Tuple[str, str], ...]:
    """Normalize ListOfColFuncPairs.

    Accepts a list of (column, func) tuples, or the paper's string form
    ``"(l_time,min)"`` / ``"(MAX,cn):(MAX,av)"`` — the paper writes both
    orders, so when exactly one element names a mergeable aggregate it
    is taken as the function regardless of position.
    """
    if isinstance(spec, str):
        pairs = []
        for chunk in spec.split(":"):
            chunk = chunk.strip()
            if not (chunk.startswith("(") and chunk.endswith(")")):
                raise AggregateError(
                    f"bad ListOfColFuncPairs element {chunk!r}"
                )
            parts = [p.strip() for p in chunk[1:-1].split(",")]
            if len(parts) != 2:
                raise AggregateError(
                    f"bad ListOfColFuncPairs element {chunk!r}"
                )
            pairs.append(tuple(parts))
    else:
        pairs = [tuple(p) for p in spec]
    normalized = []
    for first, second in pairs:
        first_is_func = first.lower() in MERGEABLE_AGGREGATES
        second_is_func = second.lower() in MERGEABLE_AGGREGATES
        if second_is_func and not first_is_func:
            column, func = first, second
        elif first_is_func and not second_is_func:
            column, func = second, first
        elif second_is_func:  # both look like functions: paper order
            column, func = first, second
        else:
            raise AggregateError(
                f"no aggregate function in pair ({first}, {second})"
            )
        normalized.append((column, func.lower()))
    if not normalized:
        raise AggregateError("ListOfColFuncPairs is empty")
    return tuple(normalized)
