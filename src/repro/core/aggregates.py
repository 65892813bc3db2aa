"""Cross-snapshot aggregate functions.

Section 2.3 of the paper requires aggregates used by the RQL aggregation
mechanisms to be definable by an **abelian monoid** ``(X, op, e)`` — an
associative, commutative binary operation with identity — because values
arrive one snapshot at a time and are folded incrementally.  MIN, MAX,
SUM and COUNT qualify; AVG does not, but is "widely used in SQL", so the
paper implements it as a special case (a (sum, count) pair folded
monoidally, divided at the end).  ``COUNT DISTINCT`` / ``SUM DISTINCT``
are rejected with a pointer to Collate Data, exactly as the paper
prescribes.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import AggregateError
from repro.sql.types import SqlValue, compare, to_number

#: Names the mechanisms accept (case-insensitive).
MONOID_AGGREGATES = ("min", "max", "sum", "count")
SPECIAL_AGGREGATES = ("avg",)
SUPPORTED_AGGREGATES = MONOID_AGGREGATES + SPECIAL_AGGREGATES

_REJECTED_HINT = (
    "is not definable by an abelian monoid; use CollateData and run the "
    "aggregation over the collated result instead (paper Section 2.3)"
)


class CrossSnapshotAggregate:
    """Incremental fold of one value per snapshot (or per record)."""

    name: str = ""
    #: JSON key -> attribute holding that piece of the fold state
    _state_fields: Dict[str, str] = {}

    def absorb(self, value: SqlValue) -> None:
        """Fold one observed value into the state (NULLs are skipped)."""
        raise NotImplementedError

    def merge(self, other: "CrossSnapshotAggregate") -> None:
        """Fold another partial state in (monoid op; used by tests)."""
        raise NotImplementedError

    def result(self) -> SqlValue:
        raise NotImplementedError

    def dump(self) -> Dict[str, SqlValue]:
        """The fold state as a plain dict (materialized views persist it
        as JSON); :func:`restore_cross_snapshot_aggregate` inverts it."""
        payload: Dict[str, SqlValue] = {"func": self.name}
        for key, attr in self._state_fields.items():
            payload[key] = getattr(self, attr)
        return payload


class _MinAgg(CrossSnapshotAggregate):
    name = "min"
    _state_fields = {"value": "best"}

    def __init__(self) -> None:
        self.best: SqlValue = None

    def absorb(self, value: SqlValue) -> None:
        if value is None:
            return
        if self.best is None or compare(value, self.best) == -1:
            self.best = value

    def merge(self, other: "CrossSnapshotAggregate") -> None:
        self.absorb(other.result())

    def result(self) -> SqlValue:
        return self.best


class _MaxAgg(CrossSnapshotAggregate):
    name = "max"
    _state_fields = {"value": "best"}

    def __init__(self) -> None:
        self.best: SqlValue = None

    def absorb(self, value: SqlValue) -> None:
        if value is None:
            return
        if self.best is None or compare(value, self.best) == 1:
            self.best = value

    def merge(self, other: "CrossSnapshotAggregate") -> None:
        self.absorb(other.result())

    def result(self) -> SqlValue:
        return self.best


class _SumAgg(CrossSnapshotAggregate):
    name = "sum"
    _state_fields = {"value": "total"}

    def __init__(self) -> None:
        self.total: Optional[float] = None

    def absorb(self, value: SqlValue) -> None:
        if value is None:
            return
        number = to_number(value)
        self.total = number if self.total is None else self.total + number

    def merge(self, other: "CrossSnapshotAggregate") -> None:
        self.absorb(other.result())

    def result(self) -> SqlValue:
        return self.total


class _CountAgg(CrossSnapshotAggregate):
    name = "count"
    _state_fields = {"value": "count"}

    def __init__(self) -> None:
        self.count = 0

    def absorb(self, value: SqlValue) -> None:
        if value is not None:
            self.count += 1

    def merge(self, other: "CrossSnapshotAggregate") -> None:
        if isinstance(other, _CountAgg):
            self.count += other.count
        else:
            raise AggregateError("cannot merge count with non-count state")

    def result(self) -> SqlValue:
        return self.count


class _AvgAgg(CrossSnapshotAggregate):
    """The paper's AVG special case: a (sum, count) monoid, divided last."""

    name = "avg"
    _state_fields = {"sum": "total", "count": "count"}

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def absorb(self, value: SqlValue) -> None:
        if value is None:
            return
        self.total += float(to_number(value))
        self.count += 1

    def merge(self, other: "CrossSnapshotAggregate") -> None:
        if isinstance(other, _AvgAgg):
            self.total += other.total
            self.count += other.count
        else:
            raise AggregateError("cannot merge avg with non-avg state")

    def result(self) -> SqlValue:
        return self.total / self.count if self.count else None


_FACTORIES: Dict[str, Callable[[], CrossSnapshotAggregate]] = {
    "min": _MinAgg,
    "max": _MaxAgg,
    "sum": _SumAgg,
    "count": _CountAgg,
    "avg": _AvgAgg,
}


def make_cross_snapshot_aggregate(name: str) -> CrossSnapshotAggregate:
    """Build an aggregate state; rejects non-monoid aggregate names."""
    key = name.strip().lower()
    if key in ("count distinct", "count_distinct", "sum distinct",
               "sum_distinct", "distinct"):
        raise AggregateError(f"{name!r} {_REJECTED_HINT}")
    factory = _FACTORIES.get(key)
    if factory is None:
        raise AggregateError(
            f"unknown aggregate {name!r}; supported: "
            f"{', '.join(SUPPORTED_AGGREGATES)}"
        )
    return factory()


def restore_cross_snapshot_aggregate(
        payload: Dict[str, SqlValue]) -> CrossSnapshotAggregate:
    """Rebuild an aggregate state from :meth:`CrossSnapshotAggregate.dump`."""
    state = make_cross_snapshot_aggregate(str(payload["func"]))
    for key, attr in state._state_fields.items():
        setattr(state, attr, payload[key])
    return state


def binary_op(name: str) -> Callable[[SqlValue, SqlValue], SqlValue]:
    """The underlying binary operation (for monoid property tests).

    For AVG this raises — AVG is not a monoid on plain values, which is
    exactly why the paper treats it specially.
    """
    key = name.strip().lower()
    if key == "min":
        return lambda a, b: b if a is None else a if b is None else (
            a if compare(a, b) <= 0 else b)
    if key == "max":
        return lambda a, b: b if a is None else a if b is None else (
            a if compare(a, b) >= 0 else b)
    if key == "sum":
        return lambda a, b: b if a is None else a if b is None else (
            to_number(a) + to_number(b))
    if key == "count":
        return lambda a, b: (a or 0) + (b or 0)
    raise AggregateError(f"{name!r} has no plain-value monoid operation")


def identity_element(name: str) -> SqlValue:
    """The monoid identity (None acts as identity for min/max/sum)."""
    key = name.strip().lower()
    if key in ("min", "max", "sum"):
        return None
    if key == "count":
        return 0
    raise AggregateError(f"{name!r} has no plain-value monoid identity")


def merge_stored_value(func: str, earlier: SqlValue,
                       later: SqlValue) -> SqlValue:
    """Merge two *stored* aggregate column values from disjoint
    contiguous snapshot partitions (``earlier`` precedes ``later``).

    Mirrors exactly what the serial probe pass would have produced had
    the later partition's records been applied onto the earlier
    partition's stored row — including the tie-keeps-earlier behaviour
    of MIN/MAX and the None-as-identity behaviour of SUM.
    """
    key = func.strip().lower()
    if key == "min":
        if earlier is None:
            return later
        if later is None:
            return earlier
        return later if compare(later, earlier) == -1 else earlier
    if key == "max":
        if earlier is None:
            return later
        if later is None:
            return earlier
        return later if compare(later, earlier) == 1 else earlier
    if key == "sum":
        if earlier is None:
            return later
        if later is None:
            return earlier
        return earlier + later
    if key == "count":
        return (earlier or 0) + (later or 0)
    raise AggregateError(f"{func!r} has no stored-value merge")


def merge_avg_stored(earlier_visible: SqlValue, earlier_sum: SqlValue,
                     earlier_cnt: SqlValue, later_visible: SqlValue,
                     later_sum: SqlValue, later_cnt: SqlValue,
                     ) -> Tuple[SqlValue, SqlValue, SqlValue]:
    """Merge AVG's (visible, __avg_sum, __avg_cnt) stored triple.

    Serial semantics: the visible column is only re-divided when a
    non-NULL value is applied, so a later partition contributing no
    non-NULL values leaves the earlier visible value (possibly the raw
    first observation, or NULL) untouched.
    """
    total = (earlier_sum or 0.0) + (later_sum or 0.0)
    count = (earlier_cnt or 0) + (later_cnt or 0)
    if later_cnt:
        visible: SqlValue = total / count
    else:
        visible = earlier_visible
    return visible, total, count


def parse_col_func_pairs(spec) -> Tuple[Tuple[str, str], ...]:
    """Normalize ListOfColFuncPairs.

    Accepts a list of (column, func) tuples, or the paper's string form
    ``"(l_time,min)"`` / ``"(MAX,cn):(MAX,av)"`` — the paper writes both
    orders, so when exactly one element names a known aggregate it is
    taken as the function regardless of position.
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
        first_is_func = first.lower() in SUPPORTED_AGGREGATES
        second_is_func = second.lower() in SUPPORTED_AGGREGATES
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
        make_cross_snapshot_aggregate(func)  # validates
        normalized.append((column, func.lower()))
    if not normalized:
        raise AggregateError("ListOfColFuncPairs is empty")
    return tuple(normalized)
