"""The SnapIds table.

The paper stores SnapIds "in a separate SQLite database than application
data because it is a non-snapshotable persistent table" — here, the aux
engine.  Every snapshot declaration transactionally inserts
``(snap_id, snap_ts, snap_name)``; programmers select snapshot sets (the
Qs parameter) from this table, optionally by friendly name or timestamp
range.
"""

from __future__ import annotations

import datetime as _dt
from typing import Callable, List, Optional

from repro.errors import RqlError
from repro.sql.database import Database

SNAPIDS_TABLE = "SnapIds"

Clock = Callable[[], str]


def _default_clock() -> str:
    return _dt.datetime.now().strftime("%Y-%m-%d %H:%M:%S")


class SnapIds:
    """Manages the SnapIds table inside a Database's aux engine."""

    def __init__(self, db: Database, clock: Optional[Clock] = None) -> None:
        self._db = db
        self._clock = clock or _default_clock
        db.execute(
            f"CREATE TEMP TABLE IF NOT EXISTS {SNAPIDS_TABLE} ("
            f"snap_id INTEGER PRIMARY KEY, snap_ts TEXT, snap_name TEXT)"
        )

    # -- registration --------------------------------------------------------

    def record(self, snap_id: int, name: Optional[str] = None,
               timestamp: Optional[str] = None) -> None:
        """Insert a declared snapshot id (transactional, per the paper)."""
        ts = timestamp if timestamp is not None else self._clock()
        name_sql = "NULL" if name is None else f"'{_escape(name)}'"
        self._db.execute(
            f"INSERT INTO {SNAPIDS_TABLE} (snap_id, snap_ts, snap_name) "
            f"VALUES ({snap_id}, '{_escape(ts)}', {name_sql})"
        )

    # -- lookups ---------------------------------------------------------------

    def all_ids(self) -> List[int]:
        result = self._db.execute(
            f"SELECT snap_id FROM {SNAPIDS_TABLE} ORDER BY snap_id"
        )
        return [int(r[0]) for r in result.rows]

    def latest(self) -> Optional[int]:
        result = self._db.execute(
            f"SELECT MAX(snap_id) FROM {SNAPIDS_TABLE}"
        )
        value = result.scalar()
        return int(value) if value is not None else None

    def id_for_name(self, name: str) -> int:
        result = self._db.execute(
            f"SELECT snap_id FROM {SNAPIDS_TABLE} "
            f"WHERE snap_name = '{_escape(name)}'"
        )
        if not result.rows:
            raise RqlError(f"no snapshot named {name!r}")
        return int(result.rows[0][0])

    # -- Qs builders (snapshot-set helpers beyond the bare table) ------------------

    def qs_all(self) -> str:
        return f"SELECT snap_id FROM {SNAPIDS_TABLE}"

    def qs_last(self, count: int, step: int = 1,
                end: Optional[int] = None) -> str:
        """Qs for the last ``count`` snapshots (optionally strided).

        ``end`` pins the newest snapshot of the interval (default: the
        latest declared), matching the paper's ``Slast-k`` notation.
        """
        if count < 1 or step < 1:
            raise RqlError("count and step must be positive")
        last = end if end is not None else self.latest()
        if last is None:
            raise RqlError("no snapshots declared yet")
        first = last - (count - 1) * step
        predicate = (
            f"snap_id BETWEEN {first} AND {last}"
        )
        if step > 1:
            predicate += f" AND (snap_id - {first}) % {step} = 0"
        return (
            f"SELECT snap_id FROM {SNAPIDS_TABLE} WHERE {predicate} "
            f"ORDER BY snap_id"
        )

    def qs_range(self, first: int, last: int, step: int = 1) -> str:
        if step < 1:
            raise RqlError("step must be positive")
        predicate = f"snap_id BETWEEN {first} AND {last}"
        if step > 1:
            predicate += f" AND (snap_id - {first}) % {step} = 0"
        return (
            f"SELECT snap_id FROM {SNAPIDS_TABLE} WHERE {predicate} "
            f"ORDER BY snap_id"
        )

    def qs_time_range(self, start_ts: str, end_ts: str) -> str:
        return (
            f"SELECT snap_id FROM {SNAPIDS_TABLE} "
            f"WHERE snap_ts BETWEEN '{_escape(start_ts)}' "
            f"AND '{_escape(end_ts)}' ORDER BY snap_id"
        )


def check_labels(name: Optional[str], timestamp: Optional[str]) -> None:
    """A snapshot's name and timestamp are text or absent.

    Checked before the snapshot is declared, so a bad label can never
    leave a declared snapshot id without its SnapIds row.
    """
    for label, value in (("name", name), ("timestamp", timestamp)):
        if value is not None and not isinstance(value, str):
            raise RqlError(f"snapshot {label} must be a string, "
                           f"not {type(value).__name__}")


def _escape(text: str) -> str:
    return text.replace("'", "''")
