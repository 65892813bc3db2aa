"""Chaos harness: crash-point sweeps with a checksummed-recovery oracle.

This module owns the *semantics* of durability testing; the injection
mechanics live in :mod:`repro.storage.chaosdisk`.  Three pieces:

* a **canonical workload** — a fixed sequence of DML, ``COMMIT WITH
  SNAPSHOT`` and checkpoint operations over a small-page database, sized
  so one run crosses well over 50 durable-write boundaries across the
  WAL, Pagelog, Maplog, database and meta files of both engines;
* **golden states** — the logical content (current rows + every declared
  snapshot's rows) captured after each acknowledged operation of a clean
  run;
* a **recovery oracle** — after a crash at write boundary *k* and
  recovery, the store must equal the golden state of exactly the
  acknowledged prefix: committed data present, the in-flight operation
  absent, every declared snapshot answering ``AS OF`` queries exactly
  (:func:`verify_recovery`).  Under *corruption* (bit rot, truncation —
  not plain power loss) the weaker :func:`verify_consistent_prefix`
  oracle applies: some committed prefix, with damaged snapshots either
  correct or explicitly unavailable, never silently wrong.

The sweep is deterministic in ``seed``: a failing crash point reproduces
with ``run_crash_sweep(seed=s, crash_points=[k])``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    CorruptPageError,
    PlanError,
    SimulatedCrash,
    SnapshotUnavailableError,
    UnknownSnapshotError,
)
from repro.sql.database import Database
from repro.storage.chaosdisk import ChaosDisk
from repro.storage.disk import SimulatedDisk

#: Small pages -> many write boundaries per workload run.
PAGE_SIZE = 512

#: Query errors a corrupted store may raise instead of answering; any
#: other outcome but the exact golden answer is an oracle violation.
#: UnknownSnapshotError qualifies only under *corruption* (a damaged
#: index may forget a declaration — a typed refusal, not a lie); the
#: strict crash oracle never tolerates it.
ACCEPTABLE_QUERY_ERRORS = (CorruptPageError, SnapshotUnavailableError,
                           UnknownSnapshotError)

Rows = Tuple[Tuple[object, ...], ...]


# ---------------------------------------------------------------------------
# Canonical workload
# ---------------------------------------------------------------------------

def workload_ops() -> List[Tuple[str, List[str]]]:
    """The canonical DML + snapshot + checkpoint sequence.

    Kinds: ``sql`` (autocommit statements), ``snap`` (one transaction
    sealed by COMMIT WITH SNAPSHOT), ``checkpoint``.  The mix is chosen
    to exercise every write path: WAL groups of several blocks, COW
    captures into the Pagelog, Maplog mappings + declares, dirty-page
    writebacks and dual-slot meta writes at checkpoints, and inserts
    that split B-tree pages (page_size is small).
    """
    return [
        # The key is the rowid, so no index is written unless one is
        # declared: this one puts index pages on every write path.
        ("sql", ["CREATE TABLE accounts (id INTEGER PRIMARY KEY, "
                 "balance INTEGER)",
                 "CREATE INDEX accounts_balance ON accounts (balance)"]),
        ("sql", ["INSERT INTO accounts VALUES " + ", ".join(
            f"({i}, {i * 100})" for i in range(1, 9))]),
        ("snap", ["UPDATE accounts SET balance = balance + 10 "
                  "WHERE id <= 4"]),
        ("snap", ["INSERT INTO accounts VALUES (9, 900), (10, 1000)",
                  "UPDATE accounts SET balance = balance - 3 "
                  "WHERE id >= 7"]),
        ("checkpoint", []),
        ("snap", ["DELETE FROM accounts WHERE id = 2"]),
        ("sql", ["UPDATE accounts SET balance = balance * 2 "
                 "WHERE id > 8"]),
        ("snap", ["UPDATE accounts SET balance = balance + 1 "
                  "WHERE id <= 9"]),
        ("checkpoint", []),
        ("snap", ["INSERT INTO accounts VALUES (11, 42)",
                  "DELETE FROM accounts WHERE id = 5"]),
        ("snap", ["UPDATE accounts SET balance = 0 WHERE id = 11"]),
    ]


def open_database(disk: SimulatedDisk, aux_disk: SimulatedDisk) -> Database:
    """Open the workload's database (manual checkpoints only)."""
    return Database(disk=disk, aux_disk=aux_disk, page_size=PAGE_SIZE,
                    auto_checkpoint_on_snapshot=False)


def apply_ops(db: Database,
              on_op_done: Optional[Callable[[int, Database], None]] = None,
              ) -> None:
    """Run the canonical workload, reporting each acknowledged op."""
    for index, (kind, stmts) in enumerate(workload_ops()):
        if kind == "checkpoint":
            db.checkpoint()
        elif kind == "snap":
            db.execute("BEGIN")
            for stmt in stmts:
                db.execute(stmt)
            db.execute("COMMIT WITH SNAPSHOT")
        else:
            for stmt in stmts:
                db.execute(stmt)
        if on_op_done is not None:
            on_op_done(index, db)


# ---------------------------------------------------------------------------
# Golden states
# ---------------------------------------------------------------------------

@dataclass
class WorkloadState:
    """Logical content of the store at one acknowledged point."""

    #: sorted (id, balance) rows, or None when the table does not exist
    rows: Optional[Rows]
    #: snapshot id -> its sorted rows at declaration time
    snapshots: Dict[int, Rows]

    @property
    def snapshot_count(self) -> int:
        return max(self.snapshots, default=0)


def _table_rows(db: Database, as_of: Optional[int] = None) -> Optional[Rows]:
    prefix = f"AS OF {as_of} " if as_of is not None else ""
    try:
        result = db.execute(f"SELECT {prefix}id, balance FROM accounts")
    except PlanError:
        return None  # table not created yet at this point in history
    return tuple(sorted(result.rows))


def capture_state(db: Database) -> WorkloadState:
    snapshots = {
        sid: _table_rows(db, as_of=sid)
        for sid in range(1, db.latest_snapshot_id + 1)
    }
    return WorkloadState(rows=_table_rows(db), snapshots=snapshots)


def golden_states(seed: int = 0) -> Tuple[List[WorkloadState], int]:
    """Clean chaos-free run: per-op golden states + total write count.

    ``states[i]`` is the store's content after ``i`` acknowledged ops
    (``states[0]`` right after construction), which is exactly what a
    crash during op ``i`` must recover to.  The returned write count is
    the number of crash boundaries a sweep must cover.
    """
    disk = ChaosDisk(PAGE_SIZE, seed=seed)
    aux = ChaosDisk(PAGE_SIZE, controller=disk.chaos)
    db = open_database(disk, aux)
    states = [capture_state(db)]
    apply_ops(db, on_op_done=lambda i, d: states.append(capture_state(d)))
    return states, disk.write_count


# ---------------------------------------------------------------------------
# Recovery oracles
# ---------------------------------------------------------------------------

def verify_recovery(db: Database, state: WorkloadState,
                    context: str = "") -> None:
    """Strict post-crash oracle (pure power loss, torn or clean).

    Every acknowledged commit must be present exactly, the in-flight
    operation absent, and every declared snapshot must answer AS OF
    queries with its golden rows.  Pure crashes never lose acknowledged
    state in this design (acknowledged implies durable implies
    checksum-valid), so no degradation is tolerated here — that laxity
    belongs to :func:`verify_consistent_prefix` only.
    """
    where = f" [{context}]" if context else ""
    actual = _table_rows(db)
    assert actual == state.rows, (
        f"current rows diverged after recovery{where}:\n"
        f"  expected {state.rows}\n  actual   {actual}"
    )
    assert db.latest_snapshot_id == state.snapshot_count, (
        f"snapshot count {db.latest_snapshot_id} != "
        f"{state.snapshot_count}{where}"
    )
    for sid, rows in state.snapshots.items():
        got = _table_rows(db, as_of=sid)
        assert got == rows, (
            f"snapshot {sid} diverged after recovery{where}:\n"
            f"  expected {rows}\n  actual   {got}"
        )


def verify_recovery_any(db: Database,
                        candidates: Sequence[WorkloadState],
                        context: str = "") -> None:
    """Strict oracle over the in-flight window.

    A crash interrupts at most one workload op, but an op can span
    several engine-level commits (the main commit is acknowledged at its
    WAL seal, before the aux engine's).  Atomicity per commit therefore
    pins recovery to one of *two* golden states: everything acked, with
    the in-flight op either fully absent or fully present.  Each
    candidate is checked in full (rows and snapshots from the same
    state) — anything else is a violation.
    """
    failures: List[AssertionError] = []
    for state in candidates:
        try:
            verify_recovery(db, state, context)
            return
        except AssertionError as exc:
            failures.append(exc)
    raise AssertionError(
        "recovered state matches no acknowledged-prefix candidate:\n"
        + "\n".join(str(f) for f in failures)
    )


def verify_consistent_prefix(db: Database,
                             states: Sequence[WorkloadState],
                             context: str = "") -> None:
    """Corruption oracle: correct prefix or typed refusal, never lies.

    The recovered current state must equal *some* golden prefix (WAL
    tail corruption legitimately rolls back to the last valid commit
    boundary).  A snapshot's content is immutable once declared, so any
    snapshot the store *answers* for must answer with its golden rows —
    refusing with a typed error is always allowed, a different answer
    never is.  The store must not claim snapshots that were never
    declared.
    """
    where = f" [{context}]" if context else ""
    actual = _table_rows(db)
    assert any(s.rows == actual for s in states), (
        f"recovered rows match no committed prefix{where}:\n"
        f"  rows {actual}"
    )
    golden = states[-1].snapshots  # sid -> immutable declared content
    count = db.latest_snapshot_id
    assert count <= len(golden), (
        f"store claims {count} snapshots, only {len(golden)} were "
        f"declared{where}"
    )
    for sid in range(1, count + 1):
        try:
            got = _table_rows(db, as_of=sid)
        except ACCEPTABLE_QUERY_ERRORS:
            continue  # explicitly unavailable: allowed, never wrong
        assert got == golden[sid], (
            f"snapshot {sid} silently diverged{where}:\n"
            f"  expected {golden[sid]}\n  actual   {got}"
        )


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    """Outcome + recovery-cost accounting of one crash-point sweep."""

    crash_points: int = 0
    verified: int = 0
    torn: bool = False
    seed: int = 0
    #: wall-clock seconds spent inside recovery (Database reopen)
    recovery_wall_seconds: float = 0.0
    #: simulated device seconds charged during recovery
    recovery_sim_seconds: float = 0.0
    #: chaos event description per crash point (for failure reports)
    events: List[str] = field(default_factory=list)

    @property
    def mean_recovery_wall_seconds(self) -> float:
        return (self.recovery_wall_seconds / self.crash_points
                if self.crash_points else 0.0)


def run_crash_sweep(seed: int = 0, tear: bool = False,
                    crash_points: Optional[Sequence[int]] = None,
                    oracle: Callable[[Database, Sequence[WorkloadState],
                                      str], None] = verify_recovery_any,
                    ) -> SweepResult:
    """Crash at every write boundary, recover, verify the oracle.

    ``crash_points`` narrows the sweep (1-based write ordinals) when
    reproducing a single failure; by default every boundary of the
    clean run is covered.  Raises AssertionError (with the chaos event
    in the message) on the first oracle violation.
    """
    states, total_writes = golden_states(seed)
    points = list(crash_points) if crash_points is not None \
        else list(range(1, total_writes + 1))
    result = SweepResult(crash_points=len(points), torn=tear, seed=seed)
    for k in points:
        disk = ChaosDisk(PAGE_SIZE, seed=seed)
        aux = ChaosDisk(PAGE_SIZE, controller=disk.chaos)
        disk.schedule_crash(at_write=k, tear=tear)
        acked = 0

        def op_done(index: int, _db: Database) -> None:
            nonlocal acked
            acked = index + 1

        try:
            db = open_database(disk, aux)
            apply_ops(db, on_op_done=op_done)
        except SimulatedCrash:
            pass
        disk.power_on()
        context = (f"seed={seed} crash_at={k} tear={tear}: "
                   f"{disk.chaos.last_event}")
        result.events.append(disk.chaos.last_event)
        sim_before = disk.simulated_seconds()
        wall_before = time.perf_counter()
        recovered = open_database(disk, aux)
        result.recovery_wall_seconds += time.perf_counter() - wall_before
        result.recovery_sim_seconds += disk.simulated_seconds() - sim_before
        oracle(recovered, states[acked:acked + 2], context)
        result.verified += 1
    return result
