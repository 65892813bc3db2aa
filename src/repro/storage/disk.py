"""Simulated storage devices with cost accounting.

The paper's testbed keeps the current-state database memory resident while
snapshot pre-states live in an on-SSD Pagelog.  Reproducing the evaluation
therefore needs a device model that (a) stores page images durably across
simulated crashes and (b) meters every read/write so the benchmark harness
can charge I/O costs deterministically.

:class:`SimulatedDisk` is a named collection of :class:`DiskFile` objects.
A ``DiskFile`` supports both random page access (the database file) and
append-only access (WAL, Pagelog, Maplog).  All accesses update a shared
:class:`DeviceStats`, and a :class:`CostModel` converts the counters into
simulated seconds.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.errors import PageError, StorageError


@dataclass
class CostModel:
    """Charge table converting device operations to simulated seconds.

    Defaults model the paper's setup: the database is memory resident
    (reads are cheap), while Pagelog reads hit an SSD.
    """

    #: Cost of reading one page from a random-access file (memory-resident
    #: database page in the paper's configuration).
    db_read_seconds: float = 2e-6
    #: Cost of reading one page from an append-only log file (SSD Pagelog).
    log_read_seconds: float = 1e-4
    #: Cost of writing one page (batched sequential writes amortize well).
    write_seconds: float = 2e-5

    def charge(self, stats: "DeviceStats") -> float:
        """Total simulated seconds implied by ``stats``."""
        return (
            stats.random_reads * self.db_read_seconds
            + stats.log_reads * self.log_read_seconds
            + (stats.random_writes + stats.log_writes) * self.write_seconds
        )


@dataclass
class DeviceStats:
    """Operation counters for one device (or a delta between two points).

    One stats block is shared by every file of a disk — and on a
    server, by every session's thread — so the counters only move
    through the latched ``note_*`` methods.
    """

    random_reads: int = 0
    random_writes: int = 0
    log_reads: int = 0
    log_writes: int = 0

    def __post_init__(self) -> None:
        self._latch = threading.Lock()

    def __getstate__(self) -> dict:
        # Locks can't be copied or pickled; the copy gets a fresh one.
        state = self.__dict__.copy()
        state.pop("_latch", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._latch = threading.Lock()

    def note_random_read(self) -> None:
        with self._latch:
            self.random_reads += 1

    def note_random_write(self) -> None:
        with self._latch:
            self.random_writes += 1

    def note_log_read(self) -> None:
        with self._latch:
            self.log_reads += 1

    def note_log_write(self) -> None:
        with self._latch:
            self.log_writes += 1

    def snapshot(self) -> "DeviceStats":
        with self._latch:
            return DeviceStats(
                self.random_reads, self.random_writes,
                self.log_reads, self.log_writes,
            )

    def delta(self, earlier: "DeviceStats") -> "DeviceStats":
        """Counters accumulated since ``earlier`` was captured."""
        with self._latch:
            return DeviceStats(
                self.random_reads - earlier.random_reads,
                self.random_writes - earlier.random_writes,
                self.log_reads - earlier.log_reads,
                self.log_writes - earlier.log_writes,
            )

    def reset(self) -> None:
        with self._latch:
            self.random_reads = 0
            self.random_writes = 0
            self.log_reads = 0
            self.log_writes = 0


class DiskFile:
    """One simulated file: a growable array of fixed-size page images.

    ``append_only=True`` marks log-structured files (WAL, Pagelog, Maplog)
    whose reads are charged at log-read cost.  Random files (the database)
    charge the cheap random-read cost.
    """

    def __init__(self, name: str, page_size: int, stats: DeviceStats,
                 append_only: bool = False) -> None:
        self.name = name
        self.page_size = page_size
        self.append_only = append_only
        self._stats = stats
        self._pages: List[bytes] = []

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def size_bytes(self) -> int:
        return len(self._pages) * self.page_size

    def _check(self, raw: bytes) -> None:
        # A short slot would round-trip silently (slots are stored as
        # whole python bytes objects, not fixed-size extents) and only
        # blow up much later, when a reader unpacks fields past its end
        # — exactly the failure shape of a torn write, but with no
        # injection to blame.  Reject it at the write boundary with the
        # taxonomy's page error so callers can tell "my image is
        # malformed" from generic device failures.
        if len(raw) != self.page_size:
            raise PageError(
                f"{self.name}: image is {len(raw)} bytes, expected "
                f"{self.page_size}"
            )

    def append(self, raw: bytes) -> int:
        """Append a page image, returning its slot number."""
        self._check(raw)
        self._pages.append(bytes(raw))
        self._stats.note_log_write()
        return len(self._pages) - 1

    def read(self, slot: int) -> bytes:
        if not 0 <= slot < len(self._pages):
            raise StorageError(f"{self.name}: slot {slot} out of range")
        if self.append_only:
            self._stats.note_log_read()
        else:
            self._stats.note_random_read()
        return self._pages[slot]

    def write(self, slot: int, raw: bytes) -> None:
        """Random write (extends the file with zero pages if needed)."""
        if self.append_only:
            raise StorageError(f"{self.name}: random writes not allowed")
        self._check(raw)
        while slot >= len(self._pages):
            self._pages.append(bytes(self.page_size))
        self._pages[slot] = bytes(raw)
        self._stats.note_random_write()

    def truncate(self, length: int = 0) -> None:
        if length < 0:
            raise StorageError(f"{self.name}: negative truncate length")
        del self._pages[length:]

    def scan(self, start: int = 0) -> Iterator[bytes]:
        """Sequential scan from ``start``; charges one read per page."""
        for slot in range(start, len(self._pages)):
            yield self.read(slot)


class SimulatedDisk:
    """A set of named :class:`DiskFile` objects sharing one stats block.

    Contents survive "crashes" (the in-memory engine state being thrown
    away) as long as the ``SimulatedDisk`` object itself is kept, which is
    how the recovery tests simulate power loss.
    """

    def __init__(self, page_size: int, cost_model: Optional[CostModel] = None) -> None:
        self.page_size = page_size
        self.cost_model = cost_model or CostModel()
        self.stats = DeviceStats()
        self._files: Dict[str, DiskFile] = {}

    def open_file(self, name: str, append_only: bool = False) -> DiskFile:
        """Open (creating if missing) the file ``name``."""
        existing = self._files.get(name)
        if existing is not None:
            if existing.append_only != append_only:
                raise StorageError(
                    f"file {name} reopened with different append_only flag"
                )
            return existing
        f = self._make_file(name, append_only)
        self._files[name] = f
        return f

    def _make_file(self, name: str, append_only: bool) -> DiskFile:
        """File factory — overridden by the fault-injecting ChaosDisk."""
        return DiskFile(name, self.page_size, self.stats, append_only)

    def exists(self, name: str) -> bool:
        return name in self._files

    def delete_file(self, name: str) -> None:
        self._files.pop(name, None)

    def file_names(self) -> List[str]:
        return sorted(self._files)

    def simulated_seconds(self) -> float:
        """Simulated time implied by all operations so far."""
        return self.cost_model.charge(self.stats)
