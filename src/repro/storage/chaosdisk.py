"""ChaosDisk: deterministic crash-point and corruption injection.

A :class:`ChaosDisk` is a drop-in :class:`~repro.storage.disk.SimulatedDisk`
whose files route every durable write through a shared
:class:`ChaosController`.  The controller can

* **crash** at the N-th write across *all* files (simulated power loss:
  :class:`~repro.errors.SimulatedCrash` is raised, and until
  :meth:`ChaosController.power_on` every later write is silently dropped
  — a powered-off device persists nothing);
* **tear** the crashing write: a deterministic prefix of the slot bytes
  is persisted and the remainder filled with seeded garbage, modelling a
  sector-level partial write;
* **corrupt** durable slots after the fact (bit flips, truncation) via
  the module-level helpers, for the Hypothesis corruption properties.

Everything is deterministic in ``(seed, crash ordinal)`` so a failing
crash point reproduces exactly.

Typical harness shape (see :mod:`repro.chaos` for the full oracle)::

    disk = ChaosDisk(page_size, seed=7)
    total = run_workload(disk)            # count the write boundaries
    for k in range(1, total + 1):
        disk = ChaosDisk(page_size, seed=7)
        disk.schedule_crash(at_write=k, tear=True)
        try:
            run_workload(disk)
        except SimulatedCrash:
            pass
        disk.power_on()
        check_recovery(Database(disk=disk))
"""

from __future__ import annotations

import random
import threading
from typing import Callable, Optional

from repro.errors import SimulatedCrash, StorageError
from repro.storage.disk import CostModel, DiskFile, SimulatedDisk

__all__ = [
    "ChaosController",
    "ChaosDisk",
    "ChaosFile",
    "SimulatedCrash",
    "flip_bit",
    "corrupt_slot",
    "tear_slot",
    "truncate_file",
]


class ChaosController:
    """Shared fault schedule + write counter for one or more disks.

    Passing the same controller to several :class:`ChaosDisk` objects
    (e.g. a Database's main and aux disks) makes the crash ordinal count
    writes across all of them, so a sweep covers every boundary of the
    whole deployment.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        # One controller may sit under every session thread's disk: the
        # schedule and counters are latched (reentrant: ``on_write``
        # runs ``persist`` while holding it).
        self._latch = threading.RLock()
        #: durable writes performed while powered on
        self.write_count = 0
        #: writes silently swallowed while powered off
        self.dropped_writes = 0
        self.crash_at: Optional[int] = None
        self.tear = False
        self.powered_off = False
        #: description of the last injected fault (for failure reports)
        self.last_event = ""

    def __getstate__(self) -> dict:
        # Locks can't be copied or pickled (the sweep harness deep-copies
        # whole disks per crash point); the copy gets a fresh latch.
        state = self.__dict__.copy()
        state.pop("_latch", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._latch = threading.RLock()

    # -- scheduling ------------------------------------------------------

    def schedule_crash(self, at_write: int, tear: bool = False) -> None:
        """Crash (power off) at the ``at_write``-th write from now (1-based).

        With ``tear=True`` the crashing write persists a random prefix of
        its bytes; otherwise it persists nothing.
        """
        if at_write < 1:
            raise StorageError("crash ordinal must be >= 1")
        with self._latch:
            self.crash_at = self.write_count + at_write
            self.tear = tear

    def power_on(self) -> None:
        """Clear power-off state and any pending schedule (pre-recovery)."""
        with self._latch:
            self.powered_off = False
            self.crash_at = None

    @property
    def armed(self) -> bool:
        return self.crash_at is not None and not self.powered_off

    # -- the write interposition point ----------------------------------

    def on_write(self, file: DiskFile, raw: bytes,
                 persist: Callable[[bytes], object]) -> object:
        """Route one durable write, applying the fault schedule.

        ``persist`` performs the real write when invoked; it may be
        called with mangled bytes (torn write) or not at all (clean
        crash / powered off).
        """
        with self._latch:
            if self.powered_off:
                self.dropped_writes += 1
                return None
            self.write_count += 1
            if self.crash_at is not None \
                    and self.write_count >= self.crash_at:
                self.powered_off = True
                self.crash_at = None
                detail = f"write #{self.write_count} to {file.name!r}"
                if self.tear:
                    keep = self._rng.randrange(1, len(raw))
                    garbage = bytes(
                        self._rng.getrandbits(8)
                        for _ in range(len(raw) - keep)
                    )
                    persist(raw[:keep] + garbage)
                    self.last_event = \
                        f"torn crash at {detail} (kept {keep}B)"
                else:
                    self.last_event = f"clean crash at {detail}"
                raise SimulatedCrash(
                    f"simulated power loss: {self.last_event}")
            return persist(raw)


class ChaosFile(DiskFile):
    """A :class:`DiskFile` whose writes pass through a ChaosController."""

    def __init__(self, name: str, page_size: int, stats,
                 append_only: bool, controller: ChaosController) -> None:
        super().__init__(name, page_size, stats, append_only)
        self._controller = controller

    def append(self, raw: bytes) -> int:
        self._check(raw)
        slot = self._controller.on_write(
            self, bytes(raw), lambda data: DiskFile.append(self, data))
        if slot is None:
            # Powered off: the caller's slot arithmetic keeps advancing,
            # but the in-memory engine is about to be discarded anyway.
            return len(self._pages)
        return slot  # type: ignore[return-value]

    def write(self, slot: int, raw: bytes) -> None:
        self._check(raw)
        self._controller.on_write(
            self, bytes(raw), lambda data: DiskFile.write(self, slot, data))


class ChaosDisk(SimulatedDisk):
    """A SimulatedDisk whose files inject scheduled faults."""

    def __init__(self, page_size: int,
                 cost_model: Optional[CostModel] = None,
                 seed: int = 0,
                 controller: Optional[ChaosController] = None) -> None:
        super().__init__(page_size, cost_model)
        self.chaos = controller if controller is not None \
            else ChaosController(seed)

    def _make_file(self, name: str, append_only: bool) -> DiskFile:
        return ChaosFile(name, self.page_size, self.stats, append_only,
                         self.chaos)

    # -- conveniences mirrored from the controller -----------------------

    @property
    def write_count(self) -> int:
        return self.chaos.write_count

    def schedule_crash(self, at_write: int, tear: bool = False) -> None:
        self.chaos.schedule_crash(at_write, tear=tear)

    def power_on(self) -> None:
        self.chaos.power_on()


# ---------------------------------------------------------------------------
# Post-hoc corruption helpers (bit rot / fuzzing, not crash simulation).
# They reach into DiskFile._pages on purpose: corruption bypasses the
# write interposition exactly like real media decay bypasses the driver.
# ---------------------------------------------------------------------------

def _slot_bytes(file: DiskFile, slot: int) -> bytes:
    if not 0 <= slot < len(file._pages):
        raise StorageError(f"{file.name}: slot {slot} out of range")
    return file._pages[slot]


def corrupt_slot(file: DiskFile, slot: int, data: bytes) -> None:
    """Replace a durable slot's bytes wholesale (must stay page-sized)."""
    _slot_bytes(file, slot)
    if len(data) != file.page_size:
        raise StorageError("corrupt_slot requires a full page image")
    file._pages[slot] = bytes(data)


def flip_bit(file: DiskFile, slot: int, bit_index: int) -> None:
    """Flip one bit of a durable slot."""
    raw = bytearray(_slot_bytes(file, slot))
    byte, bit = divmod(bit_index % (len(raw) * 8), 8)
    raw[byte] ^= 1 << bit
    file._pages[slot] = bytes(raw)


def tear_slot(file: DiskFile, slot: int, keep: int,
              filler: int = 0) -> None:
    """Keep a prefix of a durable slot, filling the rest with ``filler``."""
    raw = _slot_bytes(file, slot)
    keep = max(0, min(keep, len(raw)))
    file._pages[slot] = raw[:keep] + bytes([filler & 0xFF]) * (len(raw) - keep)


def truncate_file(file: DiskFile, length: int) -> None:
    """Drop every slot at index >= ``length`` (media-level truncation)."""
    file.truncate(length)
