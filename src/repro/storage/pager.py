"""Page allocation and access for the current-state database.

The pager owns the meta page, the free list, and the buffer pool.
It is also the *fetch interposition point* the Retro snapshot system relies
on: every page read from the SQL layer goes through a
:class:`~repro.storage.btree.MutablePageSource`, and snapshot queries
simply substitute a snapshot reader for the pager (see
:mod:`repro.retro.manager`).

Meta page layout (after the shared page header)::

    magic u32 | seq u64 | crc u32 | next_page_id u64 | free_count u32
    | free ids u64... | root_count u32 | (name, page_id) record pairs

``crc`` is the CRC32 of the whole page computed with the crc field
zeroed; ``seq`` increments on every meta write.  The meta lives in a
dedicated ``meta_file``: the pager ping-pongs writes between the file's
slots 0 and 1 and loads the valid copy with the highest seq, so a torn
meta write (crash mid-checkpoint) falls back to the previous
checkpoint's meta instead of bricking the store.  Database page 0 is
reserved (never allocated) so page ids start at 1.

The free list and named roots are small at our simulation scale; if they
ever outgrow the meta page the pager raises rather than corrupting it.

Latching: allocation state (next id, free list, roots) is guarded by a
reentrant latch.  The global latch order is ``Pager._latch ->
BufferPool._latch`` (RPL011 checks it): pager methods may call into the
pool while latched, never the reverse.
"""

from __future__ import annotations

import struct
import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import CorruptPageError, ReproError, StorageError
from repro.storage import checksums
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import DiskFile
from repro.storage.page import HEADER_SIZE, PAGE_TYPE_META, Page
from repro.storage.record import decode_record, encode_record

_MAGIC = 0x52514C21  # "RQL!"
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

META_PAGE_ID = 0
_CRC_OFFSET = HEADER_SIZE + _U32.size + _U64.size  # after magic + seq


class Pager:
    """Allocates and frees current-state database pages and owns the
    buffer pool the engine fetches them from."""

    def __init__(self, db_file: DiskFile, pool_capacity: int = 4096, *,
                 meta_file: DiskFile) -> None:
        self._file = db_file
        self._meta_file = meta_file
        self.pool = BufferPool(db_file, pool_capacity)
        self._latch = threading.RLock()
        self._next_page_id = 1
        self._free: List[int] = []
        self._roots: Dict[str, int] = {}
        self._meta_seq = 0
        if len(meta_file) > 0:
            self._load_meta()
        else:
            if len(db_file) == 0:
                # Reserve db slot 0 so page id 0 keeps existing (and
                # stays un-allocatable) even though the meta lives in
                # its own file.
                db_file.write(META_PAGE_ID, bytes(db_file.page_size))
            # Fresh database: materialize the meta page.
            self.write_meta()

    # -- meta page -----------------------------------------------------------

    def _encode_meta(self) -> bytes:
        buf = bytearray(self._file.page_size)
        page = Page(META_PAGE_ID, buf, self._file.page_size)
        page.page_type = PAGE_TYPE_META
        pos = HEADER_SIZE
        _U32.pack_into(buf, pos, _MAGIC)
        pos += _U32.size
        _U64.pack_into(buf, pos, self._meta_seq)
        pos += _U64.size
        crc_pos = pos
        _U32.pack_into(buf, pos, 0)  # crc placeholder
        pos += _U32.size
        _U64.pack_into(buf, pos, self._next_page_id)
        pos += _U64.size
        _U32.pack_into(buf, pos, len(self._free))
        pos += _U32.size
        for pid in self._free:
            _U64.pack_into(buf, pos, pid)
            pos += _U64.size
        roots = encode_record(
            [v for kv in sorted(self._roots.items()) for v in kv]
        )
        if pos + _U32.size + len(roots) > len(buf):
            raise StorageError("meta page overflow (free list too large)")
        _U32.pack_into(buf, pos, len(roots))
        pos += _U32.size
        buf[pos:pos + len(roots)] = roots
        _U32.pack_into(buf, crc_pos, checksums.page_crc(bytes(buf)))
        return bytes(buf)

    def _load_meta(self) -> None:
        # Dual-slot meta: pick the valid copy with the highest seq.  A
        # torn write can damage at most the slot being written, so the
        # other slot always holds the previous checkpoint's meta.
        best: Optional[Tuple[int, int, List[int], Dict[str, int]]] = None
        for slot in range(min(2, len(self._meta_file))):
            try:
                parsed = _parse_meta(self._meta_file.read(slot))
            except (ReproError, struct.error):
                continue
            if best is None or parsed[0] > best[0]:
                best = parsed
        if best is None:
            raise CorruptPageError(
                "no valid meta copy: both slots failed validation")
        self._meta_seq, self._next_page_id, self._free, self._roots = best

    def write_meta(self) -> None:
        """Persist allocation state + roots (called at checkpoint).

        The write ping-pongs between the meta file's two slots so the
        previous copy survives a torn write; the seq field tells the
        loader which copy is newest.
        """
        with self._latch:
            self._meta_seq += 1
            self._meta_file.write(self._meta_seq % 2, self._encode_meta())

    # -- named roots -----------------------------------------------------------

    def get_root(self, name: str) -> Optional[int]:
        return self._roots.get(name)

    def set_root(self, name: str, page_id: Optional[int]) -> None:
        with self._latch:
            if page_id is None:
                self._roots.pop(name, None)
            else:
                self._roots[name] = page_id

    def root_names(self) -> List[str]:
        return sorted(self._roots)

    # -- allocation --------------------------------------------------------------

    @property
    def next_page_id(self) -> int:
        return self._next_page_id

    @property
    def page_count(self) -> int:
        """Number of allocated pages (including meta, excluding freed)."""
        return self._next_page_id - len(self._free)

    def allocate(self) -> int:
        with self._latch:
            if self._free:
                return self._free.pop()
            pid = self._next_page_id
            self._next_page_id += 1
            return pid

    def free(self, page_id: int) -> None:
        if page_id == META_PAGE_ID:
            raise StorageError("cannot free the meta page")
        with self._latch:
            self._free.append(page_id)

    def allocation_state(self) -> Dict[str, object]:
        """Allocation info recorded in WAL commit records for recovery."""
        return {"next": self._next_page_id, "free": list(self._free)}

    def restore_allocation_state(self, state: Dict[str, object]) -> None:
        with self._latch:
            self._next_page_id = int(state["next"])  # type: ignore[arg-type]
            self._free = [int(x) for x in state["free"]]  # type: ignore[union-attr]

    # -- commit / checkpoint ------------------------------------------------------

    def install(self, page: Page) -> None:
        """Publish a committed page version (commit-time write path)."""
        self.pool.install(page)

    def checkpoint(self, extra_flush: Optional[Callable[[], None]] = None) -> None:
        """Flush dirty pages + meta to the database file."""
        with self._latch:
            if extra_flush is not None:
                extra_flush()
            self.pool.flush_all()
            self.write_meta()

    def read_committed_from_disk(self, page_id: int) -> bytes:
        """Bypass the pool and read the on-disk (checkpointed) image.

        Used during recovery to recapture COW pre-states that were lost
        with the in-memory Retro buffer.  An id that was allocated and
        freed inside one transaction reaches the free list without ever
        having been written; past the end the file reads as the zero
        pages a later write would pad it with.
        """
        if page_id >= len(self._file):
            return bytes(self._file.page_size)
        return self._file.read(page_id)


def _parse_meta(raw: bytes) -> Tuple[int, int, List[int], Dict[str, int]]:
    """Decode one meta image into (seq, next_page_id, free list, roots).

    Raises CorruptPageError when the magic or checksum does not match (a
    torn or rotted meta write).
    """
    pos = HEADER_SIZE
    (magic,) = _U32.unpack_from(raw, pos)
    if magic != _MAGIC:
        raise CorruptPageError("database meta page has bad magic")
    pos += _U32.size
    (seq,) = _U64.unpack_from(raw, pos)
    pos += _U64.size
    (crc,) = _U32.unpack_from(raw, pos)
    pos += _U32.size
    if checksums.verification_enabled():
        zeroed = bytearray(raw)
        _U32.pack_into(zeroed, _CRC_OFFSET, 0)
        if crc != checksums.page_crc(bytes(zeroed)):
            raise CorruptPageError(
                "database meta page failed its checksum")
    (next_page_id,) = _U64.unpack_from(raw, pos)
    pos += _U64.size
    (nfree,) = _U32.unpack_from(raw, pos)
    pos += _U32.size
    free: List[int] = []
    for _ in range(nfree):
        (pid,) = _U64.unpack_from(raw, pos)
        pos += _U64.size
        free.append(pid)
    (rlen,) = _U32.unpack_from(raw, pos)
    pos += _U32.size
    flat = decode_record(raw[pos:pos + rlen])
    roots = {str(flat[i]): int(flat[i + 1]) for i in range(0, len(flat), 2)}
    return seq, next_page_id, free, roots
