"""Fixed-size logical pages.

The storage engine, the Retro snapshot system, and the buffer pool all deal
in :class:`Page` objects: a page id plus a fixed-size mutable byte buffer.
Pages are the unit of copy-on-write snapshotting, so everything the SQL
layer stores (table B+trees, index B+trees, the catalog) lives in pages.

A page buffer is laid out by its user (see :mod:`repro.storage.btree` for
the B+tree node layout).  This module only provides the raw container, a
small typed header shared by all users, and helpers for cloning pre-states.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.errors import PageError

DEFAULT_PAGE_SIZE = 4096

#: Value used for "no page" links (e.g. rightmost leaf's next pointer).
NO_PAGE = 0

# Shared page header: type tag (1 byte), LSN (8 bytes), reserved (7 bytes).
_HEADER = struct.Struct("<BQ7x")
HEADER_SIZE = _HEADER.size

PAGE_TYPE_FREE = 0
PAGE_TYPE_BTREE_LEAF = 1
PAGE_TYPE_BTREE_INTERNAL = 2
PAGE_TYPE_META = 3
PAGE_TYPE_OVERFLOW = 4

_VALID_TYPES = frozenset(
    (
        PAGE_TYPE_FREE,
        PAGE_TYPE_BTREE_LEAF,
        PAGE_TYPE_BTREE_INTERNAL,
        PAGE_TYPE_META,
        PAGE_TYPE_OVERFLOW,
    )
)


class Page:
    """A fixed-size page: id + byte buffer + dirty flag + decoded node.

    One object is one page version.  A writer mutates only the private
    page its transaction made (:meth:`private_copy`), and a commit
    publishes that very object; from then on its bytes never change, and
    the buffer pool, MVCC version chains and the snapshot cache hand it
    out by reference.
    """

    __slots__ = ("page_id", "data", "dirty", "node")

    def __init__(self, page_id: int, data: Optional[bytearray] = None,
                 page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_id < 0:
            raise PageError(f"page id must be non-negative, got {page_id}")
        if data is None:
            data = bytearray(page_size)
        elif len(data) != page_size:
            raise PageError(
                f"page {page_id}: buffer is {len(data)} bytes, "
                f"expected {page_size}"
            )
        self.page_id = page_id
        self.data = data
        self.dirty = False
        #: The decoded B+tree node: key/value/child lists parsed once
        #: and, on a leaf, the entries a full scan decoded from them (see
        #: repro.storage.btree and DESIGN.md, "The node cache contract").
        #: A published page's bytes never change (a commit installs the
        #: writer's page object, ``BufferPool.install``), so the node
        #: matches them for as long as this object lives; readers borrow
        #: it and never mutate it, and a writer publishes a private copy
        #: onto its private page, which replaces it.
        self.node = None

    # -- header -----------------------------------------------------------

    @property
    def page_type(self) -> int:
        return _HEADER.unpack_from(self.data, 0)[0]

    @page_type.setter
    def page_type(self, value: int) -> None:
        if value not in _VALID_TYPES:
            raise PageError(f"unknown page type {value}")
        lsn = self.lsn
        _HEADER.pack_into(self.data, 0, value, lsn)

    @property
    def lsn(self) -> int:
        return _HEADER.unpack_from(self.data, 0)[1]

    @lsn.setter
    def lsn(self, value: int) -> None:
        ptype = self.page_type
        _HEADER.pack_into(self.data, 0, ptype, value)

    # -- lifecycle ---------------------------------------------------------

    def mark_dirty(self) -> None:
        self.dirty = True

    def snapshot_bytes(self) -> bytes:
        """Immutable copy of the page contents (a COW pre-state)."""
        return bytes(self.data)

    def private_copy(self) -> "Page":
        """A copy a writer may mutate, sharing the decoded node (an
        immutable snapshot) until the writer publishes its own."""
        private = Page(self.page_id, bytearray(self.data), len(self.data))
        private.node = self.node
        return private

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Page(id={self.page_id}, type={self.page_type}, "
            f"lsn={self.lsn}, dirty={self.dirty})"
        )
