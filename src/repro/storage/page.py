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

#: ``Page.decoded`` of a page whose bytes no node was parsed from
_UNPARSED = (None, None)


class Page:
    """A fixed-size page: id + byte buffer + dirty flag.

    The buffer pool owns ``Page`` objects; other layers receive references
    and must call :meth:`mark_dirty` after mutating ``data`` so the pool,
    the WAL, and the Retro COW hook all observe the modification.
    """

    __slots__ = ("page_id", "data", "dirty", "decoded")

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
        #: ``(bytes, node)``: the decoded B+tree node and the very
        #: ``bytearray`` it was parsed from, published together by one
        #: assignment (``_UNPARSED`` until a node is).  The node is what
        #: tree readers work on: key/value/child lists parsed once and, on
        #: a leaf, the entries a full scan decoded from them (see
        #: repro.storage.btree and DESIGN.md, "The node cache contract").
        #: It is served only while ``bytes is
        #: self.data``.  A published page's bytes never change (a commit
        #: installs a new object, ``BufferPool.put_raw``); readers borrow
        #: the node and never mutate it; a writer publishes a private
        #: copy, which replaces it.  It lives exactly as long as this
        #: object stays in a cache.
        self.decoded = _UNPARSED

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

    # -- decoded node ------------------------------------------------------

    @property
    def decoded_node(self):
        """The node decoded from the current bytes, or None."""
        parsed_from, node = self.decoded
        return node if parsed_from is self.data else None

    @decoded_node.setter
    def decoded_node(self, node) -> None:
        """Publish ``node`` as the decoding of the current bytes: for the
        page's owner (a writer on its private page), which is the only
        one who can know the bytes will not change underneath it."""
        self.decoded = _UNPARSED if node is None else (self.data, node)

    # -- lifecycle ---------------------------------------------------------

    def mark_dirty(self) -> None:
        self.dirty = True

    def snapshot_bytes(self) -> bytes:
        """Immutable copy of the page contents (a COW pre-state)."""
        return bytes(self.data)

    def private_copy(self) -> "Page":
        """A copy a writer may mutate, sharing the decoded node (an
        immutable snapshot) when it was parsed from the copied bytes."""
        parsed_from, node = self.decoded
        data = self.data
        private = Page(self.page_id, bytearray(data), len(data))
        if parsed_from is data:
            private.decoded_node = node
        return private

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Page(id={self.page_id}, type={self.page_type}, "
            f"lsn={self.lsn}, dirty={self.dirty})"
        )
