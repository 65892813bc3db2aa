"""B+trees over fixed-size pages.

Tables are B+trees keyed by rowid, secondary indexes are B+trees keyed by
memcomparable key bytes — the same design as SQLite/BDB, which matters
here because the Retro snapshot system operates on *pages*: every byte the
SQL layer stores (rows, indexes, catalog) must live in pages so snapshots
capture the complete database state.

Design notes
------------
* Keys and values are opaque byte strings; keys collate bytewise (see
  :mod:`repro.storage.record` for the memcomparable key codec).
* The root page id is **fixed** for the lifetime of the tree: root splits
  copy the root's content into a fresh child instead of moving the root.
  This keeps the catalog entry for a tree immutable.
* Deletion is lazy: leaves may underflow; empty pages are unlinked and
  freed, and a single-child internal root collapses.  The tree stays
  correct (all invariants except minimum fill hold), which matches the
  reproduction's needs — page-level COW behaviour is about which pages are
  *touched*, not about perfect occupancy.
* Iteration uses an explicit descent stack rather than sibling links, so
  page frees never have to patch neighbour pointers.

Node layouts (after the shared 16-byte page header)::

    leaf:     u16 ncells | (u16 klen, u32 vlen, key, value)*
    internal: u16 nkeys  | u64 child[nkeys+1] | (u16 klen, key)*
"""

from __future__ import annotations

import bisect
import struct
from itertools import repeat
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.errors import BTreeError
from repro.storage.page import (
    HEADER_SIZE,
    PAGE_TYPE_BTREE_INTERNAL,
    PAGE_TYPE_BTREE_LEAF,
    Page,
)

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_CELL_HDR = struct.Struct("<HI")  # u16 klen + u32 vlen, packed

_LEAF_FIXED = HEADER_SIZE + _U16.size
_LEAF_CELL_OVERHEAD = _U16.size + _U32.size
_INT_FIXED = HEADER_SIZE + _U16.size
_INT_KEY_OVERHEAD = _U16.size
_INT_CHILD_SIZE = _U64.size

#: What a tree's owner makes of one cell: ``decode(key, value) -> entry``.
#: A scan at a *width* (:meth:`BTree.scan_leaves`) calls
#: ``decode(key, value, width)`` instead, for an entry built from the
#: record's first ``width`` values.  Leaves memoize entries per decoder
#: *identity*, so pass one module-level function, never a lambda or
#: bound method made per call.
Decoder = Callable[..., object]

#: What a scan keeps of one leaf: ``leaf_filter(entries) -> kept``, a pure
#: function of one decoder's entries.  Leaves memoize the last filter's
#: result per filter *identity*: a filter that depends on anything but its
#: argument must never be passed.
LeafFilter = Callable[[list], list]


class MutablePageSource:
    """Page access protocol of the B+tree: ``fetch`` for reads, the
    other verbs for writes.

    ``fetch`` is the one verb Retro interposes on.  The current-state
    implementation is the transaction page workspace
    (:mod:`repro.storage.transaction`); read-only sources (snapshot
    readers, the MVCC read path) override only ``fetch`` and inherit
    write verbs that raise, which the tree's read paths never call.  A
    fetched page needs no release: holding the reference is what keeps
    it valid (DESIGN.md, "What keeps a fetched page alive").
    """

    def fetch(self, page_id: int) -> Page:
        raise NotImplementedError

    def allocate_page(self) -> Page:
        raise NotImplementedError("read-only page source")

    def free_page(self, page_id: int) -> None:
        raise NotImplementedError("read-only page source")

    def mark_dirty(self, page: Page) -> None:
        raise NotImplementedError("read-only page source")

    def make_writable(self, page: Page) -> Page:
        """Return a transaction-private copy of ``page`` safe to mutate.

        Pages returned by :meth:`fetch` may be shared (buffer pool); the
        tree must never encode into them directly.  Workspace sources
        return the page itself when it is already private.
        """
        raise NotImplementedError("read-only page source")


# ---------------------------------------------------------------------------
# Node codecs
# ---------------------------------------------------------------------------

def _past_page(page: Page, count: int, what: str) -> BTreeError:
    """The error for a node whose cells run past its page: current-state
    pages carry no checksum, so the parse is what catches the damage."""
    return BTreeError(
        f"page {page.page_id}: {count} {what} run past the "
        f"{len(page.data)}-byte page")


class _LeafNode:
    """A decoded leaf: parallel ``keys`` / ``values`` lists plus the
    entry and filter memos (see "The node cache contract" in DESIGN.md).

    ``entries`` is None until a full scan of a tree that has a decoder
    fills it with ``(decode, width, entries)`` — the whole leaf at once,
    published by one assignment.  ``width`` is None for whole records
    (``decode(key, value)`` per cell) and else the record prefix each
    entry holds (``decode(key, value, width)``).  A scan borrows any
    memo at least as wide as its own width; a probe (:meth:`cell`,
    :meth:`cells`) borrows only a whole-record memo, so it never sees a
    cut entry.  ``kept`` is the same kind of single slot for the last
    filtered scan: ``(leaf_filter, leaf_filter(entries))``.

    ``used`` is how many bytes of the page the node fills, header and
    cell count included; every byte of a leaf page past it is zero.  The
    parse that built the node knows it and a write adjusts it, so neither
    the fit check nor finding a cell's offset walks the cells in Python.
    """

    __slots__ = ("keys", "values", "entries", "kept", "used")

    def __init__(self, keys: List[bytes], values: List[bytes],
                 used: Optional[int] = None) -> None:
        self.keys = keys
        self.values = values
        self.entries: Optional[Tuple[Decoder, Optional[int], list]] = None
        self.kept: Optional[Tuple[LeafFilter, list]] = None
        if used is None:
            used = (_LEAF_FIXED + _LEAF_CELL_OVERHEAD * len(keys)
                    + sum(map(len, keys)) + sum(map(len, values)))
        self.used = used

    @classmethod
    def of(cls, page: Page) -> "_LeafNode":
        """The page's cached node, decoded on a miss.  **Borrowed**:
        every reader of the page shares it, so callers never mutate it
        (writers go through :meth:`copy`)."""
        node = page.node
        if type(node) is cls:
            return node
        raw = page.data
        end = len(raw)
        (ncells,) = _U16.unpack_from(raw, HEADER_SIZE)
        pos = _LEAF_FIXED
        unpack_cell = _CELL_HDR.unpack_from
        hdr = _CELL_HDR.size
        if ncells:
            # One shape: the first cell's header repeats ncells times, so
            # one C call reads every cell.  The header where the last cell
            # would start is checked first, so a node of mixed shapes
            # rarely pays for an unpack it then discards.
            shape = unpack_cell(raw, pos)
            step = hdr + shape[0] + shape[1]
            used = pos + ncells * step
            if used <= end and unpack_cell(raw, used - step) == shape:
                flat = struct.unpack_from(
                    "<" + ("HI%ds%ds" % shape) * ncells, raw, pos)
                if (flat[0::4].count(shape[0]) == ncells
                        and flat[1::4].count(shape[1]) == ncells):
                    node = cls(list(flat[2::4]), list(flat[3::4]), used)
                    page.node = node
                    return node
        keys: List[bytes] = []
        values: List[bytes] = []
        try:
            for _ in range(ncells):
                klen, vlen = unpack_cell(raw, pos)
                pos += hdr
                keys.append(bytes(raw[pos:pos + klen]))
                pos += klen
                values.append(bytes(raw[pos:pos + vlen]))
                pos += vlen
        except struct.error:  # a cell header past the page
            pos = end + 1
        if pos > end:
            raise _past_page(page, ncells, "cells")
        node = cls(keys, values, pos)
        page.node = node
        return node

    def copy(self) -> "_LeafNode":
        """A private node a writer may mutate (keeping ``used`` in step)
        and then publish with :meth:`splice_into` or :meth:`encode_into`;
        neither memo follows it."""
        return _LeafNode(list(self.keys), list(self.values), self.used)

    def cell(self, idx: int, decode: Optional[Decoder]):
        """Cell ``idx`` as the tree's readers see it: the raw value, or
        its whole-record entry — borrowed from the memo when a full scan
        filled it at no width, else decoded for this call and not
        stored."""
        if decode is None:
            return self.values[idx]
        memo = self.entries
        if memo is not None and memo[0] is decode and memo[1] is None:
            return memo[2][idx]
        return decode(self.keys[idx], self.values[idx])

    def cells(self, decode: Optional[Decoder], lo: int = 0,
              hi: Optional[int] = None):
        """Iterator of ``(key, cell)`` over positions ``[lo, hi)`` (cells
        as in :meth:`cell`; without a whole-record memo an entry is
        decoded only when the iterator reaches it)."""
        keys, cells, memo = self.keys, self.values, self.entries
        if memo is not None and memo[0] is decode and memo[1] is None:
            cells, decode = memo[2], None
        if lo or (hi is not None and hi < len(keys)):
            keys, cells = keys[lo:hi], cells[lo:hi]
        if decode is not None:
            cells = map(decode, keys, cells)
        return zip(keys, cells)

    def filled(self, decode: Decoder, width: Optional[int] = None) -> list:
        """Every cell's entry at ``width`` or wider, decoding the whole
        leaf on first use by ``decode`` at that width and keeping the
        list for every later reader of this node.  Idempotent, so racing
        fillers only repeat work."""
        memo = self.entries
        if memo is not None and memo[0] is decode and (
                memo[1] is None or width is not None and memo[1] >= width):
            return memo[2]
        if width is None:
            entries = list(map(decode, self.keys, self.values))
        else:
            entries = list(map(decode, self.keys, self.values,
                               repeat(width)))
        self.entries = (decode, width, entries)
        return entries

    def filtered(self, decode: Decoder, leaf_filter: LeafFilter,
                 width: Optional[int] = None) -> list:
        """What ``leaf_filter`` keeps of :meth:`filled`'s entries,
        computed on first use by that filter and kept for every later
        reader of this node until another filter takes the slot.  Like
        :meth:`filled`, idempotent and published by one assignment.  A
        filter belongs to one plan node, which always reads at one
        width, so the slot need not record it."""
        kept = self.kept
        if kept is not None and kept[0] is leaf_filter:
            return kept[1]
        rows = leaf_filter(self.filled(decode, width))
        self.kept = (leaf_filter, rows)
        return rows

    def encode_into(self, page: Page) -> None:
        """Write the whole node onto ``page``, whatever it held: for a
        node that is new as a whole (an empty tree, the halves of a
        split).  It is also the reference :meth:`splice_into` must match
        byte for byte."""
        # The writer's node becomes the page's cached node: it must not
        # be mutated after this call.
        page.node = self
        raw = page.data
        raw[HEADER_SIZE:] = bytes(len(raw) - HEADER_SIZE)
        page.page_type = PAGE_TYPE_BTREE_LEAF
        pos = HEADER_SIZE
        _U16.pack_into(raw, pos, len(self.keys))
        pos += _U16.size
        hdr = _CELL_HDR.size
        for key, value in zip(self.keys, self.values):
            _CELL_HDR.pack_into(raw, pos, len(key), len(value))
            pos += hdr
            raw[pos:pos + len(key)] = key
            pos += len(key)
            raw[pos:pos + len(value)] = value
            pos += len(value)

    def cell_offset(self, idx: int) -> int:
        """Where cell ``idx`` starts in the page (``used`` for one past
        the last), counted back from ``used`` over the cells behind it:
        an append, the commonest write, sums nothing."""
        keys = self.keys[idx:]
        return (self.used - _LEAF_CELL_OVERHEAD * len(keys)
                - sum(map(len, keys)) - sum(map(len, self.values[idx:])))

    def splice_into(self, page: Page, start: int, old_len: int,
                    cell: bytes) -> None:
        """Make ``page`` hold this node by rewriting one cell.

        ``page`` holds the node this one was copied from; the two differ
        in the ``old_len`` bytes at ``start`` (0 for an insert), which
        become ``cell`` (empty for a delete).  The cells behind move by
        the difference in one slice assignment, what a shrinking leaf
        vacates is zeroed, and the result equals :meth:`encode_into` on a
        blank page with the same header.
        """
        page.node = self  # not to be mutated from here on
        raw = page.data
        end = start + len(cell)
        grown = len(cell) - old_len
        if grown:
            used = self.used
            raw[end:used] = raw[start + old_len:used - grown]
            if grown < 0:
                raw[used:used - grown] = bytes(-grown)
        raw[start:end] = cell
        _U16.pack_into(raw, HEADER_SIZE, len(self.keys))


class _InternalNode:
    __slots__ = ("keys", "children")

    def __init__(self, keys: List[bytes], children: List[int]) -> None:
        self.keys = keys
        self.children = children

    @classmethod
    def of(cls, page: Page) -> "_InternalNode":
        """The page's cached node, decoded on a miss; **borrowed**, as
        :meth:`_LeafNode.of`."""
        node = page.node
        if type(node) is cls:
            return node
        raw = page.data
        end = len(raw)
        (nkeys,) = _U16.unpack_from(raw, HEADER_SIZE)
        pos = _INT_FIXED + (nkeys + 1) * _INT_CHILD_SIZE
        if pos > end:
            raise _past_page(page, nkeys, "keys")
        children: List[int] = list(
            struct.unpack_from("<%dQ" % (nkeys + 1), raw, _INT_FIXED))
        if nkeys and pos + _INT_KEY_OVERHEAD <= end:
            # One shape, as in _LeafNode.of: every key as long as the first.
            (klen,) = _U16.unpack_from(raw, pos)
            step = _INT_KEY_OVERHEAD + klen
            used = pos + nkeys * step
            if (used <= end
                    and _U16.unpack_from(raw, used - step)[0] == klen):
                flat = struct.unpack_from("<" + ("H%ds" % klen) * nkeys,
                                          raw, pos)
                if flat[0::2].count(klen) == nkeys:
                    node = cls(list(flat[1::2]), children)
                    page.node = node
                    return node
        keys: List[bytes] = []
        try:
            for _ in range(nkeys):
                (klen,) = _U16.unpack_from(raw, pos)
                pos += _INT_KEY_OVERHEAD
                keys.append(bytes(raw[pos:pos + klen]))
                pos += klen
        except struct.error:  # a key length past the page
            pos = end + 1
        if pos > end:
            raise _past_page(page, nkeys, "keys")
        node = cls(keys, children)
        page.node = node
        return node

    def copy(self) -> "_InternalNode":
        return _InternalNode(list(self.keys), list(self.children))

    def encode_into(self, page: Page) -> None:
        page.node = self
        raw = page.data
        raw[HEADER_SIZE:] = bytes(len(raw) - HEADER_SIZE)
        page.page_type = PAGE_TYPE_BTREE_INTERNAL
        pos = HEADER_SIZE
        _U16.pack_into(raw, pos, len(self.keys))
        pos += _U16.size
        for child in self.children:
            _U64.pack_into(raw, pos, child)
            pos += _U64.size
        for key in self.keys:
            _U16.pack_into(raw, pos, len(key))
            pos += _U16.size
            raw[pos:pos + len(key)] = key
            pos += len(key)

    def byte_size(self) -> int:
        return (
            _INT_FIXED
            + len(self.children) * _INT_CHILD_SIZE
            + sum(_INT_KEY_OVERHEAD + len(k) for k in self.keys)
        )


# ---------------------------------------------------------------------------
# The tree
# ---------------------------------------------------------------------------

class BTree:
    """A B+tree rooted at a fixed page id.

    Read-only operations (:meth:`get`, :meth:`scan_from`, :meth:`scan_all`)
    need only :meth:`MutablePageSource.fetch`; mutating operations need a
    source whose write verbs are implemented.

    With a ``decode`` function the tree is a typed view: reads hand out
    ``decode(key, value)`` entries instead of raw values, and a full scan
    (:meth:`scan_leaves`) leaves each leaf's entries on its cached node
    for every later reader of that page.  Writes take raw bytes either
    way.
    """

    def __init__(self, source: MutablePageSource, root_id: int,
                 decode: Optional[Decoder] = None) -> None:
        self.source = source
        self.root_id = root_id
        self.decode = decode

    # -- creation --------------------------------------------------------------

    @classmethod
    def create(cls, source: MutablePageSource) -> "BTree":
        """Allocate and initialize an empty tree; returns the new tree."""
        page = source.allocate_page()
        _LeafNode([], []).encode_into(page)
        source.mark_dirty(page)
        tree = cls(source, page.page_id)
        return tree

    # -- helpers --------------------------------------------------------------

    def _capacity(self, page: Page) -> int:
        return len(page.data)

    def _max_cell(self, page: Page) -> int:
        return (len(page.data) - _LEAF_FIXED) // 2 - _LEAF_CELL_OVERHEAD

    def _fetch(self, page_id: int) -> Page:
        return self.source.fetch(page_id)

    # -- point operations ----------------------------------------------------------

    def get(self, key: bytes):
        """Return the cell stored under ``key`` (the raw value, or its
        entry when the tree has a decoder), or None."""
        page = self._fetch(self.root_id)
        while page.page_type == PAGE_TYPE_BTREE_INTERNAL:
            node = _InternalNode.of(page)
            idx = bisect.bisect_right(node.keys, key)
            page = self._fetch(node.children[idx])
        leaf = _LeafNode.of(page)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.cell(idx, self.decode)
        return None

    def contains(self, key: bytes) -> bool:
        return self.get(key) is not None

    def root_leaf(self) -> Optional[_LeafNode]:
        """The root page's decoded node while the whole tree fits on
        it, None once it has split.  Borrowed: the page's cached node,
        so the same object for every reader of that page image."""
        page = self._fetch(self.root_id)
        if page.page_type == PAGE_TYPE_BTREE_INTERNAL:
            return None
        return _LeafNode.of(page)

    # -- insert ---------------------------------------------------------------

    def insert(self, key: bytes, value: bytes) -> bool:
        """Insert or replace; returns True if the key was new."""
        root = self._fetch(self.root_id)
        max_cell = self._max_cell(root)
        if len(key) + len(value) > max_cell:
            raise BTreeError(
                f"cell of {len(key) + len(value)} bytes exceeds max "
                f"{max_cell} for this page size"
            )
        inserted, split = self._insert(root, key, value)
        if split is not None:
            sep_key, right_id = split
            # Fixed-root split: move the root's current (left-half)
            # content into a fresh page and turn the root into a 1-key
            # internal.
            root_w = self.source.make_writable(root)
            left = self.source.allocate_page()
            left.data[:] = root_w.data
            left.node = root_w.node
            self.source.mark_dirty(left)
            _InternalNode([sep_key],
                          [left.page_id, right_id]).encode_into(root_w)
            self.source.mark_dirty(root_w)
        return inserted

    def _insert(self, page: Page, key: bytes,
                value: bytes) -> Tuple[bool, Optional[Tuple[bytes, int]]]:
        """Insert under ``page``; returns (was_new, optional split info).

        On split, ``page`` retains the left half and the returned
        ``(separator, right_page_id)`` must be added to the parent.
        """
        if page.page_type == PAGE_TYPE_BTREE_LEAF:
            old = _LeafNode.of(page)
            idx = bisect.bisect_left(old.keys, key)
            was_new = idx == len(old.keys) or old.keys[idx] != key
            leaf = old.copy()
            if was_new:
                old_len = 0
                leaf.keys.insert(idx, key)
                leaf.values.insert(idx, value)
            else:
                old_len = (_LEAF_CELL_OVERHEAD + len(key)
                           + len(old.values[idx]))
                leaf.values[idx] = value
            cell = _CELL_HDR.pack(len(key), len(value)) + key + value
            leaf.used += len(cell) - old_len
            if leaf.used > self._capacity(page):
                return was_new, self._split_leaf(page, leaf)
            writable = self.source.make_writable(page)
            leaf.splice_into(writable, old.cell_offset(idx), old_len, cell)
            self.source.mark_dirty(writable)
            return was_new, None

        node = _InternalNode.of(page)
        idx = bisect.bisect_right(node.keys, key)
        child = self._fetch(node.children[idx])
        was_new, split = self._insert(child, key, value)
        if split is None:
            return was_new, None
        sep_key, right_id = split
        node = node.copy()
        node.keys.insert(idx, sep_key)
        node.children.insert(idx + 1, right_id)
        if node.byte_size() <= self._capacity(page):
            writable = self.source.make_writable(page)
            node.encode_into(writable)
            self.source.mark_dirty(writable)
            return was_new, None
        return was_new, self._split_internal(page, node)

    def insert_run(self, cells: Iterable[Tuple[bytes, bytes]]) -> None:
        """Insert or replace every ``(key, value)`` of a run whose keys
        ascend: the loop of :meth:`insert` over the same cells — the
        same final page images, the same pages allocated in the same
        order — without its intermediate page writes.

        One descent finds a leaf and the separator above it; every next
        cell that sorts under that separator and fits is applied to one
        private copy of the node, and the page is written once.  A cell
        that does not fit goes through :meth:`insert`, which alone
        splits (and raises for an oversize cell, with the cells before
        it written), and the descent restarts from the root.  A key not
        greater than its predecessor raises :class:`BTreeError`.
        """
        run = iter(cells)
        cell = next(run, None)
        previous: Optional[bytes] = None
        while cell is not None:
            page = self._fetch(self.root_id)
            max_cell = self._max_cell(page)
            upper: Optional[bytes] = None  # the separator above the leaf
            while page.page_type == PAGE_TYPE_BTREE_INTERNAL:
                node = _InternalNode.of(page)
                idx = bisect.bisect_right(node.keys, cell[0])
                if idx < len(node.keys):
                    upper = node.keys[idx]
                page = self._fetch(node.children[idx])
            leaf = _LeafNode.of(page).copy()
            keys, values = leaf.keys, leaf.values
            capacity = self._capacity(page)
            at = 0
            wrote = False
            fits = ascends = True
            while cell is not None:
                key, value = cell
                if previous is not None and key <= previous:
                    ascends = False
                    break
                if upper is not None and key >= upper:
                    break
                at = bisect.bisect_left(keys, key, at)
                replaces = at < len(keys) and keys[at] == key
                if replaces:
                    grown = len(value) - len(values[at])
                else:
                    grown = _LEAF_CELL_OVERHEAD + len(key) + len(value)
                if leaf.used + grown > capacity \
                        or len(key) + len(value) > max_cell:
                    fits = False
                    break
                if replaces:
                    values[at] = value
                else:
                    keys.insert(at, key)
                    values.insert(at, value)
                leaf.used += grown
                wrote = True
                previous = key
                cell = next(run, None)
            if wrote:
                writable = self.source.make_writable(page)
                leaf.encode_into(writable)
                self.source.mark_dirty(writable)
            if not ascends:
                raise BTreeError(
                    "insert_run keys must ascend: "
                    f"{cell[0]!r} after {previous!r}")
            if not fits:
                self.insert(*cell)
                previous = cell[0]
                cell = next(run, None)

    def _split_leaf(self, page: Page,
                    leaf: _LeafNode) -> Tuple[bytes, int]:
        half = self._split_point(
            [_LEAF_CELL_OVERHEAD + len(k) + len(v)
             for k, v in zip(leaf.keys, leaf.values)]
        )
        right = _LeafNode(leaf.keys[half:], leaf.values[half:])
        left = _LeafNode(leaf.keys[:half], leaf.values[:half])
        right_page = self.source.allocate_page()
        right.encode_into(right_page)
        self.source.mark_dirty(right_page)
        writable = self.source.make_writable(page)
        left.encode_into(writable)
        self.source.mark_dirty(writable)
        return right.keys[0], right_page.page_id

    def _split_internal(self, page: Page,
                        node: _InternalNode) -> Tuple[bytes, int]:
        half = max(1, len(node.keys) // 2)
        sep = node.keys[half]
        right = _InternalNode(node.keys[half + 1:], node.children[half + 1:])
        left = _InternalNode(node.keys[:half], node.children[:half + 1])
        right_page = self.source.allocate_page()
        right.encode_into(right_page)
        self.source.mark_dirty(right_page)
        writable = self.source.make_writable(page)
        left.encode_into(writable)
        self.source.mark_dirty(writable)
        return sep, right_page.page_id

    @staticmethod
    def _split_point(cell_sizes: List[int]) -> int:
        """Index splitting cells into byte-balanced halves (>=1 each side)."""
        total = sum(cell_sizes)
        acc = 0
        for i, size in enumerate(cell_sizes):
            acc += size
            if acc * 2 >= total:
                return min(max(1, i + 1), len(cell_sizes) - 1)
        return max(1, len(cell_sizes) - 1)

    # -- delete ---------------------------------------------------------------

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns True if it was present."""
        root = self._fetch(self.root_id)
        removed = self._delete(root, key)
        # Collapse a single-child internal root to keep height honest.
        while root.page_type == PAGE_TYPE_BTREE_INTERNAL:
            node = _InternalNode.of(root)
            if node.keys:
                break
            child_id = node.children[0]
            child = self._fetch(child_id)
            root_w = self.source.make_writable(root)
            root_w.data[:] = child.data
            root_w.node = child.node
            self.source.mark_dirty(root_w)
            self.source.free_page(child_id)
            root = root_w
        return removed

    def _delete(self, page: Page, key: bytes) -> bool:
        if page.page_type == PAGE_TYPE_BTREE_LEAF:
            old = _LeafNode.of(page)
            idx = bisect.bisect_left(old.keys, key)
            if idx >= len(old.keys) or old.keys[idx] != key:
                return False
            old_len = _LEAF_CELL_OVERHEAD + len(key) + len(old.values[idx])
            leaf = old.copy()
            del leaf.keys[idx]
            del leaf.values[idx]
            leaf.used -= old_len
            writable = self.source.make_writable(page)
            leaf.splice_into(writable, old.cell_offset(idx), old_len, b"")
            self.source.mark_dirty(writable)
            return True

        node = _InternalNode.of(page)
        idx = bisect.bisect_right(node.keys, key)
        child = self._fetch(node.children[idx])
        removed = self._delete(child, key)
        child_empty = self._is_empty(child)
        child_id = child.page_id
        if removed and child_empty and len(node.children) > 1:
            # Unlink and free the empty child (lazy rebalancing).
            node = node.copy()
            del node.children[idx]
            if node.keys:
                # Child i is bounded by separators k[i-1] and k[i]; drop the
                # nearer one (k[i-1] when it exists, else k[0]).
                del node.keys[max(idx - 1, 0)]
            writable = self.source.make_writable(page)
            node.encode_into(writable)
            self.source.mark_dirty(writable)
            self.source.free_page(child_id)
        return removed

    @staticmethod
    def _is_empty(page: Page) -> bool:
        if page.page_type == PAGE_TYPE_BTREE_LEAF:
            return len(_LeafNode.of(page).keys) == 0
        return False

    # -- iteration ---------------------------------------------------------------

    def scan_all(self) -> Iterator[Tuple[bytes, object]]:
        """Yield every (key, cell) in key order."""
        return self.scan_from(b"")

    def scan_from(self, start_key: bytes) -> Iterator[Tuple[bytes, object]]:
        """Yield (key, cell) pairs with key >= start_key, in order (a
        cell is the raw value, or its entry when the tree has a decoder).

        Entries come from a leaf's memo when a full scan has filled it
        and are otherwise decoded one by one as the caller consumes
        them, storing nothing: a probe pays for the cells it returns.
        """
        for leaf, lo in self._leaves_from(start_key):
            yield from leaf.cells(self.decode, lo)

    def scan_leaves(self, leaf_filter: Optional[LeafFilter] = None,
                    width: Optional[int] = None) -> Iterator[list]:
        """Full scan, a leaf at a time: yield each leaf's cells (raw
        values, or entries) as one list, in key order — or, with a
        ``leaf_filter`` (which needs a decoder), what it keeps of each
        leaf's entries.  The lists are borrowed from the node cache — do
        not mutate them.

        With a ``width`` (which needs a decoder) an entry may hold only
        its record's first ``width`` values: it is decoded that far, or
        borrowed from a memo filled at that width or wider.

        This is the one reader that *fills* the memos: a leaf decoded
        (or filtered) here costs no per-row work in any later scan,
        probe or snapshot that finds the same page object in a cache
        (and filters it with the same filter).
        """
        decode = self.decode
        for leaf, _ in self._leaves_from(b""):
            if leaf_filter is not None:
                yield leaf.filtered(decode, leaf_filter, width)
            elif decode is None:
                yield leaf.values
            else:
                yield leaf.filled(decode, width)

    def _leaves_from(self, start_key: bytes,
                     ) -> Iterator[Tuple[_LeafNode, int]]:
        """Yield (borrowed leaf, first position) for every leaf from the
        one that would hold ``start_key`` rightwards; the position is 0
        on all but the first."""
        # Explicit descent stack: (internal node, next child index).
        stack: List[Tuple[_InternalNode, int]] = []
        page = self._fetch(self.root_id)
        while page.page_type == PAGE_TYPE_BTREE_INTERNAL:
            node = _InternalNode.of(page)
            idx = bisect.bisect_right(node.keys, start_key)
            stack.append((node, idx + 1))
            page = self._fetch(node.children[idx])
        leaf = _LeafNode.of(page)
        yield leaf, bisect.bisect_left(leaf.keys, start_key)
        # Advance to the next leaf via the stack.
        while stack:
            node, next_idx = stack.pop()
            if next_idx >= len(node.children):
                continue
            stack.append((node, next_idx + 1))
            page = self._fetch(node.children[next_idx])
            while page.page_type == PAGE_TYPE_BTREE_INTERNAL:
                inner = _InternalNode.of(page)
                stack.append((inner, 1))
                page = self._fetch(inner.children[0])
            yield _LeafNode.of(page), 0

    def scan_prefix(self, prefix: bytes) -> Iterator[Tuple[bytes, object]]:
        """Yield entries whose key starts with ``prefix``."""
        for leaf, lo in self._leaves_from(prefix):
            keys = leaf.keys
            hi = lo
            while hi < len(keys) and keys[hi].startswith(prefix):
                hi += 1
            yield from leaf.cells(self.decode, lo, hi)
            if hi < len(keys):
                return

    def scan_range(self, lo: Optional[bytes],
                   hi: Optional[bytes],
                   hi_inclusive: bool = False,
                   lo_inclusive: bool = True,
                   ) -> Iterator[Tuple[bytes, object]]:
        """Yield entries with lo <= key < hi (``<= hi`` / ``lo <`` per
        the flags).

        Composite index keys extend a bound with a rowid suffix, so a
        key that *starts with* an inclusive ``hi`` still matches and one
        that starts with an exclusive ``lo`` does not.  The bounds are
        found by position, so only the cells yielded are ever decoded.
        """
        skipping = lo is not None and not lo_inclusive
        for leaf, first in self._leaves_from(lo if lo is not None else b""):
            keys = leaf.keys
            if skipping:
                while first < len(keys) and keys[first].startswith(lo):
                    first += 1
                skipping = first == len(keys)
            if hi is None:
                end = len(keys)
            elif hi_inclusive:
                end = bisect.bisect_right(keys, hi, first)
                while end < len(keys) and keys[end].startswith(hi):
                    end += 1
            else:
                end = bisect.bisect_left(keys, hi, first)
            yield from leaf.cells(self.decode, first, end)
            if end < len(keys):
                return

    def last_key(self) -> Optional[bytes]:
        """The largest key in the tree, or None when empty.

        Descends the rightmost spine; used for rowid assignment (new
        rowid = max + 1, as in SQLite).
        """
        page = self._fetch(self.root_id)
        while page.page_type == PAGE_TYPE_BTREE_INTERNAL:
            page = self._fetch(_InternalNode.of(page).children[-1])
        leaf = _LeafNode.of(page)
        if not leaf.keys:
            return None
        return leaf.keys[-1]

    # -- bulk / maintenance ----------------------------------------------------------

    def count(self) -> int:
        return sum(len(leaf.keys) for leaf, _ in self._leaves_from(b""))

    def clear(self) -> None:
        """Remove every entry, freeing all pages except the root."""
        self._free_subtree(self.root_id, keep=True)
        writable = self.source.make_writable(self._fetch(self.root_id))
        _LeafNode([], []).encode_into(writable)
        self.source.mark_dirty(writable)

    def drop(self) -> None:
        """Free the whole tree including the root."""
        self._free_subtree(self.root_id, keep=False)

    def _children(self, page_id: int) -> List[int]:
        """Child page ids of an internal page (borrowed); none for a leaf."""
        page = self._fetch(page_id)
        if page.page_type == PAGE_TYPE_BTREE_INTERNAL:
            return _InternalNode.of(page).children
        return []

    def _free_subtree(self, page_id: int, keep: bool) -> None:
        for child in self._children(page_id):
            self._free_subtree(child, keep=False)
        if not keep:
            self.source.free_page(page_id)

    # -- introspection (used by tests and the bench harness) --------------------------

    def height(self) -> int:
        height = 1
        page = self._fetch(self.root_id)
        while page.page_type == PAGE_TYPE_BTREE_INTERNAL:
            page = self._fetch(_InternalNode.of(page).children[0])
            height += 1
        return height

    def page_ids(self) -> List[int]:
        """All page ids used by this tree (root first, DFS order)."""
        out: List[int] = []
        self._collect_pages(self.root_id, out)
        return out

    def _collect_pages(self, page_id: int, out: List[int]) -> None:
        out.append(page_id)
        for child in self._children(page_id):
            self._collect_pages(child, out)

    def check_invariants(self) -> None:
        """Raise BTreeError if structural invariants are violated."""
        self._check(self.root_id, None, None, self._leaf_depth())

    def _leaf_depth(self) -> int:
        return self.height()

    def _check(self, page_id: int, lo: Optional[bytes],
               hi: Optional[bytes], depth: int) -> None:
        page = self._fetch(page_id)
        if page.page_type == PAGE_TYPE_BTREE_LEAF:
            if depth != 1:
                raise BTreeError("leaves at unequal depth")
            leaf = _LeafNode.of(page)
            for i, key in enumerate(leaf.keys):
                if i and leaf.keys[i - 1] >= key:
                    raise BTreeError("leaf keys out of order")
                if lo is not None and key < lo:
                    raise BTreeError("leaf key below subtree bound")
                if hi is not None and key >= hi:
                    raise BTreeError("leaf key above subtree bound")
            return
        node = _InternalNode.of(page)
        for i, key in enumerate(node.keys):
            if i and node.keys[i - 1] >= key:
                raise BTreeError("internal keys out of order")
        bounds = [lo] + list(node.keys) + [hi]
        for i, child in enumerate(node.children):
            self._check(child, bounds[i], bounds[i + 1], depth - 1)
