"""Spliced leaf pages equal re-encoded leaf pages, byte for byte.

A leaf write that does not split edits only the bytes of the cell it
changes (``_LeafNode.splice_into``) instead of packing every cell again
(``_LeafNode.encode_into``).  Everything downstream of a page — WAL,
Pagelog, Maplog, the database file, every counter — is indifferent to
how an after-image was produced, *provided the two produce the same
bytes*.  These tests hold the splice to that:

(a) a Hypothesis state machine on 256- and 512-byte pages (so splits,
    root splits, root collapse and exact fits are frequent) compares,
    after every step, every leaf page with ``encode_into`` of its node on
    a blank page with the same header, checks the zero tail and the
    ``used`` count, re-parses the bytes without the node cache, and
    compares the tree with a dict model;
(b) the fit check is exact: a cell that fills the leaf to ``capacity``
    stays, one byte more splits — for an insert and for a growing
    replacement;
(c) the node cache contract survives (DESIGN.md §3a): a reader holding
    the borrowed node and a scan opened before a write keep the pre-write
    cells, and the published node carries no entry memo;
(d) through a transaction's page source the spliced bytes are the
    overlay's: the buffer-pool page does not change before commit;
(e) ``BTree.insert_run`` — one page write per leaf for an ascending run
    of cells — is the loop of ``insert`` over the same cells: the same
    page images, the same pages allocated, the same error for an
    oversize cell with the same cells written before it, on a memory
    source and inside a transaction, which rolled back leaves the tree
    as it was; a run that does not ascend raises.
"""

from __future__ import annotations

import random
import struct
from typing import Dict, List

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import BTreeError
from repro.sql.executor import EphemeralPageSource
from repro.storage.btree import BTree, _LeafNode
from repro.storage.disk import SimulatedDisk
from repro.storage.engine import StorageEngine
from repro.storage.page import HEADER_SIZE, PAGE_TYPE_BTREE_LEAF, Page

#: page header + u16 cell count, then u16 klen + u32 vlen per cell
LEAF_FIXED = HEADER_SIZE + 2
CELL_OVERHEAD = 6


def make_key(n: int) -> bytes:
    """Orders as ``n`` does (the first two bytes decide); the padding
    makes cell sizes uneven."""
    return struct.pack(">H", n) + b"k" * (n % 5)


def leaf_pages(tree: BTree) -> List[Page]:
    pages = [tree.source.fetch(pid) for pid in tree.page_ids()]
    return [p for p in pages if p.page_type == PAGE_TYPE_BTREE_LEAF]


def assert_leaf_is_its_reference_encoding(page: Page) -> None:
    """The differential: ``page`` against ``encode_into`` on a blank page
    with the same header, and against its own bytes parsed afresh."""
    node = _LeafNode.of(page)
    size = len(page.data)

    reference = Page(page.page_id, page_size=size)
    reference.data[:HEADER_SIZE] = page.data[:HEADER_SIZE]
    _LeafNode(list(node.keys), list(node.values)).encode_into(reference)
    assert bytes(page.data) == bytes(reference.data)

    used = LEAF_FIXED + sum(
        CELL_OVERHEAD + len(k) + len(v)
        for k, v in zip(node.keys, node.values)
    )
    assert node.used == used <= size
    assert not any(page.data[used:]), "bytes past the used region"

    fresh = Page(page.page_id, bytearray(page.data), size)
    assert fresh.node is None
    parsed = _LeafNode.of(fresh)
    assert (parsed.keys, parsed.values, parsed.used) \
        == (node.keys, node.values, node.used)


# ---------------------------------------------------------------------------
# (a) the state machine
# ---------------------------------------------------------------------------

KEY_SPACE = (1000, 60000)


class SpliceMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.model: Dict[bytes, bytes] = {}
        self.numbers: List[int] = []  # sorted key numbers in the tree

    @initialize(page_size=st.sampled_from((256, 512)))
    def create(self, page_size: int) -> None:
        self.tree = BTree.create(EphemeralPageSource(page_size))
        # The largest value a cell may carry beside the longest key.
        self.max_value = (page_size - LEAF_FIXED) // 2 - CELL_OVERHEAD - 6

    # -- writes ---------------------------------------------------------

    def _insert_new(self, number: int, value: bytes) -> None:
        key = make_key(number)
        assert key not in self.model
        assert self.tree.insert(key, value) is True
        self.model[key] = value
        self.numbers.append(number)
        self.numbers.sort()

    def _value(self, data, length: int) -> bytes:
        length = max(0, min(length, self.max_value))
        fill = data.draw(st.binary(min_size=1, max_size=4), label="fill")
        return (fill * (length // len(fill) + 1))[:length]

    @rule(data=st.data(), length=st.integers(0, 120))
    def insert_at_front(self, data, length):
        number = self.numbers[0] - 1 if self.numbers else KEY_SPACE[1] // 2
        if number >= KEY_SPACE[0]:
            self._insert_new(number, self._value(data, length))

    @rule(data=st.data(), length=st.integers(0, 120))
    def insert_at_end(self, data, length):
        number = self.numbers[-1] + 1 if self.numbers else KEY_SPACE[1] // 2
        if number <= KEY_SPACE[1]:
            self._insert_new(number, self._value(data, length))

    @rule(data=st.data(), number=st.integers(*KEY_SPACE),
          length=st.integers(0, 120))
    def insert_in_the_middle(self, data, number, length):
        if make_key(number) not in self.model:
            self._insert_new(number, self._value(data, length))

    @precondition(lambda self: self.numbers)
    @rule(data=st.data(), pick=st.integers(0, 10**6),
          change=st.sampled_from((-40, -7, -1, 0, 0, 1, 7, 40)))
    def replace(self, data, pick, change):
        """Shorter, equal-length and longer values under an existing key."""
        key = make_key(self.numbers[pick % len(self.numbers)])
        value = self._value(data, len(self.model[key]) + change)
        assert self.tree.insert(key, value) is False
        self.model[key] = value

    @precondition(lambda self: self.numbers)
    @rule(pick=st.integers(0, 10**6))
    def delete_present(self, pick):
        number = self.numbers.pop(pick % len(self.numbers))
        assert self.tree.delete(make_key(number)) is True
        del self.model[make_key(number)]

    @rule(number=st.integers(*KEY_SPACE))
    def delete_absent(self, number):
        if make_key(number) not in self.model:
            before = [bytes(p.data) for p in leaf_pages(self.tree)]
            assert self.tree.delete(make_key(number)) is False
            assert [bytes(p.data) for p in leaf_pages(self.tree)] == before

    # -- after every step -----------------------------------------------

    @invariant()
    def every_leaf_page_is_its_reference_encoding(self):
        for page in leaf_pages(self.tree):
            assert_leaf_is_its_reference_encoding(page)

    @invariant()
    def the_tree_is_the_model(self):
        self.tree.check_invariants()
        assert list(self.tree.scan_all()) == sorted(self.model.items())


SpliceMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=60, deadline=None,
    suppress_health_check=list(HealthCheck),
)
TestSpliceMachine = SpliceMachine.TestCase


def test_a_long_seeded_run_splits_collapses_and_stays_byte_identical():
    """The machine's checks over one long deterministic history, so a
    tree several levels deep is covered whatever Hypothesis explores."""
    rng = random.Random(20180326)
    tree = BTree.create(EphemeralPageSource(256))
    model: Dict[bytes, bytes] = {}
    heights = set()
    for step in range(4000):
        number = rng.randrange(1000, 1400)
        key = make_key(number)
        roll = rng.random()
        if roll < 0.55 - (0.3 if step > 3000 else 0.0):
            value = bytes([rng.randrange(256)]) * rng.randrange(0, 100)
            assert tree.insert(key, value) is (key not in model)
            model[key] = value
        else:
            assert tree.delete(key) is (key in model)
            model.pop(key, None)
        if step % 25 == 0 or step > 3900:
            for page in leaf_pages(tree):
                assert_leaf_is_its_reference_encoding(page)
            tree.check_invariants()
            heights.add(tree.height())
    for page in leaf_pages(tree):
        assert_leaf_is_its_reference_encoding(page)
    assert list(tree.scan_all()) == sorted(model.items())
    assert max(heights) >= 3


# ---------------------------------------------------------------------------
# (b) the fit check is exact
# ---------------------------------------------------------------------------

PAGE = 256


def _three_cell_leaf() -> BTree:
    """One root leaf of three 58-byte cells: 18 + 174 = 192 bytes used,
    64 free."""
    tree = BTree.create(EphemeralPageSource(PAGE))
    for number in (1, 2, 4):
        tree.insert(b"%02d" % number, b"v" * 50)
    (page,) = leaf_pages(tree)
    assert _LeafNode.of(page).used == 192
    return tree


@pytest.mark.parametrize("where", ("front", "middle", "end"))
def test_insert_that_fills_the_leaf_exactly_stays(where):
    tree = _three_cell_leaf()
    key = {"front": b"00", "middle": b"03", "end": b"09"}[where]
    tree.insert(key, b"x" * (64 - CELL_OVERHEAD - 2))
    (page,) = leaf_pages(tree)  # still one page: no split
    assert _LeafNode.of(page).used == PAGE
    assert page.data[-1] == ord("v" if where != "end" else "x")
    assert_leaf_is_its_reference_encoding(page)
    assert tree.count() == 4


@pytest.mark.parametrize("where", ("front", "middle", "end"))
def test_insert_one_byte_past_the_leaf_splits(where):
    tree = _three_cell_leaf()
    key = {"front": b"00", "middle": b"03", "end": b"09"}[where]
    tree.insert(key, b"x" * (64 - CELL_OVERHEAD - 2 + 1))
    assert tree.height() == 2
    assert len(leaf_pages(tree)) == 2
    for page in leaf_pages(tree):
        assert_leaf_is_its_reference_encoding(page)
    tree.check_invariants()
    assert tree.count() == 4


def _four_cell_leaf() -> BTree:
    """As above plus a 44-byte cell: 236 used, 20 free."""
    tree = _three_cell_leaf()
    tree.insert(b"03", b"w" * 36)
    (page,) = leaf_pages(tree)
    assert _LeafNode.of(page).used == 236
    return tree


def test_replacement_that_grows_the_leaf_to_capacity_stays():
    tree = _four_cell_leaf()
    assert tree.insert(b"03", b"W" * (36 + 20)) is False
    (page,) = leaf_pages(tree)
    assert _LeafNode.of(page).used == PAGE
    assert_leaf_is_its_reference_encoding(page)
    assert tree.get(b"03") == b"W" * 56
    assert tree.get(b"04") == b"v" * 50  # the cell behind moved intact


def test_replacement_that_grows_one_byte_past_capacity_splits():
    tree = _four_cell_leaf()
    assert tree.insert(b"03", b"W" * (36 + 21)) is False
    assert tree.height() == 2
    for page in leaf_pages(tree):
        assert_leaf_is_its_reference_encoding(page)
    tree.check_invariants()
    assert tree.get(b"03") == b"W" * 57
    assert tree.count() == 4


def test_shrinking_writes_zero_what_they_vacate():
    tree = _four_cell_leaf()
    tree.insert(b"02", b"s")  # 49 bytes shorter
    (page,) = leaf_pages(tree)
    assert _LeafNode.of(page).used == 236 - 49
    assert not any(page.data[236 - 49:])
    tree.delete(b"01")
    assert not any(page.data[236 - 49 - 58:])
    tree.delete(b"04")  # the last cell: nothing behind it to move
    assert_leaf_is_its_reference_encoding(page)
    for key in (b"02", b"03"):
        tree.delete(key)
    assert bytes(page.data[HEADER_SIZE:]) == bytes(PAGE - HEADER_SIZE)


# ---------------------------------------------------------------------------
# (c) the node cache contract
# ---------------------------------------------------------------------------

def _pair(key: bytes, value: bytes):
    return key, value


@pytest.mark.parametrize("write", ("insert", "replace", "delete"))
def test_borrowed_node_and_open_scan_keep_the_pre_write_cells(write):
    source = EphemeralPageSource(512)
    tree = BTree.create(source)
    for number in range(5):
        tree.insert(b"k%d" % number, b"value-%d" % number)
    reader = BTree(source, tree.root_id, decode=_pair)
    list(reader.scan_leaves())  # a full scan fills the entry memo
    page = source.fetch(tree.root_id)
    borrowed = page.node
    assert borrowed.entries is not None
    before = (list(borrowed.keys), list(borrowed.values))
    cells_before = list(reader.scan_all())
    scan = reader.scan_from(b"k1")
    assert next(scan) == (b"k1", (b"k1", b"value-1"))  # the scan holds the leaf

    if write == "insert":
        tree.insert(b"k25", b"new")
    elif write == "replace":
        tree.insert(b"k3", b"a longer value than before")
    else:
        tree.delete(b"k3")

    # EphemeralPageSource hands out the page itself, so its bytes moved …
    published = page.node
    assert published is not borrowed
    assert published.entries is None  # the memo does not follow a write
    assert_leaf_is_its_reference_encoding(page)
    # … and whoever borrowed the node before the write still has it whole.
    assert (borrowed.keys, borrowed.values) == before
    assert borrowed.entries is not None
    assert list(scan) == cells_before[2:]
    # A scan opened now sees the write, decoding on the fly.
    assert list(reader.scan_all()) == [
        (k, (k, v)) for k, v in tree.scan_all()
    ] != cells_before


# ---------------------------------------------------------------------------
# (d) a transaction splices its overlay page, never the pool's
# ---------------------------------------------------------------------------

def test_buffer_pool_pages_do_not_change_before_commit():
    engine = StorageEngine(SimulatedDisk(1024), page_size=1024)
    txn = engine.begin()
    tree = BTree.create(engine.page_source(txn))
    for number in range(120):
        tree.insert(make_key(2000 + 2 * number), b"committed-%03d" % number)
    root = tree.root_id
    engine.commit(txn)

    ctx = engine.begin_read()
    try:
        committed = BTree(engine.read_source(ctx), root)
        assert committed.height() == 2
        cells = list(committed.scan_all())  # every page's node is cached
        shared = [committed.source.fetch(pid) for pid in committed.page_ids()]
        images = [bytes(page.data) for page in shared]
        nodes = [page.node for page in shared]
        assert None not in nodes

        txn = engine.begin()
        writer = BTree(engine.page_source(txn), root)
        for number in range(120):
            key = make_key(2000 + 2 * number)
            if number % 3 == 0:
                assert writer.insert(make_key(2001 + 2 * number), b"n") is True
            elif number % 3 == 1:
                assert writer.insert(key, b"replaced " * (number % 4)) is False
            else:
                assert writer.delete(key) is True
            # Not one byte of a pool page, nor its cached node, moved.
            assert [bytes(page.data) for page in shared] == images
            assert [page.node for page in shared] == nodes
        for page in leaf_pages(writer):
            assert_leaf_is_its_reference_encoding(page)
        assert list(committed.scan_all()) == cells
        assert list(writer.scan_all()) != cells
        after = list(writer.scan_all())
        engine.commit(txn)
    finally:
        ctx.close()

    ctx = engine.begin_read()
    try:
        reread = BTree(engine.read_source(ctx), root)
        assert list(reread.scan_all()) == after
        for page in leaf_pages(reread):
            assert_leaf_is_its_reference_encoding(page)
    finally:
        ctx.close()


# ---------------------------------------------------------------------------
# (e) insert_run is the loop of insert
# ---------------------------------------------------------------------------

def _cell_value(seed: int, length: int) -> bytes:
    return bytes([seed % 251 + 1]) * length


@st.composite
def trees_and_runs(draw):
    """(page size, cells that build a tree, an ascending run over it):
    the run replaces stored keys with shorter, equal and longer values,
    inserts between them and appends past the last one — enough, on
    these pages, to split at every level — and may carry one cell too
    large for any page."""
    page_size = draw(st.sampled_from((256, 512, 1024)))
    largest = (page_size - LEAF_FIXED) // 2 - CELL_OVERHEAD - 6
    lengths = st.integers(0, min(largest, 150))
    built = draw(st.lists(st.tuples(st.integers(1000, 1400), lengths),
                          max_size=160, unique_by=lambda c: c[0]))
    run = draw(st.lists(st.tuples(st.integers(1000, 1500), lengths),
                        max_size=90, unique_by=lambda c: c[0]))
    run.sort()
    if run and draw(st.booleans()):
        at = draw(st.integers(0, len(run) - 1))
        run[at] = (run[at][0], largest + 1)
    cells = [[(make_key(n), _cell_value(n + k, length)) for n, length in part]
             for k, part in enumerate((built, run))]
    return page_size, cells[0], cells[1]


def _apply(tree: BTree, run, as_run: bool):
    """Write ``run`` one way or the other; the error's text, if any."""
    try:
        if as_run:
            tree.insert_run(run)
        else:
            for key, value in run:
                tree.insert(key, value)
    except BTreeError as exc:
        return str(exc)
    return None


RUN_SETTINGS = settings(max_examples=120, deadline=None,
                        suppress_health_check=list(HealthCheck))


@RUN_SETTINGS
@given(case=trees_and_runs())
def test_insert_run_is_the_loop_of_insert_on_a_memory_source(case):
    page_size, built, run = case
    outcomes = []
    for as_run in (False, True):
        source = EphemeralPageSource(page_size)
        tree = BTree.create(source)
        for key, value in built:
            tree.insert(key, value)
        error = _apply(tree, run, as_run)
        tree.check_invariants()
        for page in leaf_pages(tree):
            assert_leaf_is_its_reference_encoding(page)
        outcomes.append((
            error, source._next_id,
            {pid: bytes(page.data) for pid, page in source._pages.items()},
        ))
    looped, as_one_run = outcomes
    assert as_one_run == looped
    if looped[0] is None:
        model = dict(built)
        model.update(run)
        assert list(tree.scan_all()) == sorted(model.items())


@RUN_SETTINGS
@given(case=trees_and_runs())
def test_insert_run_is_the_loop_of_insert_inside_a_transaction(case):
    page_size, built, run = case
    page_size = max(page_size, 512)  # the engine's own pages need room
    outcomes = []
    for as_run in (False, True):
        engine = StorageEngine(SimulatedDisk(page_size), page_size=page_size)
        txn = engine.begin()
        tree = BTree.create(engine.page_source(txn))
        for key, value in built:
            tree.insert(key, value)
        root = tree.root_id
        engine.commit(txn)

        txn = engine.begin()
        tree = BTree(engine.page_source(txn), root)
        error = _apply(tree, run, as_run)
        tree.check_invariants()
        outcomes.append((
            error, sorted(txn.dirty), list(txn.allocated),
            {pid: bytes(page.data) for pid, page in txn.overlay.items()},
        ))
    looped, as_one_run = outcomes
    assert as_one_run == looped

    # Rolled back, the run leaves nothing: the tree is its pre-state.
    engine.rollback(txn)
    with engine.begin_read() as ctx:
        committed = BTree(engine.read_source(ctx), root)
        committed.check_invariants()
        assert list(committed.scan_all()) == sorted(built)


@pytest.mark.parametrize("run", (
    [(b"b", b"1"), (b"a", b"2")],
    [(b"a", b"1"), (b"a", b"2")],
), ids=("descending", "repeated"))
def test_insert_run_refuses_a_run_that_does_not_ascend(run):
    tree = BTree.create(EphemeralPageSource(PAGE))
    tree.insert(b"c", b"stored")
    with pytest.raises(BTreeError, match="must ascend"):
        tree.insert_run(run)
    # The cell before the offender is written, as the loop would have.
    tree.check_invariants()
    assert list(tree.scan_all()) == [run[0], (b"c", b"stored")]
