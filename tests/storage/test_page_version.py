"""One object per page version.

A commit publishes the transaction's own pages — the objects its
B-tree writes encoded into, nodes and all — so the statement after a
commit reads the node the writer already had instead of parsing the
bytes again.  The page a commit replaces is kept as it is for readers
that began before the commit, so such a reader fetches one object, and
parses its node once, however often it reads the page.
"""

from __future__ import annotations

from repro.sql.database import Database
from repro.storage.btree import BTree, _LeafNode
from repro.storage.disk import SimulatedDisk
from repro.storage.engine import StorageEngine
from repro.storage.record import encode_key, encode_record


def _published(monkeypatch):
    """page object -> last node a writer published on it"""
    published = {}
    for name in ("encode_into", "splice_into"):
        real = getattr(_LeafNode, name)

        def publish(node, page, *args, _real=real):
            _real(node, page, *args)
            published[page] = node

        monkeypatch.setattr(_LeafNode, name, publish)
    return published


def _parses(monkeypatch, pages):
    """page ids whose node ``_LeafNode.of`` served without a writer
    having published it, among ``pages`` (page object -> node)"""
    by_id = {page.page_id: node for page, node in pages.items()}
    missed = []
    real = _LeafNode.of

    def of(page):
        node = real(page)
        if page.page_id in by_id and node is not by_id[page.page_id]:
            missed.append(page.page_id)
        return node

    monkeypatch.setattr(_LeafNode, "of", of)
    return missed


def test_a_commit_hands_the_writers_page_and_node_to_the_pool(monkeypatch):
    db = Database()
    db.execute("CREATE TABLE t (k INTEGER, v TEXT)")
    published = _published(monkeypatch)
    db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')")
    monkeypatch.undo()
    with db.reading() as ctx:
        root = ctx.open_table("t").info.root_id

    written = {page: node for page, node in published.items()
               if page.page_id == root}
    assert len(written) == 1, "the INSERT wrote the table's one leaf"
    (page, node), = written.items()
    assert db.engine.pager.pool.fetch(root) is page

    missed = _parses(monkeypatch, written)
    rows = db.execute("SELECT k, v FROM t ORDER BY k").rows
    monkeypatch.undo()
    assert [tuple(row) for row in rows] == [(1, "one"), (2, "two")]
    assert missed == []
    assert page.node is node


def test_a_reader_behind_a_commit_fetches_one_retained_object(monkeypatch):
    engine = StorageEngine(SimulatedDisk(512), page_size=512)
    txn = engine.begin()
    tree = BTree.create(engine.page_source(txn))
    tree.insert(encode_key((1,)), encode_record(("old",)))
    engine.commit(txn)
    root = tree.root_id

    with engine.begin_read() as ctx:
        source = engine.read_source(ctx)
        before = source.fetch(root)
        txn = engine.begin()
        BTree(engine.page_source(txn), root).insert(
            encode_key((1,)), encode_record(("new",)))
        engine.commit(txn)
        assert engine.pager.pool.fetch(root) is not before
        before.node = None          # cold: the reader parses it itself

        parsed = []
        real = _LeafNode.__init__

        def counting(node, *args):
            parsed.append(node)
            real(node, *args)

        monkeypatch.setattr(_LeafNode, "__init__", counting)
        first = source.fetch(root)
        second = source.fetch(root)
        nodes = [_LeafNode.of(first), _LeafNode.of(second)]
        monkeypatch.undo()

        assert first is second is before
        assert nodes[0] is nodes[1]
        assert len(parsed) == 1
        assert BTree(source, root).get(encode_key((1,))) \
            == encode_record(("old",))
