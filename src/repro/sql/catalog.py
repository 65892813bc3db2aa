"""The system catalog.

Tables and indexes are described by rows in a dedicated catalog B+tree
whose root page id is pinned in the pager meta.  Because the catalog
lives in ordinary pages, it is captured by Retro snapshots like any other
data: an ``AS OF`` query resolves schema *as of the snapshot*, so indexes
created later are invisible and dropped tables are still there — exactly
the behaviour the paper relies on (a snapshot "includes the state of the
entire database (e.g., tables, indexes, system catalogs)").

Catalog rows (record-codec encoded):

* key ``("T", lowercase_name)`` ->
  ``(name, root_id, "col1,col2", "TYPE1,TYPE2", "pkcol1,pkcol2")``
* key ``("I", lowercase_name)`` ->
  ``(name, table_name, root_id, unique_flag, "col1,col2")``
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import (Iterable, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

from repro.errors import CatalogError
from repro.storage.btree import BTree
from repro.storage.record import decode_record, encode_key, encode_record

_SEP = "\x1f"

_TABLE_KEYS = encode_key(("T",))


class Column(NamedTuple):
    """One column: its name and declared type (a ``(name, type)``
    pair)."""

    name: str
    type_name: str


def check_column_names(names: Iterable[str]) -> None:
    """Refuse a table whose columns repeat a name, compared without
    case, as SQLite does."""
    seen = set()
    for name in names:
        if name.lower() in seen:
            raise CatalogError(f"duplicate column name: {name}")
        seen.add(name.lower())


def primary_key_storage(table: str, columns: Iterable[Tuple[str, str]],
                        primary_key: Sequence[str],
                        ) -> Tuple[Optional[str], Optional[str]]:
    """How a table stores its primary key: ``(rowid alias, index name)``.

    The one place the rule lives.  A key of one column declared exactly
    ``INTEGER`` is the rowid, as in SQLite ("ROWIDs and the INTEGER
    PRIMARY KEY"): the table tree is keyed by that column's value, and
    the answer is ``(column, None)``.  Any other key — composite, or on
    a column of another declared type — is a unique index beside the
    table: ``(None, "__pk_<table>")``.  No key: ``(None, None)``.
    ``columns`` are ``(name, declared type)`` pairs.
    """
    if not primary_key:
        return None, None
    if len(primary_key) == 1:
        (key,) = primary_key
        for name, type_name in columns:
            if name.lower() == key.lower():
                if type_name.upper() == "INTEGER":
                    return name, None
                break
    return None, f"__pk_{table.lower()}"


@dataclass(frozen=True)
class TableInfo:
    """One table's catalog entry.  Frozen: a lookup borrows the entry
    its catalog page carries, so every reader of that page — any
    snapshot, session or thread — sees the same object."""

    name: str
    root_id: int
    columns: List[Column]
    primary_key: List[str] = field(default_factory=list)
    #: True when the table lives in the auxiliary (non-snapshotable) DB.
    temporary: bool = False

    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def column_index(self, name: str) -> int:
        lowered = name.lower()
        for i, column in enumerate(self.columns):
            if column.name.lower() == lowered:
                return i
        raise CatalogError(f"table {self.name} has no column {name}")

    def has_column(self, name: str) -> bool:
        lowered = name.lower()
        return any(c.name.lower() == lowered for c in self.columns)

    @cached_property
    def rowid_alias(self) -> Optional[int]:
        """Position of the column that is the rowid (its value keys the
        table tree), or None (:func:`primary_key_storage`).  Worked out
        once per entry, which every reader of its catalog page shares."""
        alias, _ = primary_key_storage(self.name, self.columns,
                                       self.primary_key)
        return None if alias is None else self.column_index(alias)


@dataclass(frozen=True)
class IndexInfo:
    """One index's catalog entry; frozen and shared as :class:`TableInfo`."""

    name: str
    table: str
    root_id: int
    columns: List[str]
    unique: bool = False
    temporary: bool = False


def _decode_entry(key: bytes, raw: bytes,
                  temporary: bool) -> Union[TableInfo, IndexInfo]:
    if key.startswith(_TABLE_KEYS):
        name, root_id, cols, types, pk = decode_record(raw)
        col_names = str(cols).split(_SEP) if cols else []
        # Types may all be empty strings (no affinity); split by column
        # count, never by truthiness of the joined string.
        col_types = str(types).split(_SEP) if col_names else []
        while len(col_types) < len(col_names):
            col_types.append("")
        return TableInfo(
            name=str(name), root_id=int(root_id),
            columns=[Column(n, t) for n, t in zip(col_names, col_types)],
            primary_key=str(pk).split(_SEP) if pk else [],
            temporary=temporary,
        )
    name, table, root_id, unique, cols = decode_record(raw)
    return IndexInfo(
        name=str(name), table=str(table), root_id=int(root_id),
        columns=str(cols).split(_SEP) if cols else [],
        unique=bool(unique), temporary=temporary,
    )


# One decoder per catalog kind: which catalog an entry came from is part
# of the entry, the leaf memo is keyed by decoder identity, and the main
# and aux catalogs never share a page.

def _main_entry(key: bytes, raw: bytes) -> Union[TableInfo, IndexInfo]:
    return _decode_entry(key, raw, False)


def _temp_entry(key: bytes, raw: bytes) -> Union[TableInfo, IndexInfo]:
    return _decode_entry(key, raw, True)


class Catalog:
    """Catalog accessor bound to one page source (current or snapshot).

    A typed view of the catalog tree (DESIGN.md, "The node cache
    contract"): lookups hand out the entries the page's decoded node
    carries, so a catalog page shared by many snapshots — or read by
    every statement between two DDLs — is decoded once.  The accessor
    keeps no lookup state of its own; a write publishes a node without
    entries, as a table leaf's does.  ``temporary`` says this is the aux
    engine's catalog.
    """

    def __init__(self, source, root_id: int,
                 temporary: bool = False) -> None:
        self._tree = BTree(source, root_id,
                           _temp_entry if temporary else _main_entry)

    def _entries(self, kind: type) -> list:
        """Every entry of one kind, in name order.  The full scan is
        what fills the leaf memo the point lookups borrow."""
        return [entry for leaf in self._tree.scan_leaves()
                for entry in leaf if type(entry) is kind]

    def page_ids(self) -> List[int]:
        """Page ids of the catalog tree itself."""
        return self._tree.page_ids()

    def root_leaf(self) -> Optional[object]:
        """The decoded node of a catalog that fits on its root page (None
        once it spans more): what a run reader keys kept lookups by."""
        return self._tree.root_leaf()

    # -- keys -----------------------------------------------------------

    # Every statement looks its tables up by name: the few names a
    # database has are encoded once.
    @staticmethod
    @lru_cache(maxsize=1024)
    def _table_key(name: str) -> bytes:
        return encode_key(("T", name.lower()))

    @staticmethod
    @lru_cache(maxsize=1024)
    def _index_key(name: str) -> bytes:
        return encode_key(("I", name.lower()))

    # -- tables -----------------------------------------------------------

    def create_table(self, info: TableInfo) -> None:
        key = self._table_key(info.name)
        if self._tree.contains(key):
            raise CatalogError(f"table {info.name} already exists")
        value = encode_record((
            info.name,
            info.root_id,
            _SEP.join(c.name for c in info.columns),
            _SEP.join(c.type_name for c in info.columns),
            _SEP.join(info.primary_key),
        ))
        self._tree.insert(key, value)

    def drop_table(self, name: str) -> TableInfo:
        info = self.get_table(name)
        if info is None:
            raise CatalogError(f"no such table: {name}")
        self._tree.delete(self._table_key(name))
        return info

    def get_table(self, name: str) -> Optional[TableInfo]:
        return self._tree.get(self._table_key(name))

    def list_tables(self) -> List[TableInfo]:
        return self._entries(TableInfo)

    # -- indexes -----------------------------------------------------------

    def create_index(self, info: IndexInfo) -> None:
        key = self._index_key(info.name)
        if self._tree.contains(key):
            raise CatalogError(f"index {info.name} already exists")
        value = encode_record((
            info.name,
            info.table,
            info.root_id,
            1 if info.unique else 0,
            _SEP.join(info.columns),
        ))
        self._tree.insert(key, value)

    def drop_index(self, name: str) -> IndexInfo:
        info = self.get_index(name)
        if info is None:
            raise CatalogError(f"no such index: {name}")
        self._tree.delete(self._index_key(name))
        return info

    def get_index(self, name: str) -> Optional[IndexInfo]:
        return self._tree.get(self._index_key(name))

    def list_indexes(self) -> List[IndexInfo]:
        return self._entries(IndexInfo)

    def indexes_for(self, table: str) -> List[IndexInfo]:
        lowered = table.lower()
        return [entry for leaf in self._tree.scan_leaves() for entry in leaf
                if type(entry) is IndexInfo
                and entry.table.lower() == lowered]
