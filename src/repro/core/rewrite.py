"""Qq binding — the RQL loop body's first step (paper Section 3).

For the iteration on snapshot ``Si``, the programmer's Qq::

    SELECT DISTINCT current_snapshot() FROM LoggedIn
    WHERE l_userid = 'UserB';

runs as::

    SELECT AS OF Si DISTINCT Si FROM LoggedIn
    WHERE l_userid = 'UserB';

i.e. (1) it reads snapshot ``Si``, and (2) every ``current_snapshot()``
call is ``Si``.

One statement, the snapshot a parameter.  :func:`prepare_qq` lexes,
parses and validates Qq **once** per RQL query; every snapshot of the
run executes that one statement through a cursor opened at ``Si``
(``RunReader.cursor``, ``Database.open_cursor``), which is both the
snapshot the cursor reads and the pin a ``current_snapshot()`` call
compiles to.  Nothing is rebuilt per snapshot.  :func:`rewrite_qq` is
the paper's textual form (token-based, not regex, so string literals
containing ``select`` or ``current_snapshot`` are never touched): no
snapshot loop calls it, and it is the oracle the cursors are tested
against — per snapshot, the prepared statement at ``Si`` returns what
``rewrite_qq(qq, Si)`` does.

``wrap_qs`` builds the Section 3 implementation form: the Qs query with
its select list wrapped in the mechanism UDF, e.g.
``SELECT rql_udf(snap_id, ...) FROM SnapIds WHERE ...``.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import List, Tuple

from repro.errors import MechanismError
from repro.sql import ast
from repro.sql.catalog import check_column_names
from repro.sql.expressions import CURRENT_SNAPSHOT, is_current_snapshot
from repro.sql.lexer import EOF, IDENT, KEYWORD, OPERATOR, Token, tokenize
from repro.sql.parser import parse_sql
from repro.sql.planner import PlanMemo, output_name

_NOT_A_SELECT = "Qq must be a SELECT statement"
_HAS_AS_OF = "Qq must not contain AS OF; RQL binds snapshots"
_CALL_HAS_ARGUMENTS = "current_snapshot must be called with no arguments"


class PreparedQq:
    """Qq, parsed and validated once: the one statement every snapshot
    of a run executes, with the snapshot a parameter of its cursor.

    Its statement is immutable once :func:`prepare_qq` returns (nothing
    downstream mutates an AST), so the partitions of a run, and two
    cursors open at different snapshots, share it.  :attr:`memo` is the
    one thing that changes: the statement-only analysis and the last
    plan, which the next cursor reuses while the planner's inputs are
    unchanged.
    """

    __slots__ = ("statement", "references_current_snapshot", "memo")

    def __init__(self, statement: ast.Select,
                 references_current_snapshot: bool) -> None:
        #: Qq as written: no ``AS OF``, the calls in place
        self.statement = statement
        #: True if Qq calls ``current_snapshot()`` — i.e. its result may
        #: differ per snapshot even over unchanged tables.  Incremental
        #: view refresh uses this to tell when identical table contents
        #: imply identical Qq output across a snapshot range.
        self.references_current_snapshot = references_current_snapshot
        #: pass with every cursor (``RunReader.cursor``,
        #: ``Database.open_cursor``)
        self.memo = PlanMemo()


def prepare_qq(qq: str) -> PreparedQq:
    """Lex, parse and validate Qq — everything about binding it that
    does not depend on the snapshot.  Lexer and parser errors are their
    own, with positions in the text as the user wrote it."""
    statements = parse_sql(qq)
    if len(statements) != 1 or not isinstance(statements[0], ast.Select):
        raise MechanismError(_NOT_A_SELECT)
    statement = statements[0]
    if statement.as_of is not None:
        raise MechanismError(_HAS_AS_OF)
    return PreparedQq(statement, _calls_current_snapshot(statement))


def check_result_names(prepared: PreparedQq) -> None:
    """Refuse a Qq whose select list names a column twice, before a run
    iterates: its result table could not hold both (``CREATE TABLE``
    refuses a repeated name).  A star's names are known only at a
    snapshot, so such a Qq is left to the table's creation, which
    writes nothing when it fails."""
    items = prepared.statement.items
    if not any(item.is_star for item in items):
        check_column_names(output_name(item, position)
                           for position, item in enumerate(items))


def _calls_current_snapshot(node) -> bool:
    """True if ``node`` (any part of a statement) holds a
    ``current_snapshot()`` call; refuses a call with arguments anywhere
    in it."""
    if is_current_snapshot(node):
        if node.args or node.distinct or node.star:
            raise MechanismError(_CALL_HAS_ARGUMENTS)
        return True
    if isinstance(node, (list, tuple)):
        children = node
    elif is_dataclass(node):
        children = [getattr(node, f.name) for f in fields(node)]
    else:
        return False
    # Every child is visited, so no malformed call goes unreported.
    return any([_calls_current_snapshot(child) for child in children])


def rewrite_qq(qq: str, snapshot_id: int) -> str:
    """Bind Qq to one snapshot as text: inject AS OF, inline
    current_snapshot().  The oracle of a prepared Qq's cursor at that
    snapshot (no snapshot loop calls it)."""
    sql = qq.strip().rstrip(";")
    tokens = tokenize(sql)
    edits: List[Tuple[int, int, str]] = []  # (start, end, replacement)

    select_seen = False
    for position, token in enumerate(tokens):
        if token.kind == EOF:
            break
        if token.kind == KEYWORD and token.value == "SELECT":
            if not select_seen:
                select_seen = True
                if _already_as_of(tokens, position):
                    raise MechanismError(_HAS_AS_OF)
                end = token.position + len("SELECT")
                edits.append((end, end, f" AS OF {snapshot_id}"))
            continue
        # Only a call is special: a column or alias that happens to be
        # named current_snapshot is an ordinary identifier.
        if token.kind == IDENT \
                and str(token.value).lower() == CURRENT_SNAPSHOT \
                and tokens[position + 1].matches(OPERATOR, "("):
            close_tok = tokens[position + 2]
            if not close_tok.matches(OPERATOR, ")"):
                raise MechanismError(_CALL_HAS_ARGUMENTS)
            edits.append((token.position, close_tok.position + 1,
                          str(snapshot_id)))

    if not select_seen:
        raise MechanismError(_NOT_A_SELECT)

    return _apply_edits(sql, edits)


def _already_as_of(tokens: List[Token], select_pos: int) -> bool:
    nxt = tokens[select_pos + 1] if select_pos + 1 < len(tokens) else None
    nxt2 = tokens[select_pos + 2] if select_pos + 2 < len(tokens) else None
    return (nxt is not None and nxt.matches(KEYWORD, "AS")
            and nxt2 is not None and nxt2.matches(KEYWORD, "OF"))


def _apply_edits(sql: str, edits: List[Tuple[int, int, str]]) -> str:
    out = sql
    for start, end, replacement in sorted(edits, reverse=True):
        out = out[:start] + replacement + out[end:]
    return out


def wrap_qs(qs: str, udf_call: str) -> str:
    """Wrap Qs's (single-column) select list in a UDF invocation.

    ``wrap_qs("SELECT snap_id FROM SnapIds WHERE x", "rql(%s)")`` yields
    ``SELECT rql(snap_id) FROM SnapIds WHERE x`` — the implementation
    syntax of paper Figure 5.  ``udf_call`` must contain one ``%s``.
    """
    sql = qs.strip().rstrip(";")
    tokens = tokenize(sql)
    select_tok = None
    from_tok = None
    depth = 0
    for token in tokens:
        if token.kind == OPERATOR and token.value == "(":
            depth += 1
        elif token.kind == OPERATOR and token.value == ")":
            depth -= 1
        elif token.kind == KEYWORD and depth == 0:
            if token.value == "SELECT" and select_tok is None:
                select_tok = token
            elif token.value == "FROM" and select_tok is not None \
                    and from_tok is None:
                from_tok = token
    if select_tok is None or from_tok is None:
        raise MechanismError("Qs must be a SELECT ... FROM ... query")
    head = sql[:select_tok.position + len("SELECT")]
    select_list = sql[select_tok.position + len("SELECT"):
                      from_tok.position].strip()
    tail = sql[from_tok.position:]
    if "," in select_list:
        raise MechanismError(
            "Qs must return a single snapshot-id column"
        )
    return f"{head} {udf_call % select_list} {tail}"


def validate_qs(qs: str) -> None:
    """Light validation: Qs is a single-column SELECT (no AS OF)."""
    sql = qs.strip().rstrip(";")
    tokens = tokenize(sql)
    first = tokens[0] if tokens else None
    if first is None or not first.matches(KEYWORD, "SELECT"):
        raise MechanismError("Qs must be a SELECT statement")
    if _already_as_of(tokens, 0):
        raise MechanismError("Qs runs on the SnapIds table, not a snapshot")
