"""SQL tokenizer.

Produces a flat list of :class:`Token` objects; the parser consumes them
with one-token lookahead.  Keywords are case-insensitive and reported
uppercased; identifiers keep their original spelling (lookups are
case-insensitive at the catalog level).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import LexerError

# Token kinds
KEYWORD = "KEYWORD"
IDENT = "IDENT"
INTEGER = "INTEGER"
FLOAT = "FLOAT"
STRING = "STRING"
BLOB = "BLOB"
OPERATOR = "OPERATOR"
PARAM = "PARAM"
EOF = "EOF"

KEYWORDS = frozenset("""
    ABORT ALL ANALYZE AND AS ASC ASOF AVG BEGIN BETWEEN BLOB BY CASE COMMIT COUNT
    CREATE CROSS DATE DEFAULT DELETE DESC DISTINCT DROP ELSE END ESCAPE EXPLAIN
    EXISTS FROM GROUP HAVING IF IN INDEX INNER INSERT INTEGER INTO IS JOIN
    KEY LEFT LIKE LIMIT MATERIALIZED MAX MIN NOT NULL NUMERIC OF OFFSET
    ON OR ORDER PRIMARY REAL REFRESH ROLLBACK SELECT SET SNAPSHOT SUM
    TABLE TEMP TEMPORARY TEXT THEN TRANSACTION UNIQUE UPDATE VALUES VIEW
    WHEN WHERE WITH
""".split())

_OPERATORS = (
    "<>", "<=", ">=", "!=", "||", "=", "<", ">", "+", "-", "*", "/", "%",
    "(", ")", ",", ".", ";",
)


@dataclass
class Token:
    kind: str
    value: object
    position: int
    line: int = 0
    col: int = 0

    def matches(self, kind: str, value: Optional[str] = None) -> bool:
        if self.kind != kind:
            return False
        return value is None or self.value == value


def tokenize(sql: str) -> List[Token]:
    """Tokenize ``sql``; raises LexerError on unrecognized input."""
    tokens: List[Token] = []
    pos = 0
    n = len(sql)
    while pos < n:
        ch = sql[pos]
        if ch.isspace():
            pos += 1
            continue
        if sql.startswith("--", pos):
            end = sql.find("\n", pos)
            pos = n if end < 0 else end + 1
            continue
        if sql.startswith("/*", pos):
            end = sql.find("*/", pos + 2)
            if end < 0:
                raise LexerError("unterminated block comment", pos)
            pos = end + 2
            continue
        if ch == "'":
            start = pos
            value, pos = _read_string(sql, pos)
            tokens.append(Token(STRING, value, start))
            continue
        if ch == '"':
            start = pos
            value, pos = _read_quoted_ident(sql, pos)
            tokens.append(Token(IDENT, value, start))
            continue
        if ch in "xX" and pos + 1 < n and sql[pos + 1] == "'":
            start = pos
            value, pos = _read_blob(sql, pos)
            tokens.append(Token(BLOB, value, start))
            continue
        if ch.isdigit() or (ch == "." and pos + 1 < n and sql[pos + 1].isdigit()):
            tok, pos = _read_number(sql, pos)
            tokens.append(tok)
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (sql[pos].isalnum() or sql[pos] == "_"):
                pos += 1
            word = sql[start:pos]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(KEYWORD, upper, start))
            else:
                tokens.append(Token(IDENT, word, start))
            continue
        if ch == "?":
            tokens.append(Token(PARAM, "?", pos))
            pos += 1
            continue
        matched = False
        for op in _OPERATORS:
            if sql.startswith(op, pos):
                tokens.append(Token(OPERATOR, op, pos))
                pos += len(op)
                matched = True
                break
        if not matched:
            raise LexerError(f"unexpected character {ch!r}", pos)
    tokens.append(Token(EOF, None, n))
    _assign_positions(sql, tokens)
    return tokens


def _assign_positions(sql: str, tokens: List[Token]) -> None:
    """Fill in 1-based line/col on every token from its byte offset."""
    line_starts = [0]
    for offset, ch in enumerate(sql):
        if ch == "\n":
            line_starts.append(offset + 1)
    for token in tokens:
        at = bisect_right(line_starts, token.position) - 1
        token.line = at + 1
        token.col = token.position - line_starts[at] + 1


def _read_string(sql: str, pos: int) -> tuple:
    """Single-quoted string with '' escaping."""
    out: List[str] = []
    pos += 1
    n = len(sql)
    while pos < n:
        ch = sql[pos]
        if ch == "'":
            if pos + 1 < n and sql[pos + 1] == "'":
                out.append("'")
                pos += 2
                continue
            return "".join(out), pos + 1
        out.append(ch)
        pos += 1
    raise LexerError("unterminated string literal", pos)


def _read_quoted_ident(sql: str, pos: int) -> tuple:
    """Double-quoted identifier with "" escaping."""
    start = pos
    parts: List[str] = []
    while True:
        end = sql.find('"', pos + 1)
        if end < 0:
            raise LexerError("unterminated quoted identifier", start)
        parts.append(sql[pos + 1:end])
        if not sql.startswith('"', end + 1):
            return '"'.join(parts), end + 1
        pos = end + 1


def _read_blob(sql: str, pos: int) -> tuple:
    end = sql.find("'", pos + 2)
    if end < 0:
        raise LexerError("unterminated blob literal", pos)
    hex_digits = sql[pos + 2:end]
    try:
        return bytes.fromhex(hex_digits), end + 1
    except ValueError as exc:
        raise LexerError(f"bad blob literal: {exc}", pos) from exc


def _read_number(sql: str, pos: int) -> tuple:
    start = pos
    n = len(sql)
    seen_dot = False
    seen_exp = False
    while pos < n:
        ch = sql[pos]
        if ch.isdigit():
            pos += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            pos += 1
        elif ch in "eE" and not seen_exp and pos > start:
            nxt = sql[pos + 1] if pos + 1 < n else ""
            if nxt.isdigit() or (nxt in "+-" and pos + 2 < n
                                 and sql[pos + 2].isdigit()):
                seen_exp = True
                pos += 2 if nxt in "+-" else 1
            else:
                break
        else:
            break
    text = sql[start:pos]
    if seen_dot or seen_exp:
        return Token(FLOAT, float(text), start), pos
    return Token(INTEGER, int(text), start), pos
