"""``.sql`` lint files: RQL mechanism invocations annotated for rqlint.

The lint driver (:mod:`repro.analysis.driver`) sends every ``.sql``
file it walks here.  A lint file is plain SQL annotated with
``-- rqlint:`` comments:

* DDL statements (``CREATE TABLE`` / ``CREATE INDEX``) outside any case
  build the file's :class:`~repro.sql.semantic.StaticSchema` (SnapIds is
  always present — every Qs reads it);
* a **case directive** opens one mechanism invocation; the SQL that
  follows (until the next directive) is its Qq::

      -- rqlint: mechanism=CollateData qs="SELECT snap_id FROM SnapIds"
      SELECT DISTINCT l_userid, current_snapshot() FROM LoggedIn;

  ``arg="sum"`` supplies an AggregateDataInVariable aggregate,
  ``arg="online:sum,flags:count"`` an AggregateDataInTable pair list;
* **pragmas** suppress rules for the enclosing case (or, before any
  case, for the whole file).  Their body is the one pragma grammar
  (:meth:`~repro.analysis.context.Pragma.parse`) and must justify
  itself after ``--``; a malformed or unjustified one is RPL000::

      -- rqlint: ignore[RQL103] -- audits deliberately walk all history
      -- rqlint: mergeclass-exempt -- legacy report, runs serially

A finding inside a case carries a hash of the case's text, so a
baseline entry for it expires when the case changes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
from typing import Dict, List, Set

from repro.analysis.context import Pragma
from repro.analysis.findings import ERROR, Finding
from repro.analysis.rules import rule_catalogue
from repro.sql.certify import certify_mechanism

_SQL_PRAGMA_RE = re.compile(r"^\s*--\s*rqlint:\s*(?P<body>.+?)\s*$")
_KEYVAL_RE = re.compile(r'(?P<key>\w+)=(?:"(?P<quoted>[^"]*)"'
                        r'|(?P<bare>\S+))')

#: SnapIds is implicitly in scope for every lint file (the Qs reads it).
_SNAPIDS_DDL = ("CREATE TABLE SnapIds (snap_id INTEGER PRIMARY KEY, "
                "snap_ts TEXT, snap_name TEXT)")


class _Case:
    """One mechanism invocation parsed out of a lint file."""

    def __init__(self, line: int, directive: str, mechanism: str, qs: str,
                 arg: object, name: str) -> None:
        self.line = line          #: directive line (1-based)
        self.directive = directive
        self.mechanism = mechanism
        self.qs = qs
        self.arg = arg
        self.name = name
        self.qq_lines: List[str] = []
        self.qq_start = line + 1  #: line the Qq text begins on
        self.suppressed: Set[str] = set()

    @property
    def qq(self) -> str:
        return "\n".join(self.qq_lines).strip().rstrip(";").strip()

    @property
    def content_hash(self) -> str:
        text = "\n".join([self.directive] + self.qq_lines)
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def _parse_arg(text: str) -> object:
    """Directive ``arg=`` value -> mechanism argument.

    ``"sum"`` stays a string (AggregateDataInVariable); a ``:`` turns it
    into a pair list (``"online:sum,flags:count"``).
    """
    if ":" not in text:
        return text
    pairs = []
    for chunk in text.split(","):
        column, _, func = chunk.partition(":")
        pairs.append((column.strip(), func.strip()))
    return pairs


class SqlCorpus:
    """Parsed form of one annotated ``.sql`` file."""

    def __init__(self, relpath: str) -> None:
        self.relpath = relpath
        self.cases: List[_Case] = []
        self.ddl_lines: List[str] = []
        self.file_suppressed: Set[str] = set()
        self.findings: List[Finding] = []

    def _finding(self, line: int, message: str, hint: str = "") -> None:
        self.findings.append(Finding(
            file=self.relpath, line=line, rule="RQL100", severity=ERROR,
            message=message, hint=hint,
        ))

    def _open_case(self, lineno: int, raw: str, body: str) -> None:
        fields: Dict[str, str] = {}
        for match in _KEYVAL_RE.finditer(body):
            value = match.group("quoted")
            if value is None:
                value = match.group("bare")
            fields[match.group("key").lower()] = value
        mechanism = fields.get("mechanism", "")
        qs = fields.get("qs", "")
        if not qs:
            self._finding(
                lineno, "rqlint case directive is missing qs=\"...\"",
                hint='-- rqlint: mechanism=CollateData qs="SELECT ..."')
        arg = _parse_arg(fields["arg"]) if "arg" in fields else None
        self.cases.append(_Case(
            lineno, raw, mechanism, qs, arg,
            fields.get("name", f"case@{lineno}"),
        ))

    def _apply_pragma(self, lineno: int, body: str) -> None:
        pragma = Pragma.parse(lineno, body)
        hygiene = pragma.hygiene(self.relpath, rule_catalogue())
        if hygiene is not None:
            self.findings.append(hygiene)
        elif self.cases:
            self.cases[-1].suppressed.update(pragma.rules)
        else:
            self.file_suppressed.update(pragma.rules)

    def parse(self, source: str) -> "SqlCorpus":
        for lineno, raw in enumerate(source.splitlines(), start=1):
            match = _SQL_PRAGMA_RE.match(raw)
            if match is not None:
                body = match.group("body")
                if "mechanism=" in body.partition("--")[0]:
                    self._open_case(lineno, raw, body)
                else:
                    self._apply_pragma(lineno, body)
                continue
            if self.cases:
                self.cases[-1].qq_lines.append(raw)
            else:
                self.ddl_lines.append(raw)
        return self

    def schema(self):
        """StaticSchema from the file's DDL (plus the implicit SnapIds)."""
        from repro.sql.semantic import StaticSchema
        from repro.errors import ReproError

        schema = StaticSchema.from_ddl(_SNAPIDS_DDL)
        for name in ("current_snapshot", "snapshot_id", "rql_workers"):
            schema.add_function(name)
        ddl = "\n".join(self.ddl_lines).strip()
        if ddl:
            try:
                schema.add_ddl(ddl)
            except ReproError as exc:
                self._finding(1, f"corpus DDL does not parse: {exc}")
        return schema

    def certify(self) -> List[Finding]:
        """All (unsuppressed) findings for this file."""
        schema = self.schema()
        results = list(self.findings)
        for case in self.cases:
            if not case.qq:
                results.append(Finding(
                    file=self.relpath, line=case.line, rule="RQL100",
                    severity=ERROR, symbol=case.name,
                    message=f"case {case.name!r} has no Qq text",
                    content_hash=case.content_hash,
                ))
                continue
            certificate = certify_mechanism(
                case.mechanism, case.qs, case.qq, arg=case.arg,
                schema=schema, file=self.relpath, line=case.qq_start,
                symbol=case.name,
            )
            muted = case.suppressed | self.file_suppressed
            results.extend(
                dataclasses.replace(f, content_hash=case.content_hash)
                for f in certificate.findings if f.rule not in muted)
        return results
