"""Per-module analysis context: AST, parents, pragmas, qualnames.

Pragmas
-------
replint pragmas live in ``#`` comments and **must** carry a justification
after ``--`` (an escape hatch without a reason is itself a violation,
reported as RPL000)::

    txn = engine.begin()   # replint: ignore[RPL030] -- committed by caller
    except Exception as exc:  # replint: taxonomy-exempt -- re-raised later

Forms:

* ``ignore[RPL030]`` / ``ignore[RPL030,RPL011]`` — suppress those rules;
* named aliases (``typestate-exempt``, ``lockorder-exempt``,
  ``race-exempt``, ``taxonomy-exempt``, ...) — readable synonyms for
  single rules.

A pragma that names no rule, a rule the linter does not have (a deleted
rule's pragma goes with the rule), or no reason is itself an RPL000
finding.

The body grammar (:meth:`Pragma.parse`) is shared with ``-- rqlint:``
comments in ``.sql`` lint files; only the scoping differs.  A pragma
suppresses findings anchored to its own line; checkers that exempt
whole functions also honour a pragma on the ``def`` line or the line
directly above it (decorators included).
"""

from __future__ import annotations

import ast
import hashlib
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import ERROR, Finding

PRAGMA_ALIASES = {
    "taxonomy-exempt": "RPL002",
    "lockorder-exempt": "RPL011",
    "race-exempt": "RPL020",
    "typestate-exempt": "RPL030",
    "atomicity-exempt": "RPL031",
    "confinement-exempt": "RPL033",
    # Query-level aliases, for SQL "-- rqlint:" comments (see
    # repro.analysis.query.sqlfile); a tuple value expands to several
    # rules.
    "query-exempt": ("RQL100", "RQL101", "RQL102", "RQL103",
                     "RQL104", "RQL105", "RQL106"),
    "mergeclass-exempt": ("RQL101", "RQL102", "RQL105", "RQL106"),
}

_PRAGMA_RE = re.compile(r"#\s*replint:\s*(?P<body>.+)$")
_IGNORE_RE = re.compile(r"ignore\[(?P<rules>[A-Za-z0-9_,\s]+)\]")


@dataclass(frozen=True)
class Pragma:
    line: int
    rules: Tuple[str, ...]
    justification: str

    @classmethod
    def parse(cls, line: int, body: str) -> "Pragma":
        """The one pragma-body grammar, for ``# replint:`` and
        ``-- rqlint:`` comments alike: ``ignore[...]`` and/or aliases,
        then ``-- reason``."""
        directive, _, justification = body.partition("--")
        rules: Set[str] = set()
        ignore = _IGNORE_RE.search(directive)
        if ignore is not None:
            rules.update(r.strip().upper()
                         for r in ignore.group("rules").split(",")
                         if r.strip())
        for alias, rule in PRAGMA_ALIASES.items():
            if alias in directive:
                rules.update(rule if isinstance(rule, tuple) else (rule,))
        return cls(line, tuple(sorted(rules)), justification.strip())

    @property
    def justified(self) -> bool:
        return bool(self.justification.strip())

    def hygiene(self, file: str,
                known: Collection[str]) -> Optional[Finding]:
        """RPL000 when the pragma names no rule, a rule not in ``known``
        (the rule catalogue), or gives no reason."""
        unknown = [rule for rule in self.rules if rule not in known]
        if not self.rules:
            message = "unrecognized pragma"
            hint = ("use 'ignore[RULE] -- reason' or a named alias "
                    "(typestate-exempt, query-exempt, ...)")
        elif unknown:
            message = f"pragma names unknown rule {', '.join(unknown)}"
            hint = ("name a rule from --list-rules; a deleted rule's "
                    "pragmas are deleted with it")
        elif not self.justified:
            message = "pragma without a justification"
            hint = "append ' -- <why this is safe>' to the pragma"
        else:
            return None
        return Finding(file=file, line=self.line, rule="RPL000",
                       severity=ERROR, message=message, hint=hint)


def _comment_tokens(source: str) -> Iterator[Tuple[int, str]]:
    """(line, text) for every real comment (docstrings don't count)."""
    readline = io.StringIO(source).readline
    try:
        for token in tokenize.generate_tokens(readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError):
        return  # a syntax error elsewhere reports as RPL000


def parse_pragmas(source: str) -> Dict[int, Pragma]:
    """Extract replint pragmas, keyed by 1-based line number."""
    pragmas: Dict[int, Pragma] = {}
    for lineno, text in _comment_tokens(source):
        match = _PRAGMA_RE.search(text)
        if match is not None:
            pragmas[lineno] = Pragma.parse(lineno, match.group("body"))
    return pragmas


@dataclass
class ModuleContext:
    """Everything a checker needs to know about one source module."""

    path: Path           #: filesystem path (for display)
    relpath: str         #: package-relative posix path, e.g. "storage/wal.py"
    tree: ast.Module
    lines: List[str]
    pragmas: Dict[int, Pragma] = field(default_factory=dict)
    _parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)
    _qualnames: Dict[ast.AST, str] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str, relpath: str,
                    path: Optional[Path] = None) -> "ModuleContext":
        tree = ast.parse(source)
        lines = source.splitlines()
        ctx = cls(path=path or Path(relpath), relpath=relpath,
                  tree=tree, lines=lines, pragmas=parse_pragmas(source))
        ctx._index()
        return ctx

    # -- indexing ----------------------------------------------------------

    def _index(self) -> None:
        def walk(node: ast.AST, qualname: str) -> None:
            for child in ast.iter_child_nodes(node):
                self._parents[child] = node
                name = getattr(child, "name", None)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    child_qual = f"{qualname}.{name}" if qualname else name
                    self._qualnames[child] = child_qual
                    walk(child, child_qual)
                else:
                    walk(child, qualname)
        walk(self.tree, "")

    # -- navigation --------------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def qualname(self, node: ast.AST) -> str:
        """Qualname of the function/class enclosing ``node`` ("" if none)."""
        if node in self._qualnames:
            return self._qualnames[node]
        for ancestor in self.ancestors(node):
            if ancestor in self._qualnames:
                return self._qualnames[ancestor]
        return ""

    def function_hash(self, node: Optional[ast.AST]) -> str:
        """Short content hash of the function enclosing ``node``.

        Used for line-stable baseline keys: the hash covers exactly the
        enclosing function's source lines, so edits elsewhere in the
        file don't invalidate a baselined entry, while any change to
        the function itself does.  Module-level findings hash the whole
        file.
        """
        func = None
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node
        elif node is not None:
            func = self.enclosing_function(node)
        if func is not None:
            first = min(
                [func.lineno] + [d.lineno for d in func.decorator_list])
            text = "\n".join(self.lines[first - 1:func.end_lineno])
        else:
            text = "\n".join(self.lines)
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    # -- pragma queries ----------------------------------------------------

    def pragma_lines_for(self, node: ast.AST) -> List[int]:
        """Lines whose pragmas may cover a finding anchored at ``node``."""
        lines = [getattr(node, "lineno", 0)]
        func = node if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) else self.enclosing_function(node)
        if func is not None:
            first = min(
                [func.lineno] + [d.lineno for d in func.decorator_list]
            )
            lines.extend([func.lineno, first - 1])
        return lines

    def suppressed(self, rule: str, node: ast.AST) -> bool:
        for lineno in self.pragma_lines_for(node):
            pragma = self.pragmas.get(lineno)
            if pragma is not None and rule in pragma.rules \
                    and pragma.justified:
                return True
        return False
