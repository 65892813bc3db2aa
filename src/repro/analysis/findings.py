"""Findings model for replint.

A :class:`Finding` pins one rule violation to a file, line and enclosing
symbol.  Findings are value objects: checkers yield them, the driver
filters them (pragmas, baseline) and renders them.

Baselines
---------
A baseline file accepts a set of *known* findings so a new rule can land
before every historical violation is fixed.  Entries key on
``rule:file:symbol`` — deliberately **not** on line numbers, which churn
on every edit.  Newly written baselines append ``#<hash>``, a content
hash of the *enclosing function's* source, so an entry survives edits
anywhere else in the file but expires the moment the flagged function
itself changes.  Hashless (v1) entries still match for compatibility.
The repository policy (see README) is an empty baseline: real
violations are fixed or carry a justified pragma instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Set

from repro.errors import AnalysisError

#: severity levels; only ERROR findings fail the run
ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location."""

    file: str        #: package-relative posix path (baseline-stable)
    line: int
    rule: str        #: rule id, e.g. "RPL030"
    severity: str
    message: str
    hint: str = ""   #: how to fix (or legitimately suppress) it
    symbol: str = "" #: enclosing function/class qualname, "" at module level
    content_hash: str = ""  #: hash of the enclosing function's source

    @property
    def baseline_key(self) -> str:
        """v1 key: line-independent but content-independent too."""
        return f"{self.rule}:{self.file}:{self.symbol or '<module>'}"

    @property
    def hashed_key(self) -> str:
        """v2 key: expires when the enclosing function's body changes."""
        if self.content_hash:
            return f"{self.baseline_key}#{self.content_hash}"
        return self.baseline_key

    def matches(self, baseline: Set[str]) -> bool:
        return self.hashed_key in baseline or self.baseline_key in baseline

    def render(self) -> str:
        where = f"{self.file}:{self.line}"
        text = f"{where}: {self.rule} [{self.severity}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


@dataclass
class AnalysisReport:
    """Outcome of one analysis run."""

    findings: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    files_scanned: int = 0    #: .py and .sql files linted
    corpus_entries: int = 0   #: golden-corpus entries re-certified

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def ok(self) -> bool:
        return not self.errors


def load_baseline(path: Path) -> Set[str]:
    """Read a baseline file (JSON list of ``rule:file:symbol`` keys)."""
    if not path.exists():
        return set()
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise AnalysisError(f"unreadable baseline {path}: {exc}") from exc
    if not isinstance(data, list) or not all(
            isinstance(entry, str) for entry in data):
        raise AnalysisError(
            f"baseline {path} must be a JSON list of strings"
        )
    return set(data)


def save_baseline(path: Path, findings: Iterable[Finding]) -> None:
    keys = sorted({finding.hashed_key for finding in findings})
    path.write_text(json.dumps(keys, indent=2) + "\n", encoding="utf-8")
