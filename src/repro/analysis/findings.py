"""The lint report and its baseline.

A :class:`Finding` pins one rule violation to a file, line and enclosing
symbol.  It is defined beside the merge certificate
(:mod:`repro.sql.certify`), whose RQL diagnostics are findings too, and
re-exported here.  Findings are value objects: checkers yield them, the
driver filters them (pragmas, baseline) and renders them.

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
from repro.sql.certify import ERROR, WARNING, Finding

__all__ = ["ERROR", "WARNING", "AnalysisReport", "Finding",
           "load_baseline", "save_baseline"]


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
