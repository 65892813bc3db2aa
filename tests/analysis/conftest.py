"""One whole-tree replint analysis per test session.

Building the call graph and solving the summaries over ``src/repro``
+ ``benchmarks`` + ``examples`` takes several seconds (the rules on top
a few more); the dogfood tests (``test_replint_self``), the real-tree
gates (``test_replint_v3``) and the whole-tree visit bound
(``test_summary_solve``) all read this one program instead of
re-deriving it.
"""

import pathlib
from dataclasses import dataclass
from typing import List, Set

import pytest

from repro.analysis.dataflow.program import Program
from repro.analysis.driver import (
    _collect_contexts,
    analyze_program,
    package_root,
)
from repro.analysis.findings import AnalysisReport, Finding


@dataclass
class TreeAnalysis:
    program: Program
    findings: List[Finding]
    #: relpaths of the modules under ``src/repro``
    src_files: Set[str]

    def report(self, src_only: bool = False) -> AnalysisReport:
        """What ``analyze_paths`` (empty baseline) would return for all
        three roots, or for ``src/repro`` alone."""
        files = self.src_files if src_only else set(self.program.contexts)
        return AnalysisReport(
            findings=[f for f in self.findings if f.file in files],
            files_scanned=len(files),
        )


@pytest.fixture(scope="session")
def tree_analysis() -> TreeAnalysis:
    repo = pathlib.Path(__file__).resolve().parents[2]
    src = package_root()
    roots = [src, repo / "benchmarks", repo / "examples"]
    assert all(root.is_dir() for root in roots)
    contexts, findings, _ = _collect_contexts(roots)
    program = Program.from_contexts(contexts)
    findings.extend(analyze_program(program))
    return TreeAnalysis(
        program, sorted(findings),
        {ctx.relpath for ctx in contexts if src in ctx.path.parents},
    )
