"""replint — AST-based invariant checks for the repro tree.

The storage/SQL/RQL layers rest on protocol discipline the type system
cannot express: transactions and read contexts must be finished on every
path, WAL appends must precede flushes,
aggregates must be complete monoids, exceptions must fit the taxonomy,
snapshot ids must not be hard-coded.  This package parses the whole
source tree with :mod:`ast` and enforces those invariants statically,
and certifies the RQL mechanism invocations in ``.sql`` lint files
(:mod:`repro.analysis.query`) through the same driver — see README
"Static analysis" for the rule catalogue and escape hatches.
"""

from repro.analysis.driver import (
    analyze_paths,
    analyze_source,
    main,
    package_root,
)
from repro.analysis.findings import AnalysisReport, Finding

__all__ = [
    "AnalysisReport",
    "Finding",
    "analyze_paths",
    "analyze_source",
    "main",
    "package_root",
]
