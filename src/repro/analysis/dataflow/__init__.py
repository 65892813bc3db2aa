"""Interprocedural dataflow engine for replint.

Layers (bottom up):

* :mod:`repro.analysis.dataflow.cfg` — per-function control-flow graphs
  derived from the AST, with explicit exception edges;
* :mod:`repro.analysis.dataflow.lattice` — a forward dataflow framework
  (join-semilattice states + worklist solver over a CFG);
* :mod:`repro.analysis.dataflow.callgraph` — whole-program call graph
  with module-qualified resolution of functions, methods and the
  ``self.``-dispatch patterns used across storage/sql/core;
* :mod:`repro.analysis.dataflow.summaries` — per-function escape/alias
  summaries so facts propagate across call boundaries;
* :mod:`repro.analysis.dataflow.program` — the :class:`Program` facade
  the interprocedural rules (RPL011–RPL033) are written against.
"""

from repro.analysis.dataflow.cfg import CFG, CFGNode, build_cfg
from repro.analysis.dataflow.lattice import ForwardAnalysis, solve
from repro.analysis.dataflow.callgraph import CallGraph, CallSite
from repro.analysis.dataflow.summaries import FunctionSummary
from repro.analysis.dataflow.program import Program

__all__ = [
    "CFG",
    "CFGNode",
    "CallGraph",
    "CallSite",
    "ForwardAnalysis",
    "FunctionSummary",
    "Program",
    "build_cfg",
    "solve",
]
