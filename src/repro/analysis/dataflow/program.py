"""The whole-program view the interprocedural rules are written against.

:class:`Program` bundles the module contexts, the call graph, one CFG
per function, and the function summaries.  Summaries are solved by a
worklist over the reverse call graph: every function is queued once,
callees before callers, and a function whose summary changed re-queues
its callers.  All summary domains are finite and grow monotonically, so
the queue drains; a solve that would take more than
``_MAX_VISITS_PER_FUNCTION`` visits per function on average raises
:class:`AnalysisError` instead of reporting from unconverged summaries.

A caller reads callee summaries only through its call sites' targets,
so when the queue drains each function's last :class:`FunctionResult`
was computed against its callees' final summaries: that result is the
evidence (lock edges, protocol findings, stale writes) the rules report.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.context import ModuleContext
from repro.analysis.dataflow.callgraph import CallGraph, FunctionInfo
from repro.analysis.dataflow.cfg import CFG, build_cfg
from repro.analysis.dataflow.effects import EffectsIndex
from repro.analysis.dataflow.summaries import (
    FunctionResult, FunctionSummary, LockEdge, _LockIndex, summarize,
)
from repro.errors import AnalysisError

_MAX_VISITS_PER_FUNCTION = 50


class Program:
    """Call graph + CFGs + converged summaries for one set of modules."""

    def __init__(self, contexts: Dict[str, ModuleContext]) -> None:
        self.contexts = contexts
        self.graph = CallGraph(contexts)
        self._cfgs: Dict[str, CFG] = {}
        self._lock_index = _LockIndex(self.graph)
        self.summaries: Dict[str, FunctionSummary] = {}
        self.results: Dict[str, FunctionResult] = {}
        #: number of ``summarize`` calls the solve made
        self.visits = 0
        self._effects: Optional[EffectsIndex] = None
        self._solve()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_contexts(cls, contexts: Iterable[ModuleContext]) -> "Program":
        return cls({ctx.relpath: ctx for ctx in contexts})

    @property
    def effects(self) -> EffectsIndex:
        """Lazily-built thread-escape / entry-lock index."""
        if self._effects is None:
            self._effects = EffectsIndex(self.graph, self.summaries,
                                         self._lock_index)
        return self._effects

    def cfg(self, func: FunctionInfo) -> CFG:
        cached = self._cfgs.get(func.qualname)
        if cached is None:
            cached = build_cfg(func.node)
            self._cfgs[func.qualname] = cached
        return cached

    def _call_lists(self) -> Tuple[Dict[str, List[str]],
                                   Dict[str, List[str]]]:
        """Callees and callers of every function, each list in a fixed
        order (the visit count must not depend on string hashing)."""
        callees = {
            qualname: list(dict.fromkeys(
                target.qualname
                for site in self.graph.sites_in(func)
                for target in site.targets))
            for qualname, func in self.graph.functions.items()
        }
        callers: Dict[str, List[str]] = {q: [] for q in callees}
        for qualname, targets in callees.items():
            for target in targets:
                callers[target].append(qualname)
        return callees, callers

    @staticmethod
    def _callees_first(callees: Dict[str, List[str]]) -> List[str]:
        """Every function after the callees it reaches, bar cycles: a
        depth-first post-order of the call graph.  A function visited
        after its callees have settled usually settles in one visit."""
        order: List[str] = []
        seen = set()
        for root in callees:
            if root in seen:
                continue
            seen.add(root)
            stack = [(root, iter(callees[root]))]
            while stack:
                qualname, pending = stack[-1]
                for callee in pending:
                    if callee not in seen:
                        seen.add(callee)
                        stack.append((callee, iter(callees[callee])))
                        break
                else:
                    stack.pop()
                    order.append(qualname)
        return order

    def _solve(self) -> None:
        functions = self.graph.functions
        callees, callers = self._call_lists()
        self.summaries = {qualname: FunctionSummary(qualname=qualname)
                          for qualname in functions}
        budget = _MAX_VISITS_PER_FUNCTION * len(functions)
        queue = deque(self._callees_first(callees))
        queued = set(queue)
        while queue:
            if self.visits >= budget:
                raise AnalysisError(
                    f"function summaries did not converge within "
                    f"{budget} visits ({len(functions)} functions)")
            qualname = queue.popleft()
            queued.discard(qualname)
            func = functions[qualname]
            result = summarize(func, self.cfg(func), self.graph,
                               self.summaries, lock_index=self._lock_index)
            self.visits += 1
            self.results[qualname] = result
            if result.summary == self.summaries[qualname]:
                continue
            self.summaries[qualname] = result.summary
            for caller in callers[qualname]:
                if caller not in queued:
                    queued.add(caller)
                    queue.append(caller)

    # -- graph views -------------------------------------------------------

    def lock_edges(self) -> List[LockEdge]:
        edges: List[LockEdge] = []
        for qualname in sorted(self.results):
            edges.extend(self.results[qualname].lock_edges)
        return edges

    def lock_cycles(self) -> List[Tuple[LockEdge, ...]]:
        """Every elementary cycle in the latch-order graph (deduped)."""
        adjacency: Dict[str, List[LockEdge]] = {}
        for edge in self.lock_edges():
            adjacency.setdefault(edge.held, []).append(edge)

        cycles: List[Tuple[LockEdge, ...]] = []
        seen: set = set()

        def visit(origin: str, node: str, path: List[LockEdge]) -> None:
            for edge in adjacency.get(node, []):
                if edge.acquired == origin:
                    cycle = tuple(path + [edge])
                    key = frozenset((e.held, e.acquired) for e in cycle)
                    if key not in seen:
                        seen.add(key)
                        cycles.append(cycle)
                elif all(edge.acquired != e.held for e in path) \
                        and edge.acquired > origin:
                    visit(origin, edge.acquired, path + [edge])

        for origin in sorted(adjacency):
            visit(origin, origin, [])
        return cycles

    def call_graph_dot(self) -> str:
        return self.graph.to_dot()

    def latch_graph_dot(self) -> str:
        lines = ["digraph latchorder {", '  rankdir="LR";',
                 '  node [shape=ellipse, fontsize=10];']
        acquired = {lock for result in self.results.values()
                    for lock in result.summary.acquires_locks}
        # Every latch *assigned* anywhere is a node, even if nothing in
        # the analyzed set orders it against another latch yet — the
        # graph must reflect the full latch inventory, not just edges.
        assigned = {
            f"{self.graph.classes[cls_qual].name}.{attr}"
            for (cls_qual, attr) in self._lock_index.assigned
        }
        nodes = sorted(acquired | assigned
                       | {lock for edge in self.lock_edges()
                          for lock in (edge.held, edge.acquired)})
        for lock in nodes:
            lines.append(f'  "{lock}";')
        deduped: Dict[Tuple[str, str], LockEdge] = {}
        for edge in self.lock_edges():
            deduped.setdefault((edge.held, edge.acquired), edge)
        for (held, acquired), edge in sorted(deduped.items()):
            lines.append(
                f'  "{held}" -> "{acquired}" '
                f'[label="{edge.func.split("::")[-1]}:{edge.line}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
