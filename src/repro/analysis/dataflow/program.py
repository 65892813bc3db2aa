"""The whole-program view the interprocedural rules are written against.

:class:`Program` bundles the module contexts, the call graph, one CFG
per function, and the function summaries.  Summaries are computed by
chaotic iteration: every function is (re-)summarized with the current
summaries of its callees until nothing changes.  All summary domains
are finite and grow monotonically, so the loop terminates; in practice
the repository converges in a handful of passes.

Summaries can be persisted to a cache directory keyed on a digest of
every analyzed source file, which lets CI skip the fixpoint entirely
when nothing changed (the per-function evidence pass still runs — it
is a single sweep and needs the ASTs anyway).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.context import ModuleContext
from repro.analysis.dataflow.callgraph import CallGraph, FunctionInfo
from repro.analysis.dataflow.cfg import CFG, build_cfg
from repro.analysis.dataflow.effects import EffectsIndex
from repro.analysis.dataflow.summaries import (
    FunctionResult, FunctionSummary, LockEdge, _LockIndex, summarize,
)

_MAX_PASSES = 50

#: Bumped whenever the summary schema or any summary-producing pass
#: changes meaning.  Folded into the cache digest *and* checked against
#: the payload, so summaries written by an older replint are never
#: deserialized into the new schema with silently-empty fields.
ANALYSIS_VERSION = 4


class Program:
    """Call graph + CFGs + converged summaries for one set of modules."""

    def __init__(self, contexts: Dict[str, ModuleContext],
                 cache_dir: Optional[Path] = None,
                 focus: Optional[Iterable[str]] = None) -> None:
        self.contexts = contexts
        self.graph = CallGraph(contexts)
        self._cfgs: Dict[str, CFG] = {}
        self._lock_index = _LockIndex(self.graph)
        self.summaries: Dict[str, FunctionSummary] = {}
        self.results: Dict[str, FunctionResult] = {}
        self.passes = 0
        self.cache_hit = False
        self.focus = set(focus) if focus is not None else None
        self._focus_scope: Optional[set] = None
        self._effects: Optional[EffectsIndex] = None
        self._solve(cache_dir)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_contexts(cls, contexts: Iterable[ModuleContext],
                      cache_dir: Optional[Path] = None,
                      focus: Optional[Iterable[str]] = None) -> "Program":
        return cls({ctx.relpath: ctx for ctx in contexts},
                   cache_dir=cache_dir, focus=focus)

    @property
    def effects(self) -> EffectsIndex:
        """Lazily-built thread-escape / entry-lock index."""
        if self._effects is None:
            self._effects = EffectsIndex(self.graph, self.summaries,
                                         self._lock_index)
        return self._effects

    def focus_scope(self) -> Optional[set]:
        """Focus modules plus their direct call-graph neighbors.

        ``None`` means no focus was requested — analyze everything.
        """
        if self.focus is None:
            return None
        if self._focus_scope is None:
            scope = set(self.focus)
            # A protocol-spec edit changes what the typestate rules mean
            # for every implementing class: widen the focus to all
            # modules defining a protocol class or origin function.
            if any(module.endswith("analysis/protocols.py")
                   for module in self.focus):
                from repro.analysis.protocols import implementing_modules

                scope |= implementing_modules(self.contexts)
            for func in self.graph.functions.values():
                for site in self.graph.sites_in(func):
                    for target in site.targets:
                        if func.module in scope:
                            scope.add(target.module)
                        if target.module in scope:
                            scope.add(func.module)
            self._focus_scope = scope
        return self._focus_scope

    def cfg(self, func: FunctionInfo) -> CFG:
        cached = self._cfgs.get(func.qualname)
        if cached is None:
            cached = build_cfg(func.node)
            self._cfgs[func.qualname] = cached
        return cached

    def digest(self) -> str:
        """Stable digest of every analyzed source file."""
        hasher = hashlib.sha256()
        hasher.update(f"v{ANALYSIS_VERSION}".encode())
        for relpath in sorted(self.contexts):
            ctx = self.contexts[relpath]
            hasher.update(relpath.encode())
            hasher.update(b"\0")
            hasher.update("\n".join(ctx.lines).encode())
            hasher.update(b"\0")
        return hasher.hexdigest()

    def _solve(self, cache_dir: Optional[Path]) -> None:
        cached = self._load_cache(cache_dir)
        if cached is not None:
            self.summaries = cached
            self.cache_hit = True
        else:
            self._fixpoint()
            self._store_cache(cache_dir)
        # Final evidence sweep with converged summaries.  Under a focus
        # (``lint --changed``) only functions in the focused modules and
        # their call-graph neighbors are re-swept; the converged
        # summaries for everything else are kept as-is so program-wide
        # rules still see a complete picture.
        scope = self.focus_scope()
        for qualname, func in self.graph.functions.items():
            if scope is not None and func.module not in scope:
                continue
            self.results[qualname] = summarize(
                func, self.cfg(func), self.graph, self.summaries,
                lock_index=self._lock_index)
            self.summaries[qualname] = self.results[qualname].summary

    def _fixpoint(self) -> None:
        functions = self.graph.functions
        self.summaries = {
            qualname: FunctionSummary(qualname=qualname)
            for qualname in functions
        }
        for _ in range(_MAX_PASSES):
            self.passes += 1
            changed = False
            for qualname, func in functions.items():
                result = summarize(func, self.cfg(func), self.graph,
                                   self.summaries,
                                   lock_index=self._lock_index)
                if result.summary != self.summaries[qualname]:
                    self.summaries[qualname] = result.summary
                    changed = True
            if not changed:
                break

    # -- summary cache -----------------------------------------------------

    def _cache_path(self, cache_dir: Path) -> Path:
        return cache_dir / f"replint-summaries-{self.digest()[:32]}.json"

    def _load_cache(self,
                    cache_dir: Optional[Path]
                    ) -> Optional[Dict[str, FunctionSummary]]:
        if cache_dir is None:
            return None
        path = self._cache_path(cache_dir)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if payload.get("version") != ANALYSIS_VERSION:
            return None
        entries = payload.get("summaries")
        if not isinstance(entries, list):
            return None
        summaries: Dict[str, FunctionSummary] = {}
        try:
            for entry in entries:
                summary = FunctionSummary.from_dict(entry)
                summaries[summary.qualname] = summary
        except (KeyError, TypeError, ValueError):
            return None
        if set(summaries) != set(self.graph.functions):
            return None
        return summaries

    def _store_cache(self, cache_dir: Optional[Path]) -> None:
        if cache_dir is None:
            return
        try:
            cache_dir.mkdir(parents=True, exist_ok=True)
            payload = {
                "version": ANALYSIS_VERSION,
                "summaries": [
                    self.summaries[qualname].to_dict()
                    for qualname in sorted(self.summaries)
                ],
            }
            self._cache_path(cache_dir).write_text(
                json.dumps(payload, indent=0, sort_keys=True))
        except OSError:
            return  # caching is best-effort

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
