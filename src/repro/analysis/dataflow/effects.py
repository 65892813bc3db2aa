"""Thread-escape and entry-lock-context analysis (RPL020/RPL031 core).

Built entirely from the call graph plus converged function summaries:

* **thread roots** — functions passed as ``threading.Thread(target=...)``;
* **worker region** — everything a root can transitively call.  Resolved
  edges come from the call graph; *unresolved* named sites additionally
  pull in same-module functions with the matching bare name (a closure
  parameter like ``eval_partition`` is opaque to the graph but its
  candidates all live next to the spawner) and receivers typed through
  the lexically *enclosing* function's locals (``board.record()`` inside
  a nested worker body, where ``board`` is the spawner's local);
* **shared classes** — classes reachable from free variables the worker
  closures capture, closed over attribute types, bases and subclasses;
  minus classes the workers construct privately and classes reachable
  from the thread target's own parameters (the per-worker payload);
* **entry lock contexts** — for each worker-region function, the latches
  *always* held when workers enter it (a decreasing must-intersection
  over in-region call sites), seeded at the thread roots with the empty
  set.

RPL020 then asks, per written attribute of a shared class: is the
effective held set (site latches + must-entry context) disjoint from
both the attribute's inferred guard and the owning class's own latches?
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.dataflow.callgraph import (
    EXTERNAL_TYPE, UNRESOLVED, CallGraph, FunctionInfo,
)
from repro.analysis.dataflow.summaries import FunctionSummary, _LockIndex


@dataclass(frozen=True)
class SharedWrite:
    """One write to a worker-shared attribute."""

    func: str                    #: writer qualname
    cls: str                     #: written class qualname
    attr: str
    line: int
    effective: FrozenSet[str]    #: site latches + must-entry context


class EffectsIndex:
    """Worker region, shared classes and entry lock contexts."""

    def __init__(self, graph: CallGraph,
                 summaries: Dict[str, FunctionSummary],
                 lock_index: _LockIndex) -> None:
        self.graph = graph
        self.summaries = summaries
        self.lock_index = lock_index
        self.thread_roots: List[FunctionInfo] = []
        self.payload_classes: Set[str] = set()
        self.worker_region: Set[str] = set()
        self.shared_classes: Set[str] = set()
        self.exempt_classes: Set[str] = set()
        self.entry_must: Dict[str, FrozenSet[str]] = {}
        #: (class qualname, attr) -> worker-region write sites
        self.write_sites: Dict[Tuple[str, str], List[SharedWrite]] = {}
        self._find_roots()
        self._close_region()
        self._compute_entry_contexts()
        self._compute_shared_classes()
        self._collect_write_sites()

    # -- thread roots ------------------------------------------------------

    def _find_roots(self) -> None:
        seen: Set[str] = set()
        for func in self.graph.functions.values():
            for node in ast.walk(func.node):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                name = callee.attr if isinstance(callee, ast.Attribute) \
                    else callee.id if isinstance(callee, ast.Name) else ""
                if name != "Thread":
                    continue
                for kw in node.keywords:
                    if kw.arg == "target":
                        target = self._resolve_target(func, kw.value)
                        if target is not None \
                                and target.qualname not in seen:
                            seen.add(target.qualname)
                            self.thread_roots.append(target)
        for root in self.thread_roots:
            args = root.node.args
            for arg in args.posonlyargs + args.args:
                self.payload_classes.update(
                    t for t in self.graph._annotation_class(
                        root.module, arg.annotation)
                    if t != EXTERNAL_TYPE)

    def _resolve_target(self, spawner: FunctionInfo,
                        expr: ast.expr) -> Optional[FunctionInfo]:
        if isinstance(expr, ast.Name):
            for node in ast.walk(spawner.node):
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)) \
                        and node.name == expr.id \
                        and node is not spawner.node:
                    return self.graph.function_for_node(
                        spawner.module, node)
            entry = self.graph._lookup_scope(spawner.module, expr.id)
            if entry is not None and entry[0] == "func":
                return self.graph.functions.get(entry[1])
        if isinstance(expr, ast.Attribute) \
                and isinstance(expr.value, ast.Name) \
                and expr.value.id == "self" and spawner.cls is not None:
            return self.graph.lookup_method(spawner.cls.qualname,
                                            expr.attr)
        return None

    # -- worker region -----------------------------------------------------

    def _merged_local_types(self,
                            func: FunctionInfo) -> Dict[str, Set[str]]:
        """Local types including the lexically enclosing functions'."""
        ctx = self.graph.contexts[func.module]
        chain: List[ast.AST] = []
        node: ast.AST = func.node
        while True:
            enclosing = ctx.enclosing_function(node)
            if enclosing is None:
                break
            chain.append(enclosing)
            node = enclosing
        merged: Dict[str, Set[str]] = {}
        for enclosing_node in reversed(chain):
            enclosing = self.graph.function_for_node(
                func.module, enclosing_node)
            if enclosing is not None:
                merged.update(self.graph._local_types(enclosing))
        merged.update(self.graph._local_types(func))
        return merged

    def _close_region(self) -> None:
        queue = [r.qualname for r in self.thread_roots]
        region = set(queue)
        while queue:
            qualname = queue.pop()
            func = self.graph.functions.get(qualname)
            if func is None:
                continue
            for site in self.graph.sites_in(func):
                found: List[FunctionInfo] = list(site.targets)
                if not found and site.status == UNRESOLVED and site.name:
                    found = self._unresolved_candidates(func, site)
                for target in found:
                    if target.qualname not in region:
                        region.add(target.qualname)
                        queue.append(target.qualname)
        self.worker_region = region

    def _unresolved_candidates(self, func: FunctionInfo,
                               site) -> List[FunctionInfo]:
        candidates: List[FunctionInfo] = []
        if isinstance(site.call.func, ast.Attribute):
            # Receiver typed through the enclosing closure's locals
            # (``board.record()`` where ``board`` is the spawner's
            # local).  An attribute call whose receiver stays untyped
            # does NOT fall back to name matching — pulling every
            # same-module ``close``/``rollback`` into the worker region
            # would drown the rule in paths workers cannot take.
            merged = self._merged_local_types(func)
            for rtype in sorted(self.graph._receiver_types(
                    func, merged, site.call.func.value)):
                if rtype == EXTERNAL_TYPE:
                    continue
                candidates.extend(
                    t for t in self.graph._override_targets(
                        rtype, site.name)
                    if t not in candidates)
            return candidates
        # Bare-name fallback for Name calls only: a closure-parameter
        # callee (``eval_partition``) is invisible to the call graph,
        # but its candidates all live in the spawning module.
        for other in self.graph.functions.values():
            if other.module == func.module and other.name == site.name \
                    and other.qualname != func.qualname:
                candidates.append(other)
        return candidates

    # -- entry lock contexts -----------------------------------------------

    def _compute_entry_contexts(self) -> None:
        region = self.worker_region
        records: Dict[str, List[Tuple[str, Tuple[str, ...]]]] = {}
        universe: Set[str] = set(
            f"{cls.name}.{attr}"
            for (cls_qual, attr) in self.lock_index.assigned
            for cls in [self.graph.classes[cls_qual]])
        for qualname in region:
            summary = self.summaries.get(qualname)
            if summary is None:
                continue
            universe.update(summary.acquires_locks)
            for callee, held in summary.call_locks:
                universe.update(held)
                if callee in region:
                    records.setdefault(callee, []).append(
                        (qualname, held))
        roots = {r.qualname for r in self.thread_roots}
        # Functions reached through unresolved edges have no call-lock
        # records: assume nothing is held on entry (the safe direction).
        full = frozenset(universe)
        self.entry_must = {
            q: frozenset() if q in roots or q not in records else full
            for q in region
        }
        changed = True
        while changed:
            changed = False
            for qualname in region:
                if qualname in roots or qualname not in records:
                    continue
                must = full
                for caller, held in records[qualname]:
                    must = must & (frozenset(held)
                                   | self.entry_must[caller])
                if must != self.entry_must[qualname]:
                    self.entry_must[qualname] = must
                    changed = True

    # -- shared classes ----------------------------------------------------

    def _class_closure(self, seeds: Set[str],
                       include_bases: bool = False) -> Set[str]:
        closed: Set[str] = set()
        queue = [s for s in seeds if s in self.graph.classes]
        while queue:
            qualname = queue.pop()
            if qualname in closed:
                continue
            closed.add(qualname)
            cls = self.graph.classes.get(qualname)
            if cls is None:
                continue
            for types in cls.attr_types.values():
                queue.extend(t for t in types
                             if t != EXTERNAL_TYPE
                             and t in self.graph.classes)
            queue.extend(cls.subclasses)
            if include_bases:
                queue.extend(self.graph._all_bases(qualname))
        return closed

    def _free_var_classes(self, func: FunctionInfo) -> Set[str]:
        bound: Set[str] = set(func.params)
        loaded: Set[str] = set()
        for node in ast.walk(func.node):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    bound.add(node.id)
                else:
                    loaded.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not func.node:
                    bound.add(node.name)
        merged = self._merged_local_types(func)
        classes: Set[str] = set()
        for name in loaded - bound - {"self"}:
            classes.update(t for t in merged.get(name, ())
                           if t != EXTERNAL_TYPE)
        if func.cls is not None and "self" in loaded:
            classes.add(func.cls.qualname)
        return classes

    def _compute_shared_classes(self) -> None:
        ctx_of = self.graph.contexts
        seeds: Set[str] = set()
        handed: Set[str] = set()
        for root in self.thread_roots:
            captured = self._free_var_classes(root)
            seeds.update(captured)
            node = ctx_of[root.module].enclosing_function(root.node)
            spawner = None if node is None \
                else self.graph.function_for_node(root.module, node)
            summary = None if spawner is None \
                else self.summaries.get(spawner.qualname)
            if summary is not None:
                handed.update(captured.intersection(summary.constructs))
        for qualname in self.worker_region:
            func = self.graph.functions.get(qualname)
            if func is None:
                continue
            if ctx_of[func.module].enclosing_function(func.node) is not None:
                seeds.update(self._free_var_classes(func))
        constructed: Set[str] = set()
        for qualname in self.worker_region:
            summary = self.summaries.get(qualname)
            if summary is not None:
                constructed.update(summary.constructs)
        # What the region constructs is private to the thread that built
        # it — except what a spawner builds and its thread root captures:
        # a spawner that itself runs on a thread (a dispatcher starting
        # partition workers) shares that with the threads it starts.
        self.exempt_classes = (
            self._class_closure(self.payload_classes)
            | (constructed - handed))
        self.shared_classes = self._class_closure(
            seeds, include_bases=True) - self.exempt_classes

    # -- shared write sites ------------------------------------------------

    def _collect_write_sites(self) -> None:
        for qualname in self.worker_region:
            func = self.graph.functions.get(qualname)
            summary = self.summaries.get(qualname)
            if func is None or summary is None \
                    or func.name == "__init__":
                continue
            entry = self.entry_must.get(qualname, frozenset())
            for cls_qual, attr, line, held in summary.attr_writes:
                candidates = {cls_qual}
                # A write in a base-class method counts against every
                # shared subclass too (the instance may be the subclass).
                cls = self.graph.classes.get(cls_qual)
                if cls is not None:
                    candidates.update(cls.subclasses)
                matched = candidates & self.shared_classes
                if not matched:
                    continue
                effective = frozenset(held) | entry
                # Anchor on the defining class so one declaration site
                # yields one finding even with many shared subclasses.
                anchor = cls_qual if cls_qual in matched \
                    else sorted(matched)[0]
                self.write_sites.setdefault((anchor, attr), []).append(
                    SharedWrite(qualname, anchor, attr, line, effective))

    # -- queries -----------------------------------------------------------

    def own_latches(self, cls_qual: str) -> FrozenSet[str]:
        """Latch ids assigned on ``cls_qual`` or its bases."""
        refs = [cls_qual] + self.graph._all_bases(cls_qual)
        out: Set[str] = set()
        for (owner_qual, attr) in self.lock_index.assigned:
            if owner_qual in refs:
                owner = self.graph.classes[owner_qual]
                out.add(f"{owner.name}.{attr}")
        return frozenset(out)

    def inferred_guard(self, key: Tuple[str, str]) -> FrozenSet[str]:
        """Locks held at *every* latched write site of (class, attr)."""
        latched = [w.effective for w in self.write_sites.get(key, ())
                   if w.effective]
        if not latched:
            return frozenset()
        guard = set(latched[0])
        for effective in latched[1:]:
            guard &= effective
        return frozenset(guard)

    def unguarded_writes(self) -> List[SharedWrite]:
        """Write sites whose effective latches miss both the inferred
        guard and the owning class's own latches."""
        flagged: List[SharedWrite] = []
        for key, writes in sorted(self.write_sites.items()):
            own = self.own_latches(key[0])
            guard = self.inferred_guard(key)
            for write in writes:
                if not (write.effective & (guard | own)):
                    flagged.append(write)
        return flagged
