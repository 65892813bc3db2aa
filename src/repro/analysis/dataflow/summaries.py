"""Per-function escape/alias summaries and the analyses that build them.

A :class:`FunctionSummary` is the interprocedural interface of one
function: which parameters it lets escape or applies protocol events
to, whether its return value is a protocol value, which latches it may
acquire and which attributes it writes under which latches.  Summaries
are computed by running the lock analysis below (and the typestate
engine, :mod:`repro.analysis.dataflow.typestate`) with the *callees'*
summaries plugged in, and iterating to a fixpoint over the whole
program (see :mod:`repro.analysis.dataflow.program`).  All summary
domains are finite sets that only ever grow, so the fixpoint
terminates.

Each run also yields the per-function *evidence* (lock-order edges,
protocol leaks and violations, stale check-then-act writes); the
program rules report the evidence of each function's last run, which
saw its callees' final summaries.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.dataflow.callgraph import (
    EXTERNAL_TYPE, CallGraph, CallSite, FunctionInfo, RESOLVED, UNRESOLVED,
)
from repro.analysis.dataflow.cfg import CFG, CFGNode, exec_parts
from repro.analysis.dataflow.lattice import ForwardAnalysis, solve

# -- domain knowledge: the lock vocabulary of this codebase -----------------

#: external container methods that take ownership of their argument
CONTAINER_STORE_ATTRS = {"append", "add", "appendleft", "push", "put",
                         "put_nowait", "setdefault", "extend"}

#: attribute names that look like latches
LOCKISH_ATTRS = {"_latch", "latch", "_lock", "lock", "_mutex", "mutex"}

#: container methods that mutate their receiver: ``x.attr.pop(k)`` is a
#: write to ``x.attr`` as much as ``x.attr[k] = v`` is
MUTATING_METHODS = {
    "pop", "popitem", "append", "extend", "insert", "remove", "add",
    "discard", "clear", "update", "setdefault",
}


@dataclass
class FunctionSummary:
    """The caller-visible dataflow facts of one function."""

    qualname: str
    #: params (by index) stored, returned, yielded, captured or handed to
    #: code the analysis cannot see — produced by the typestate engine
    escape_params: FrozenSet[int] = frozenset()
    acquires_locks: FrozenSet[str] = frozenset()
    #: (class qualname, attr, line, latches held) per attribute write
    attr_writes: FrozenSet[Tuple[str, str, int, Tuple[str, ...]]] = frozenset()
    #: (callee qualname, latches held) per resolved call site
    call_locks: FrozenSet[Tuple[str, Tuple[str, ...]]] = frozenset()
    #: program classes constructed in this function
    constructs: FrozenSet[str] = frozenset()
    #: protocol events applied to parameters: (param idx, protocol,
    #: event name) — the typestate entry transformer callers replay
    protocol_ops: FrozenSet[Tuple[int, str, str]] = frozenset()
    #: (protocol, state) of the returned value — the exit transformer
    protocol_returns: Optional[Tuple[str, str]] = None


# -- evidence records -------------------------------------------------------

@dataclass(frozen=True)
class LockEdge:
    held: str
    acquired: str
    func: str
    line: int


@dataclass(frozen=True)
class ProtocolViolation:
    line: int
    protocol: str       #: spec name ("txn", "retro", ...)
    event: str          #: the event fired in a violation state
    state: str          #: the (definite) state the subject was in
    what: str           #: human display of the subject / origin
    kind: str           #: spec kind noun ("transaction", ...)


@dataclass(frozen=True)
class ProtocolLeak:
    line: int
    protocol: str
    kind: str
    what: str
    exceptional: bool   #: left incomplete on an exception path


@dataclass(frozen=True)
class StaleWrite:
    line: int
    name: str           #: the local holding the stale latched read
    latch: str          #: the latch released between read and write
    cls: str            #: owning class of the attribute
    attr: str
    read_line: int


@dataclass(frozen=True)
class ThreadEscape:
    line: int
    protocol: str
    kind: str
    what: str


@dataclass
class FunctionResult:
    """Summary + evidence for one function at the current fixpoint."""

    summary: FunctionSummary
    lock_edges: List[LockEdge] = field(default_factory=list)
    protocol_violations: List[ProtocolViolation] = field(default_factory=list)
    protocol_leaks: List[ProtocolLeak] = field(default_factory=list)
    stale_writes: List[StaleWrite] = field(default_factory=list)
    thread_escapes: List[ThreadEscape] = field(default_factory=list)


# -- shared helpers ---------------------------------------------------------

def _call_name(call: ast.Call) -> str:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return "<computed>"


def _receiver_hint(call: ast.Call) -> Optional[str]:
    """Trailing receiver name of an attribute call (``self.pool`` -> pool)."""
    if not isinstance(call.func, ast.Attribute):
        return None
    value = call.func.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return None


def _display(call: ast.Call) -> str:
    recv = _receiver_hint(call)
    name = _call_name(call)
    return f"{recv}.{name}(...)" if recv else f"{name}(...)"


def _arg_offset(site: CallSite, target: FunctionInfo) -> int:
    """Positional-arg -> parameter index offset (bound methods skip self)."""
    if target.cls is not None and isinstance(site.call.func, ast.Attribute):
        return 1
    return 0


def _known_none(test: ast.expr, polarity: bool) -> Optional[str]:
    """The name proven None/falsy on the ``polarity`` branch of ``test``.

    Recognizes ``x is None`` / ``x is not None`` / ``x`` / ``not x``.
    """
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _known_none(test.operand, not polarity)
    if isinstance(test, ast.Name):
        return test.id if not polarity else None
    if isinstance(test, ast.Compare) and len(test.ops) == 1 \
            and isinstance(test.left, ast.Name) \
            and isinstance(test.comparators[0], ast.Constant) \
            and test.comparators[0].value is None:
        if isinstance(test.ops[0], ast.Is):
            return test.left.id if polarity else None
        if isinstance(test.ops[0], ast.IsNot):
            return test.left.id if not polarity else None
    return None


def _stmt_calls(node: CFGNode) -> Tuple[ast.Call, ...]:
    """The calls ``node`` executes, walked once per node and kept on it
    (every re-visit of the function in the summary solve asks again)."""
    # Post-order = Python evaluation order: arguments run before the
    # enclosing call, so ``out.append(engine.begin())`` registers the
    # begin site before append decides the value escaped into ``out``.
    if node.calls is None:
        calls: List[ast.Call] = []

        def visit(sub: ast.AST) -> None:
            for child in ast.iter_child_nodes(sub):
                visit(child)
            if isinstance(sub, ast.Call):
                calls.append(sub)

        if node.stmt is not None:
            for part in exec_parts(node.stmt):
                visit(part)
        node.calls = tuple(calls)
    return node.calls


class _Oracle:
    """Answers "what does this call do?" from the call graph + summaries."""

    def __init__(self, graph: CallGraph,
                 summaries: Dict[str, FunctionSummary]) -> None:
        self.graph = graph
        self.summaries = summaries

    def site(self, call: ast.Call) -> Optional[CallSite]:
        return self.graph.site_for(call)

    def target_summaries(
            self, call: ast.Call) -> List[Tuple[CallSite, FunctionSummary]]:
        site = self.site(call)
        if site is None:
            return []
        out = []
        for target in site.targets:
            summary = self.summaries.get(target.qualname)
            if summary is not None:
                out.append((site, summary))
        return out

    def is_unresolved(self, call: ast.Call) -> bool:
        site = self.site(call)
        return site is not None and site.status == UNRESOLVED


# -- lock order (RPL011 core) -----------------------------------------------

class _LockIndex:
    """Which attributes of which classes are latches."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.assigned: Set[Tuple[str, str]] = set()  # (class qual, attr)
        for func in graph.functions.values():
            if func.cls is None:
                continue
            for node in ast.walk(func.node):
                if isinstance(node, ast.Assign) and self._is_lock_ctor(
                        node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Attribute) \
                                and isinstance(target.value, ast.Name) \
                                and target.value.id == "self":
                            self.assigned.add(
                                (func.cls.qualname, target.attr))

    @staticmethod
    def _is_lock_ctor(expr: ast.expr) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        callee = expr.func
        name = callee.attr if isinstance(callee, ast.Attribute) \
            else callee.id if isinstance(callee, ast.Name) else ""
        return name in {"Lock", "RLock", "Condition", "Semaphore"}

    def lock_id(self, func: FunctionInfo,
                local_types: Dict[str, Set[str]],
                expr: ast.expr) -> Optional[str]:
        """Stable identity of a latch expression, or None."""
        if not isinstance(expr, ast.Attribute):
            return None
        receiver_types = self.graph._receiver_types(
            func, local_types, expr.value)
        for rtype in sorted(receiver_types):
            if rtype == EXTERNAL_TYPE:
                continue
            lockish = expr.attr in LOCKISH_ATTRS \
                or (rtype, expr.attr) in self.assigned
            if lockish:
                cls = self.graph.classes.get(rtype)
                owner = cls.name if cls is not None else rtype
                return f"{owner}.{expr.attr}"
        return None


class LockAnalysis(ForwardAnalysis[FrozenSet[str]]):
    """Held-latch sets; emits ordering edges at every acquisition."""

    def __init__(self, func: FunctionInfo, oracle: _Oracle,
                 locks: _LockIndex) -> None:
        self.func = func
        self.oracle = oracle
        self.locks = locks
        self.local_types = oracle.graph._local_types(func)
        self.acquired: Set[str] = set()
        self.edges: Set[LockEdge] = set()
        #: (class qualname, attr, line, held) per attribute write
        self.attr_writes: Set[Tuple[str, str, int, Tuple[str, ...]]] = set()
        #: (callee qualname, held) per resolved call site
        self.call_locks: Set[Tuple[str, Tuple[str, ...]]] = set()
        #: program classes constructed here
        self.constructs: Set[str] = set()

    def initial(self, cfg: CFG) -> FrozenSet[str]:
        return frozenset()

    def bottom(self) -> FrozenSet[str]:
        return frozenset()

    def join(self, a: FrozenSet[str], b: FrozenSet[str]) -> FrozenSet[str]:
        return a | b

    def _lexical(self, node: CFGNode) -> FrozenSet[str]:
        held: Set[str] = set()
        for stmt in node.with_stack:
            for item in stmt.items:
                lock = self.locks.lock_id(self.func, self.local_types,
                                          item.context_expr)
                if lock is not None:
                    held.add(lock)
        return frozenset(held)

    def _record(self, held: FrozenSet[str], acquired: str,
                line: int) -> None:
        self.acquired.add(acquired)
        for lock in held:
            if lock != acquired:
                self.edges.add(LockEdge(lock, acquired,
                                        self.func.qualname, line))

    def transfer(self, node: CFGNode,
                 state: FrozenSet[str]) -> FrozenSet[str]:
        held = state | self._lexical(node)
        stmt = node.stmt

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                lock = self.locks.lock_id(self.func, self.local_types,
                                          item.context_expr)
                if lock is not None:
                    self._record(held, lock, stmt.lineno)
                    held = held | {lock}
            return state  # body nodes see it via with_stack

        for call in _stmt_calls(node):
            name = _call_name(call)
            if isinstance(call.func, ast.Attribute) \
                    and name in {"acquire", "release"}:
                lock = self.locks.lock_id(self.func, self.local_types,
                                          call.func.value)
                if lock is not None:
                    if name == "acquire":
                        self._record(held, lock, call.lineno)
                        state = state | {lock}
                        held = held | {lock}
                    else:
                        state = state - {lock}
                        held = held - {lock}
                    continue
            self._record_call_facts(call, held)
            for _site, summary in self.oracle.target_summaries(call):
                for inner in sorted(summary.acquires_locks):
                    self._record(held, inner, call.lineno)

        self._record_attr_writes(node, held)
        return state

    # -- effect recording (feeds RPL020/RPL031 via the summaries) ----------

    def _record_call_facts(self, call: ast.Call,
                           held: FrozenSet[str]) -> None:
        held_t = tuple(sorted(held))
        site = self.oracle.site(call)
        if site is not None and site.status == RESOLVED:
            for target in site.targets:
                self.call_locks.add((target.qualname, held_t))
        for cls_qual in self.oracle.graph._expr_class(self.func, call):
            if cls_qual != EXTERNAL_TYPE:
                self.constructs.add(cls_qual)

    def _record_attr_writes(self, node: CFGNode,
                            held: FrozenSet[str]) -> None:
        stmt = node.stmt
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        targets.extend(call.func.value for call in _stmt_calls(node)
                       if isinstance(call.func, ast.Attribute)
                       and call.func.attr in MUTATING_METHODS)
        held_t = tuple(sorted(held))
        stack = targets
        while stack:
            target = stack.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                stack.extend(target.elts)
                continue
            # x.attr = v, x.attr[k] = v and x.attr.pop(k) are all
            # writes to x.attr
            if isinstance(target, ast.Subscript):
                target = target.value
            if not isinstance(target, ast.Attribute):
                continue
            if target.attr in LOCKISH_ATTRS:
                continue
            for rtype in self.oracle.graph._receiver_types(
                    self.func, self.local_types, target.value):
                if rtype == EXTERNAL_TYPE:
                    continue
                self.attr_writes.add(
                    (rtype, target.attr, stmt.lineno, held_t))


# -- one-function summarization ---------------------------------------------

def summarize(func: FunctionInfo, cfg: CFG, graph: CallGraph,
              summaries: Dict[str, FunctionSummary],
              lock_index: Optional[_LockIndex] = None) -> FunctionResult:
    """Run all the per-function analyses with callee summaries."""
    # Imported here (not at module level): typestate.py builds on this
    # module's helpers, so the import must run after it is fully loaded.
    from repro.analysis.dataflow.typestate import (
        AtomicityAnalysis, TypestateAnalysis,
    )

    oracle = _Oracle(graph, summaries)
    locks_idx = lock_index or _LockIndex(graph)

    locks = LockAnalysis(func, oracle, locks_idx)
    solve(cfg, locks)

    typestate = TypestateAnalysis(func, oracle)
    ts_states = solve(cfg, typestate)
    typestate.replay(cfg, ts_states)
    protocol_leaks = typestate.leaks(cfg, ts_states)

    atomicity = AtomicityAnalysis(func, oracle, locks_idx)
    at_states = solve(cfg, atomicity)
    atomicity.replay(cfg, at_states)

    summary = FunctionSummary(
        qualname=func.qualname,
        escape_params=frozenset(typestate.escape_params),
        acquires_locks=frozenset(locks.acquired),
        attr_writes=frozenset(locks.attr_writes),
        call_locks=frozenset(locks.call_locks),
        constructs=frozenset(locks.constructs),
        protocol_ops=frozenset(typestate.protocol_ops),
        protocol_returns=typestate.protocol_returns,
    )
    return FunctionResult(
        summary=summary,
        lock_edges=sorted(locks.edges,
                          key=lambda e: (e.func, e.line, e.acquired)),
        protocol_violations=sorted(
            typestate.violations,
            key=lambda v: (v.line, v.protocol, v.event)),
        protocol_leaks=protocol_leaks,
        stale_writes=sorted(
            atomicity.stale_writes,
            key=lambda w: (w.line, w.name, w.attr)),
        thread_escapes=sorted(
            typestate.thread_escapes,
            key=lambda t: (t.line, t.protocol)),
    )
