"""Per-function escape/alias summaries and the analyses that build them.

A :class:`FunctionSummary` is the interprocedural interface of one
function: which parameters it lets escape or applies protocol events
to, whether its return value is a protocol value or snapshot-tainted
data, which latches it may acquire.  Summaries are computed by running
the intraprocedural analyses below (and the typestate engine,
:mod:`repro.analysis.dataflow.typestate`) with the *callees'* summaries
plugged in, and iterating to a fixpoint over the whole program (see
:mod:`repro.analysis.dataflow.program`).  All summary domains are
finite sets that only ever grow, so the fixpoint terminates.

Each run also yields the per-function *evidence* (lock-order edges,
taint flows, protocol leaks and violations); the program rules report
the evidence of each function's last run, which saw its callees' final
summaries.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.dataflow.callgraph import (
    EXTERNAL_TYPE, CallGraph, CallSite, FunctionInfo, RESOLVED, UNRESOLVED,
)
from repro.analysis.dataflow.cfg import CFG, CFGNode, exec_parts
from repro.analysis.dataflow.lattice import ForwardAnalysis, solve

# -- domain knowledge: the lock & durability vocabulary of this codebase ----

#: external container methods that take ownership of their argument
CONTAINER_STORE_ATTRS = {"append", "add", "appendleft", "push", "put",
                         "put_nowait", "setdefault", "extend"}

#: attribute names that look like latches
LOCKISH_ATTRS = {"_latch", "latch", "_lock", "lock", "_mutex", "mutex"}

#: attribute-call names that block the calling thread (RPL021); ``is_set``
#: is the cancel-protocol poll — cheap, but holding a latch across it
#: couples the latch to the cancellation handshake
BLOCKING_ATTRS = {"join", "wait", "is_set"}

#: receiver names that mark a call as thread/event machinery (so that
#: ``", ".join(cols)`` and dict ``.wait`` lookalikes stay out of scope)
BLOCKING_RECEIVER_HINTS = {
    "thread", "threads", "t", "worker", "workers", "cancel", "event",
    "_event", "evt", "done", "stop", "cond", "_cond", "condition",
    "barrier", "ready",
}

#: threading constructors whose locals become blocking-capable receivers
_THREADING_CTORS = {"Thread", "Event", "Condition", "Barrier"}

#: container methods that mutate their receiver in place (RPL023)
MUTATING_ATTRS = CONTAINER_STORE_ATTRS | {
    "update", "pop", "popitem", "clear", "insert", "sort", "remove",
    "discard",
}

#: raw durable-write APIs on storage surfaces (RPL022)
DURABLE_WRITE_APIS = {"append", "write", "truncate", "seek"}

#: classes whose ``self._file`` is a checksummed durable surface
DURABLE_SELF_FILE_CLASSES = {"BlockLogWriter", "WriteAheadLog", "Maplog",
                             "Pagelog"}

#: classes whose ``self._meta_file`` is the dual-slot checksummed meta
DURABLE_META_CLASSES = {"Pager"}

#: bare variable names treated as durable surfaces at call sites
DURABLE_NAME_HINTS = {"log_file", "wal_file", "maplog_file", "meta_file"}

#: surfaces whose *appends* are raw page images by design: Pagelog slot
#: CRCs live in the Maplog entries that reference them, not in trailers
RAW_IMAGE_SURFACES = {("Pagelog", "_file")}

#: classes that may truncate their own surface (torn-tail repair)
TRUNCATE_EXEMPT_CLASSES = {"BlockLogWriter", "BlockLogReader"}

#: modules below the checksum boundary: the device model itself and the
#: fault injector that corrupts bytes on purpose
DURABILITY_EXEMPT_MODULES = ("storage/disk.py", "storage/chaosdisk.py")

#: functions that wrap payloads in checksummed trailers
SEALER_NAMES = {"seal_block"}

#: crc helpers: a function that computes a page crc and returns a value
#: is building a checksummed image (``Pager._encode_meta``)
CRC_HELPER_NAMES = {"page_crc"}

#: snapshot-taint sources: method names and constructed class names
TAINT_SOURCE_ATTRS = {"snapshot_source"}
TAINT_SOURCE_CLASSES = {"SnapshotPageSource"}

#: current-database mutation sinks (attribute-call names)
TAINT_SINK_ATTRS = {"install", "put_raw", "make_writable", "mark_dirty",
                    "log_commit"}


@dataclass
class FunctionSummary:
    """The caller-visible dataflow facts of one function."""

    qualname: str
    #: params (by index) stored, returned, yielded, captured or handed to
    #: code the analysis cannot see — produced by the typestate engine
    escape_params: FrozenSet[int] = frozenset()
    returns_taint: bool = False
    sink_params: FrozenSet[int] = frozenset()
    acquires_locks: FrozenSet[str] = frozenset()
    #: (class qualname, attr, line, latches held) per attribute write
    attr_writes: FrozenSet[Tuple[str, str, int, Tuple[str, ...]]] = frozenset()
    #: (display, line, latches held) per blocking join/wait/is_set call
    blocking_calls: FrozenSet[Tuple[str, int, Tuple[str, ...]]] = frozenset()
    #: (callee qualname, latches held) per resolved call site
    call_locks: FrozenSet[Tuple[str, Tuple[str, ...]]] = frozenset()
    #: program classes constructed in this function
    constructs: FrozenSet[str] = frozenset()
    #: params appended/written raw to a durable surface by this function
    durable_sink_params: FrozenSet[int] = frozenset()
    #: the return value carries a checksummed trailer / crc field
    returns_sealed: bool = False
    #: params (by index) this function mutates in place
    mutates_params: FrozenSet[int] = frozenset()
    #: root-cause descriptions of non-parameter state this function
    #: mutates (propagated verbatim through callers: the set is finite,
    #: so the fixpoint still terminates)
    impure_effects: FrozenSet[str] = frozenset()
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
class TaintHit:
    line: int
    source: str         #: where the snapshot-scoped value came from
    sink: str           #: the mutation entry point it reached


@dataclass(frozen=True)
class RawDurableWrite:
    line: int
    surface: str        #: e.g. "WriteAheadLog._file"
    api: str            #: append / write / truncate / seek
    detail: str         #: human-readable call display


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
    taint_hits: List[TaintHit] = field(default_factory=list)
    raw_durable_writes: List[RawDurableWrite] = field(default_factory=list)
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
        #: (display, line, held) per blocking call
        self.blocking: Set[Tuple[str, int, Tuple[str, ...]]] = set()
        #: (callee qualname, held) per resolved call site
        self.call_locks: Set[Tuple[str, Tuple[str, ...]]] = set()
        #: program classes constructed here
        self.constructs: Set[str] = set()
        self._thread_locals = self._scan_thread_locals()

    def _scan_thread_locals(self) -> Set[str]:
        """Local names bound to ``threading.Thread/Event/...`` objects."""
        names: Set[str] = set()
        for node in ast.walk(self.func.node):
            if isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Call):
                ctor = _call_name(node.value)
                if ctor in _THREADING_CTORS:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
        return names

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

    # -- effect recording (feeds RPL020/RPL021 via the summaries) ----------

    def _record_call_facts(self, call: ast.Call,
                           held: FrozenSet[str]) -> None:
        held_t = tuple(sorted(held))
        name = _call_name(call)
        if name in BLOCKING_ATTRS and isinstance(call.func, ast.Attribute):
            hint = _receiver_hint(call)
            if (hint is not None and hint.lstrip("_") in
                    BLOCKING_RECEIVER_HINTS) \
                    or hint in BLOCKING_RECEIVER_HINTS \
                    or hint in self._thread_locals:
                self.blocking.add((_display(call), call.lineno, held_t))
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
        held_t = tuple(sorted(held))
        stack = targets
        while stack:
            target = stack.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                stack.extend(target.elts)
                continue
            # x.attr = v  and  x.attr[k] = v  are both writes to x.attr
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


# -- snapshot-epoch taint (RPL012 core) -------------------------------------

class _TaintState:
    __slots__ = ("tainted",)

    def __init__(self, tainted: FrozenSet[str]) -> None:
        self.tainted = tainted

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _TaintState) \
            and self.tainted == other.tainted


class TaintAnalysis(ForwardAnalysis[_TaintState]):
    """Snapshot-scoped values must never reach a mutation sink.

    Propagation is deliberately narrow — name copies, attribute reads,
    ``bytes``/``bytearray`` conversion, ``.fetch()`` on a tainted
    page source, and callees summarized as ``returns_taint`` — so the
    legitimate snapshot-read -> result-table flow of retrospective
    queries stays clean while raw snapshot bytes reaching ``install``/
    ``put_raw``/``log_commit`` are flagged.
    """

    def __init__(self, func: FunctionInfo, oracle: _Oracle,
                 tainted_params: FrozenSet[int] = frozenset()) -> None:
        self.func = func
        self.oracle = oracle
        self.tainted_params = tainted_params
        self.hits: Set[TaintHit] = set()
        self.returns_taint = False
        self.sink_params: Set[int] = set()
        self.source_desc: Dict[str, str] = {}

    def initial(self, cfg: CFG) -> _TaintState:
        names = []
        for index, name in enumerate(self.func.params):
            if index in self.tainted_params:
                names.append(name)
                self.source_desc.setdefault(
                    name, f"parameter '{name}'")
        return _TaintState(frozenset(names))

    def bottom(self) -> _TaintState:
        return _TaintState(frozenset())

    def join(self, a: _TaintState, b: _TaintState) -> _TaintState:
        return _TaintState(a.tainted | b.tainted)

    # - expression taint -

    def _expr_tainted(self, state: _TaintState,
                      expr: ast.expr) -> Optional[str]:
        """A human description of the taint source, or None if clean."""
        if isinstance(expr, ast.Name):
            if expr.id in state.tainted:
                return self.source_desc.get(expr.id, f"'{expr.id}'")
            return None
        if isinstance(expr, (ast.Attribute, ast.Subscript, ast.Starred)):
            return self._expr_tainted(state, expr.value)
        if isinstance(expr, ast.Call):
            name = _call_name(expr)
            if name in {"bytes", "bytearray", "memoryview"}:
                for arg in expr.args:
                    desc = self._expr_tainted(state, arg)
                    if desc is not None:
                        return desc
                return None
            if name in TAINT_SOURCE_ATTRS or name in TAINT_SOURCE_CLASSES:
                return f"{_display(expr)} (line {expr.lineno})"
            if name == "fetch" and isinstance(expr.func, ast.Attribute):
                return self._expr_tainted(state, expr.func.value)
            for _site, summary in self.oracle.target_summaries(expr):
                if summary.returns_taint:
                    return f"{_display(expr)} (line {expr.lineno})"
            return None
        return None

    # - transfer -

    def transfer(self, node: CFGNode, state: _TaintState) -> _TaintState:
        tainted = set(state.tainted)
        stmt = node.stmt

        for call in _stmt_calls(node):
            self._check_sinks(state, call)

        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            name = stmt.targets[0].id
            desc = self._expr_tainted(state, stmt.value)
            if desc is not None:
                tainted.add(name)
                self.source_desc.setdefault(name, desc)
            else:
                tainted.discard(name)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if isinstance(item.optional_vars, ast.Name):
                    desc = self._expr_tainted(state, item.context_expr)
                    if desc is not None:
                        tainted.add(item.optional_vars.id)
                        self.source_desc.setdefault(
                            item.optional_vars.id, desc)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            if self._expr_tainted(state, stmt.value) is not None:
                self.returns_taint = True

        return _TaintState(frozenset(tainted))

    def _check_sinks(self, state: _TaintState, call: ast.Call) -> None:
        name = _call_name(call)
        if name in TAINT_SINK_ATTRS and isinstance(call.func, ast.Attribute):
            for arg in list(call.args) + [k.value for k in call.keywords]:
                desc = self._expr_tainted(state, arg)
                if desc is not None:
                    self._hit(call, desc, f"{_display(call)}")
                    break
            # make_writable/mark_dirty taint via the receiver too:
            # mutating a snapshot-scoped page source is itself the bug.
            if name in {"make_writable", "mark_dirty"}:
                desc = self._expr_tainted(state, call.func.value)
                if desc is not None:
                    self._hit(call, desc, f"{_display(call)}")
        for site_summary in self.oracle.target_summaries(call):
            site, summary = site_summary
            if not summary.sink_params:
                continue
            for target in site.targets:
                offset = _arg_offset(site, target)
                for position, arg in enumerate(call.args):
                    if position + offset in summary.sink_params:
                        desc = self._expr_tainted(state, arg)
                        if desc is not None:
                            self._hit(call, desc, _display(call))
                break

    def _hit(self, call: ast.Call, source: str, sink: str) -> None:
        self.hits.add(TaintHit(call.lineno, source, sink))


# -- durability effects (RPL022 core) ---------------------------------------

class DurabilityScan:
    """Classifies raw writes against the checksummed-surface contract.

    A *durable surface* is a file underlying one of the checksummed
    storage formats: ``self._file`` inside the block-log / WAL / Maplog
    / Pagelog classes, ``self._meta_file`` inside the Pager, or a bare
    name that spells out a log/meta file.  Writing to one is only legal
    when the payload is *sealed* — produced by ``checksums.seal_block``
    (directly, through a local, or through a callee whose summary says
    it returns a sealed image).  Class matching is syntactic (the
    enclosing class's name) so single-module fixtures and mutants are
    analyzable without resolving imports.
    """

    def __init__(self, func: FunctionInfo, oracle: _Oracle) -> None:
        self.func = func
        self.oracle = oracle
        self.raw_writes: List[RawDurableWrite] = []
        self.sink_params: Set[int] = set()
        self.returns_sealed = False
        self._params = {name: i for i, name in enumerate(func.params)}
        self._sealed_locals: Set[str] = set()

    def run(self) -> None:
        ctx = self.oracle.graph.contexts[self.func.module]
        nodes = [n for n in ast.walk(self.func.node)
                 if ctx.enclosing_function(n) is self.func.node
                 or n is self.func.node]
        self._collect_sealed_locals(nodes)
        calls_crc = False
        for node in nodes:
            if isinstance(node, ast.Call):
                if _call_name(node) in SEALER_NAMES | CRC_HELPER_NAMES:
                    calls_crc = True
                self._check_call(node)
            elif isinstance(node, ast.Return) and node.value is not None:
                if self._sealed(node.value):
                    self.returns_sealed = True
        if calls_crc and any(
                isinstance(n, ast.Return) and n.value is not None
                for n in nodes):
            # Builds a crc into an image it returns (Pager._encode_meta).
            self.returns_sealed = True

    def _collect_sealed_locals(self, nodes: Sequence[ast.AST]) -> None:
        # Two passes: sealed-ness flows through simple name copies.
        for _ in range(2):
            for node in nodes:
                if isinstance(node, ast.Assign) and self._sealed(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self._sealed_locals.add(target.id)

    def _sealed(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in self._sealed_locals
        if isinstance(expr, ast.Call):
            if _call_name(expr) in SEALER_NAMES:
                return True
            for _site, summary in self.oracle.target_summaries(expr):
                if summary.returns_sealed:
                    return True
        return False

    def _surface(self, call: ast.Call) -> Optional[str]:
        assert isinstance(call.func, ast.Attribute)
        recv = call.func.value
        cls_name = self.func.cls.name if self.func.cls is not None else ""
        if isinstance(recv, ast.Attribute) \
                and isinstance(recv.value, ast.Name) \
                and recv.value.id == "self":
            if recv.attr == "_file" and cls_name in DURABLE_SELF_FILE_CLASSES:
                return f"{cls_name}._file"
            if recv.attr == "_meta_file" and cls_name in DURABLE_META_CLASSES:
                return f"{cls_name}._meta_file"
        if isinstance(recv, ast.Name) and recv.id in DURABLE_NAME_HINTS:
            return recv.id
        return None

    def _check_call(self, call: ast.Call) -> None:
        if self.func.module.endswith(DURABILITY_EXEMPT_MODULES):
            return
        if not isinstance(call.func, ast.Attribute):
            return
        api = call.func.attr
        if api in DURABLE_WRITE_APIS:
            surface = self._surface(call)
            if surface is not None:
                self._check_surface_write(call, api, surface)
        # Caller side of the cross-function contract: passing an
        # unsealed value into a callee that appends it raw.
        for site, summary in self.oracle.target_summaries(call):
            if not summary.durable_sink_params:
                continue
            for target in site.targets:
                offset = _arg_offset(site, target)
                for position, arg in enumerate(call.args):
                    if position + offset not in summary.durable_sink_params:
                        continue
                    if self._sealed(arg):
                        continue
                    if isinstance(arg, ast.Name) and arg.id in self._params:
                        self.sink_params.add(self._params[arg.id])
                        continue
                    self.raw_writes.append(RawDurableWrite(
                        call.lineno, f"via {target.qualname}", "append",
                        _display(call)))
                break

    def _check_surface_write(self, call: ast.Call, api: str,
                             surface: str) -> None:
        cls_name = self.func.cls.name if self.func.cls is not None else ""
        if api == "truncate":
            if cls_name in TRUNCATE_EXEMPT_CLASSES:
                return
            if not call.args:
                return
            arg = call.args[0]
            if isinstance(arg, ast.Constant) and arg.value == 0:
                return  # truncate-to-empty: the torn-bootstrap reset
            self.raw_writes.append(RawDurableWrite(
                call.lineno, surface, api, _display(call)))
            return
        if api == "seek":
            self.raw_writes.append(RawDurableWrite(
                call.lineno, surface, api, _display(call)))
            return
        # append(raw) / write(slot, raw): the payload is the last arg
        if (cls_name, "_file") in RAW_IMAGE_SURFACES \
                and surface.endswith("._file") and api == "append":
            return
        if not call.args:
            return
        payload = call.args[-1]
        if self._sealed(payload):
            return
        if isinstance(payload, ast.Name) and payload.id in self._params:
            self.sink_params.add(self._params[payload.id])
            return
        self.raw_writes.append(RawDurableWrite(
            call.lineno, surface, api, _display(call)))


# -- merge purity (RPL023 core) ---------------------------------------------

class PurityScan:
    """Which parameters / non-local state does this function mutate?

    ``mutates_params`` uses parameter indices and is translated at call
    sites (receiver -> callee param 0, positionals shifted for bound
    methods).  Mutations of program-class state reached through ``self``
    attributes become ``impure_effects`` strings, propagated verbatim
    through callers — merge functions registered with the parallel
    executor must keep that set empty.
    """

    def __init__(self, func: FunctionInfo, oracle: _Oracle) -> None:
        self.func = func
        self.oracle = oracle
        self.mutates: Set[int] = set()
        self.effects: Set[str] = set()
        self._params = {name: i for i, name in enumerate(func.params)}

    def run(self) -> None:
        ctx = self.oracle.graph.contexts[self.func.module]
        nodes = [n for n in ast.walk(self.func.node)
                 if ctx.enclosing_function(n) is self.func.node]
        for node in nodes:
            if isinstance(node, ast.Global):
                for name in node.names:
                    self.effects.add(f"writes global '{name}'")
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    self._classify_store(target)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                self._classify_store(node.target)
            elif isinstance(node, ast.Call):
                self._classify_call(node)

    # - store classification -

    def _root_chain(self, expr: ast.expr
                    ) -> Tuple[Optional[str], List[str]]:
        """Root Name id + attribute chain of a store target/receiver."""
        chain: List[str] = []
        current = expr
        while True:
            if isinstance(current, ast.Attribute):
                chain.append(current.attr)
                current = current.value
            elif isinstance(current, ast.Subscript):
                current = current.value
            else:
                break
        if isinstance(current, ast.Name):
            return current.id, list(reversed(chain))
        return None, []

    def _note_mutation(self, root: Optional[str], chain: List[str],
                       store: bool) -> None:
        """A store through ``root(.chain)`` or a mutating call on it.

        ``store=True`` marks an assignment target (``x.a = v`` mutates
        x); a mutating *call* receiver needs no trailing attr.
        """
        if root is None:
            return
        if root == "self" and self.func.cls is not None:
            depth = len(chain) - (1 if store else 0)
            if depth <= 0:
                self.mutates.add(0)
                return
            # Mutating an object held in a self attribute: impure when
            # that attribute holds program-class state.
            attr = chain[0]
            types = self._attr_types(attr)
            program = sorted(
                self.oracle.graph.classes[t].name
                for t in types
                if t != EXTERNAL_TYPE and t in self.oracle.graph.classes)
            if program:
                owner = self.func.cls.name
                self.effects.add(
                    f"mutates {program[0]} state via "
                    f"{owner}.{attr}")
            else:
                self.mutates.add(0)
            return
        if root in self._params:
            self.mutates.add(self._params[root])

    def _attr_types(self, attr: str) -> Set[str]:
        graph = self.oracle.graph
        cls = self.func.cls
        if cls is None:
            return set()
        for ref in [cls.qualname] + graph._all_bases(cls.qualname):
            owner = graph.classes.get(ref)
            if owner is not None and attr in owner.attr_types:
                return set(owner.attr_types[attr])
        return set()

    def _classify_store(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._classify_store(element)
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            root, chain = self._root_chain(target)
            self._note_mutation(root, chain, store=True)

    # - call classification -

    def _classify_call(self, call: ast.Call) -> None:
        name = _call_name(call)
        if name in MUTATING_ATTRS and isinstance(call.func, ast.Attribute):
            site = self.oracle.site(call)
            if site is None or not site.targets:
                root, chain = self._root_chain(call.func.value)
                self._note_mutation(root, chain, store=False)
        for site, summary in self.oracle.target_summaries(call):
            for effect in summary.impure_effects:
                self.effects.add(effect)
            if not summary.mutates_params:
                continue
            for target in site.targets:
                offset = _arg_offset(site, target)
                for param in summary.mutates_params:
                    if param == 0 and offset == 1:
                        arg: Optional[ast.expr] = call.func.value \
                            if isinstance(call.func, ast.Attribute) else None
                    else:
                        position = param - offset
                        arg = call.args[position] \
                            if 0 <= position < len(call.args) else None
                    if arg is None:
                        continue
                    root, chain = self._root_chain(arg)
                    self._note_mutation(root, chain, store=False)
                break


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

    # Taint pass 1: no tainted params -> intrinsic sources only.
    taint = TaintAnalysis(func, oracle)
    solve(cfg, taint)
    # Taint pass 2: all params tainted -> which params reach sinks?
    probe = TaintAnalysis(
        func, oracle,
        tainted_params=frozenset(range(len(func.params))))
    solve(cfg, probe)
    probe_sinks = frozenset(
        index for index, name in enumerate(func.params)
        if any(hit.source == f"parameter '{name}'"
               for hit in probe.hits))

    durability = DurabilityScan(func, oracle)
    durability.run()
    purity = PurityScan(func, oracle)
    purity.run()

    summary = FunctionSummary(
        qualname=func.qualname,
        escape_params=frozenset(typestate.escape_params),
        returns_taint=taint.returns_taint,
        sink_params=probe_sinks,
        acquires_locks=frozenset(locks.acquired),
        attr_writes=frozenset(locks.attr_writes),
        blocking_calls=frozenset(locks.blocking),
        call_locks=frozenset(locks.call_locks),
        constructs=frozenset(locks.constructs),
        durable_sink_params=frozenset(durability.sink_params),
        returns_sealed=durability.returns_sealed,
        mutates_params=frozenset(purity.mutates),
        impure_effects=frozenset(purity.effects),
        protocol_ops=frozenset(typestate.protocol_ops),
        protocol_returns=typestate.protocol_returns,
    )
    return FunctionResult(
        summary=summary,
        lock_edges=sorted(locks.edges,
                          key=lambda e: (e.func, e.line, e.acquired)),
        taint_hits=sorted(taint.hits, key=lambda h: h.line),
        raw_durable_writes=sorted(durability.raw_writes,
                                  key=lambda w: w.line),
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
