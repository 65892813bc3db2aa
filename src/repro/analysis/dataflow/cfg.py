"""Per-function control-flow graphs with exception edges.

One :class:`CFGNode` per statement, plus synthetic ``entry``, ``exit``
(normal return) and ``exc-exit`` (uncaught exception) nodes.  Edges are
*normal* (sequential control transfer) or *exceptional* (the source
statement raised before completing; the state carried along the edge is
decided by the analysis, see :mod:`repro.analysis.dataflow.lattice`).

Compound statements contribute one node for their *header* (the test of
an ``if``/``while``, the iterable of a ``for``, the context expressions
of a ``with``); their bodies are wired recursively.  Analyses must only
interpret the executed part of a node's statement — use
:func:`exec_parts` for exactly that.

Modelling decisions (all biased toward *may*-analyses, where a spurious
path costs precision but never soundness):

* A statement may raise iff its executed part contains a call,
  ``await``, ``raise`` or ``assert``.  Attribute/subscript/arithmetic
  errors are deliberately ignored: everything the interprocedural rules
  care about funnels through calls, and treating ``page.dirty = True``
  as a throw site would flag every ownership transfer that touches the
  resource before returning it.
* ``if`` branches are entered through *branch proxy* nodes labelled
  with the test expression and its polarity, so analyses can refine
  ``if x is not None: release(x)`` guards path-sensitively.
* ``with`` blocks are transparent to control flow, but every node is
  annotated with its lexical ``with`` chain (``with_stack``) so analyses
  can model ``__exit__``-style release without finally machinery.
* ``try``/``finally`` instantiates the finally body **twice**: a normal
  copy (falls through to the statement after the try) and an *unwind*
  copy, entered from exception edges and from ``return`` inside the try,
  whose tail continues to both the enclosing exception target and the
  function exit.  The merged unwind continuation over-approximates
  paths; findings deduplicate per acquisition site so this never
  multiplies reports.
* ``break``/``continue`` edge directly to their loop targets; finally
  effects on those two paths are skipped (documented
  under-approximation).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Tuple

#: node kinds
ENTRY = "entry"
EXIT = "exit"
EXC_EXIT = "exc-exit"
STMT = "stmt"


def exec_parts(stmt: ast.stmt) -> List[ast.AST]:
    """The AST fragments a compound statement's header actually executes.

    For simple statements this is the statement itself; for compound
    statements only the header expressions (a ``for`` body is wired as
    separate CFG nodes and must not be re-interpreted at the header).
    """
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        parts: List[ast.AST] = list(stmt.decorator_list)
        parts.extend(stmt.args.defaults)
        parts.extend(d for d in stmt.args.kw_defaults if d is not None)
        return parts
    if isinstance(stmt, ast.ClassDef):
        return list(stmt.decorator_list) + list(stmt.bases) \
            + [kw.value for kw in stmt.keywords]
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter, stmt.target]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        parts = []
        for item in stmt.items:
            parts.append(item.context_expr)
            if item.optional_vars is not None:
                parts.append(item.optional_vars)
        return parts
    if isinstance(stmt, ast.Try):
        return []
    return [stmt]


def _may_raise(stmt: ast.stmt) -> bool:
    """Conservative: may executing this statement's header raise?"""
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    for part in exec_parts(stmt):
        for node in ast.walk(part):
            if isinstance(node, (ast.Call, ast.Await)):
                return True
    return False


class CFGNode:
    """One CFG node: a statement occurrence or a synthetic boundary."""

    __slots__ = ("index", "kind", "stmt", "succs", "esuccs", "with_stack",
                 "in_unwind", "is_proxy", "branch", "calls")

    def __init__(self, index: int, kind: str,
                 stmt: Optional[ast.stmt] = None,
                 is_proxy: bool = False) -> None:
        self.index = index
        self.kind = kind
        self.stmt = stmt
        self.is_proxy = is_proxy  #: join/dispatch point: identity transfer
        self.succs: List[int] = []       #: normal successor indices
        self.esuccs: List[int] = []      #: exceptional successor indices
        #: enclosing ``with`` statements, outermost first
        self.with_stack: Tuple[ast.stmt, ...] = ()
        #: True for nodes in the unwind copy of a finally body
        self.in_unwind = False
        #: (test expression, polarity) for an ``if`` branch proxy
        self.branch: Optional[Tuple[ast.expr, bool]] = None
        #: the calls this node executes, in evaluation order; filled on
        #: first use by ``summaries._stmt_calls``
        self.calls: Optional[Tuple[ast.Call, ...]] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        what = type(self.stmt).__name__ if self.stmt is not None else ""
        return f"<CFGNode {self.index} {self.kind} {what}>"


class CFG:
    """Control-flow graph of one function body."""

    def __init__(self, func: ast.AST) -> None:
        self.func = func
        self.nodes: List[CFGNode] = []
        self.entry = self._new(ENTRY)
        self.exit = self._new(EXIT)
        self.exc_exit = self._new(EXC_EXIT)

    def _new(self, kind: str, stmt: Optional[ast.stmt] = None,
             is_proxy: bool = False) -> CFGNode:
        node = CFGNode(len(self.nodes), kind, stmt, is_proxy)
        self.nodes.append(node)
        return node

    def add_edge(self, src: CFGNode, dst: CFGNode,
                 exceptional: bool = False) -> None:
        bucket = src.esuccs if exceptional else src.succs
        if dst.index not in bucket:
            bucket.append(dst.index)


class _Builder:
    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        self.with_stack: List[ast.stmt] = []
        #: entries of enclosing unwind finally copies, innermost last
        self.finally_unwind: List[CFGNode] = []
        self.loop_stack: List[Tuple[CFGNode, CFGNode]] = []  # (cont, brk)
        self.in_unwind = 0

    # -- helpers -----------------------------------------------------------

    def node(self, stmt: ast.stmt, is_proxy: bool = False) -> CFGNode:
        node = self.cfg._new(STMT, stmt, is_proxy)
        node.with_stack = tuple(self.with_stack)
        node.in_unwind = bool(self.in_unwind)
        return node

    def connect(self, sources: Sequence[CFGNode], dst: CFGNode) -> None:
        for src in sources:
            self.cfg.add_edge(src, dst)

    def raise_edge(self, node: CFGNode,
                   targets: Sequence[CFGNode]) -> None:
        for target in targets:
            self.cfg.add_edge(node, target, exceptional=True)

    def return_targets(self) -> List[CFGNode]:
        """Where ``return`` transfers control: unwind finally, else exit."""
        if self.finally_unwind:
            return [self.finally_unwind[-1]]
        return [self.cfg.exit]

    # -- construction ------------------------------------------------------

    def build(self, body: Sequence[ast.stmt], prev: List[CFGNode],
              exc: List[CFGNode]) -> List[CFGNode]:
        """Wire ``body`` after ``prev``; returns the dangling normal exits."""
        for stmt in body:
            prev = self._stmt(stmt, prev, exc)
        return prev

    def _stmt(self, stmt: ast.stmt, prev: List[CFGNode],
              exc: List[CFGNode]) -> List[CFGNode]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, prev, exc)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, prev, exc)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, prev, exc)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, prev, exc)

        node = self.node(stmt)
        self.connect(prev, node)
        if _may_raise(stmt):
            self.raise_edge(node, exc)

        if isinstance(stmt, ast.Return):
            for target in self.return_targets():
                self.cfg.add_edge(node, target)
            return []
        if isinstance(stmt, ast.Raise):
            self.raise_edge(node, exc)
            return []
        if isinstance(stmt, ast.Break):
            if self.loop_stack:
                self.cfg.add_edge(node, self.loop_stack[-1][1])
            return []
        if isinstance(stmt, ast.Continue):
            if self.loop_stack:
                self.cfg.add_edge(node, self.loop_stack[-1][0])
            return []
        return [node]

    def _if(self, stmt: ast.If, prev: List[CFGNode],
            exc: List[CFGNode]) -> List[CFGNode]:
        test = self.node(stmt)
        self.connect(prev, test)
        if _may_raise(stmt):
            self.raise_edge(test, exc)
        then_entry = self.node(stmt, is_proxy=True)
        then_entry.branch = (stmt.test, True)
        else_entry = self.node(stmt, is_proxy=True)
        else_entry.branch = (stmt.test, False)
        self.connect([test], then_entry)
        self.connect([test], else_entry)
        then_exits = self.build(stmt.body, [then_entry], exc)
        else_exits = self.build(stmt.orelse, [else_entry], exc) \
            if stmt.orelse else [else_entry]
        return then_exits + else_exits

    def _loop(self, stmt, prev: List[CFGNode],
              exc: List[CFGNode]) -> List[CFGNode]:
        head = self.node(stmt)
        self.connect(prev, head)
        if _may_raise(stmt):
            self.raise_edge(head, exc)
        after = self.node(stmt, is_proxy=True)  # join point past the loop
        self.loop_stack.append((head, after))
        body_exits = self.build(stmt.body, [head], exc)
        self.loop_stack.pop()
        self.connect(body_exits, head)
        else_exits = self.build(stmt.orelse, [head], exc) \
            if stmt.orelse else [head]
        self.connect(else_exits, after)
        return [after]

    def _with(self, stmt, prev: List[CFGNode],
              exc: List[CFGNode]) -> List[CFGNode]:
        enter = self.node(stmt)
        self.connect(prev, enter)
        if _may_raise(stmt):
            self.raise_edge(enter, exc)
        self.with_stack.append(stmt)
        body_exits = self.build(stmt.body, [enter], exc)
        self.with_stack.pop()
        return body_exits

    def _try(self, stmt: ast.Try, prev: List[CFGNode],
             exc: List[CFGNode]) -> List[CFGNode]:
        # Unwind copy of the finally body (exception / return paths).
        unwind_entry: Optional[CFGNode] = None
        if stmt.finalbody:
            unwind_entry = self.node(stmt, is_proxy=True)
            unwind_entry.in_unwind = True
            self.in_unwind += 1
            unwind_exits = self.build(stmt.finalbody, [unwind_entry], exc)
            self.in_unwind -= 1
            for tail in unwind_exits:
                # The suppressed exception (or pending return) continues.
                self.connect([tail], self.cfg.exit)
                for target in exc:
                    self.cfg.add_edge(tail, target)

        # Exception targets while executing the try body.
        handler_proxies = [self.node(h, is_proxy=True)
                           for h in stmt.handlers]
        body_exc: List[CFGNode] = list(handler_proxies)
        if unwind_entry is not None:
            body_exc.append(unwind_entry)   # no handler matched
        if not body_exc:
            body_exc = list(exc)

        if unwind_entry is not None:
            self.finally_unwind.append(unwind_entry)
        body_exits = self.build(stmt.body, prev, body_exc)
        else_exits = self.build(stmt.orelse, body_exits, body_exc) \
            if stmt.orelse else body_exits

        handler_exc = [unwind_entry] if unwind_entry is not None \
            else list(exc)
        handler_exits: List[CFGNode] = []
        for handler, proxy in zip(stmt.handlers, handler_proxies):
            handler_exits.extend(
                self.build(handler.body, [proxy], handler_exc))
        if unwind_entry is not None:
            self.finally_unwind.pop()

        normal_into_finally = else_exits + handler_exits
        if stmt.finalbody:
            return self.build(stmt.finalbody, normal_into_finally, exc)
        return normal_into_finally


def build_cfg(func: ast.AST) -> CFG:
    """Build the CFG of one function/method body."""
    cfg = CFG(func)
    builder = _Builder(cfg)
    exits = builder.build(list(func.body), [cfg.entry], [cfg.exc_exit])
    for tail in exits:
        cfg.add_edge(tail, cfg.exit)
    return cfg
