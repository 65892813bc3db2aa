"""Typestate interpretation of the protocol registry (RPL030–033 core).

:class:`TypestateAnalysis` runs each :class:`~repro.analysis.protocols.
ProtocolSpec` state machine over a function CFG: acquisition *sites*
hold a set of protocol states a subject may be in, *vars* map local
names to the sites they may alias.  It is the one lifecycle analysis:
every open/close obligation (transactions, reader handles, read
contexts) is a ``must_complete`` spec.  Callee summaries plug in through
three :class:`~repro.analysis.dataflow.summaries.FunctionSummary` fields
— ``protocol_ops`` (events a callee applies to its parameters),
``protocol_returns`` (the protocol value a callee hands back) and
``escape_params`` (parameters a callee stores, returns or hands on) —
which is what makes a ``commit`` buried two helpers deep still
transition the caller's transaction.

Reporting discipline:

* *Definite* violations only: an event is flagged when every non-escaped
  state the subject may be in is a violation state.  May-joins that keep
  one legal state (retry loops, guarded cleanup) stay silent.
* Violations and thread escapes are recorded on a post-fixpoint *replay*
  over the converged IN-states (``recording`` flag), never from the
  transient states of mid-fixpoint visits.
* Completion obligations (``must_complete`` protocols) are may-leaks at
  the normal and exceptional exits — a ``finally:`` deregister reaches
  both exits, a happy-path-only one leaves the exceptional exit
  registered.

:class:`AtomicityAnalysis` (RPL031 core) is the check-then-act checker:
it binds names assigned from a latched read of a guarded attribute,
tracks whether that latch has been *continuously* held since, and flags
writes of the same attribute computed from the stale name after the
latch was released.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.dataflow.callgraph import (
    CallSite, FunctionInfo, RESOLVED,
)
from repro.analysis.dataflow.cfg import CFG, CFGNode
from repro.analysis.dataflow.lattice import ForwardAnalysis
from repro.analysis.dataflow.summaries import (
    CONTAINER_STORE_ATTRS,
    LOCKISH_ATTRS,
    ProtocolLeak,
    ProtocolViolation,
    StaleWrite,
    ThreadEscape,
    _LockIndex,
    _Oracle,
    _arg_offset,
    _call_name,
    _display,
    _known_none,
    _receiver_hint,
    _stmt_calls,
)
from repro.analysis.protocols import (
    ADVANCING_EVENT_NAMES,
    ARG0,
    ARG1,
    RECEIVER,
    RECV,
    SPECS,
    SPECS_BY_NAME,
    VALUE,
    Event,
    ProtocolSpec,
)
from repro.analysis.dataflow.callgraph import EXTERNAL_TYPE

#: status markers shared with no protocol state machine
UNKNOWN = "<unknown>"      #: a parameter: state owned by the caller
ESCAPED = "<escaped>"      #: left local reasoning (stored, returned, ...)
_MARKERS = frozenset({UNKNOWN, ESCAPED})


class _TsState:
    """sites: site-id -> protocol states; vars: name -> site-ids."""

    __slots__ = ("sites", "vars")

    def __init__(self, sites: Dict[str, FrozenSet[str]],
                 vars: Dict[str, FrozenSet[str]]) -> None:
        self.sites = sites
        self.vars = vars

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _TsState) \
            and self.sites == other.sites and self.vars == other.vars

    def copy(self) -> "_TsState":
        return _TsState(dict(self.sites), dict(self.vars))


def _param_index(site: str) -> int:
    return int(site[len("<param:"):-1])


def _ctor_arg_offset(site: CallSite, target: FunctionInfo,
                     call: ast.Call) -> int:
    """Like ``_arg_offset`` but aware that ``ClassName(...)`` resolves
    to ``__init__`` whose parameter 0 is ``self``."""
    if target.name == "__init__" and target.cls is not None \
            and not isinstance(call.func, ast.Attribute):
        return 1
    return _arg_offset(site, target)


class TypestateAnalysis(ForwardAnalysis[_TsState]):
    """Runs every registered protocol state machine over one function."""

    def __init__(self, func: FunctionInfo, oracle: _Oracle) -> None:
        self.func = func
        self.oracle = oracle
        #: site-id -> (line, human display of the subject)
        self.site_info: Dict[str, Tuple[int, str]] = {}
        self.site_protocol: Dict[str, str] = {}
        #: summary facts: (param index, protocol, event)
        self.protocol_ops: Set[Tuple[int, str, str]] = set()
        self.protocol_returns: Optional[Tuple[str, str]] = None
        #: summary fact: parameters that leave this function's reasoning
        self.escape_params: Set[int] = set()
        #: evidence, recorded only while ``recording`` (post-solve replay)
        self.violations: Set[ProtocolViolation] = set()
        self.thread_escapes: Set[ThreadEscape] = set()
        self.recording = False
        self._nested_defs = self._scan_nested_defs()
        self._recv_seeds = self._scan_receiver_sites()

    # - one-time scans -

    def _scan_nested_defs(self) -> Dict[str, Set[str]]:
        """Nested function name -> names its body references (closure)."""
        captured: Dict[str, Set[str]] = {}
        for node in ast.walk(self.func.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node is not self.func.node:
                names = {sub.id for sub in ast.walk(node)
                         if isinstance(sub, ast.Name)}
                captured.setdefault(node.name, set()).update(names)
        return captured

    def _scan_receiver_sites(self) -> Dict[str, str]:
        """Receiver-tracked sites this function touches, seeded at entry.

        Seeding at entry (rather than creating the site at the first
        event) keeps the *implicit initial state* alive through joins: a
        branch that never fired an event still contributes ``initial``,
        so a conditionally-armed controller never reads as definitely
        armed after the merge.
        """
        ctx = self.oracle.graph.contexts.get(self.func.module)
        seeds: Dict[str, str] = {}
        for node in ast.walk(self.func.node):
            if not isinstance(node, ast.Call) \
                    or not isinstance(node.func, ast.Attribute):
                continue
            if ctx is not None \
                    and ctx.enclosing_function(node) is not self.func.node:
                continue
            key = self._recv_key(node.func.value)
            if key is None:
                continue
            for spec in SPECS:
                if spec.tracking != RECEIVER:
                    continue
                if spec.event(node.func.attr) is None:
                    continue
                if not self._applies(spec, node, frozenset()):
                    continue
                site = f"<recv:{spec.name}:{key}>"
                seeds[site] = spec.initial
                self.site_protocol[site] = spec.name
                self.site_info.setdefault(site, (node.lineno, key))
        return seeds

    # - framework hooks -

    def initial(self, cfg: CFG) -> _TsState:
        sites: Dict[str, FrozenSet[str]] = {}
        vars: Dict[str, FrozenSet[str]] = {}
        for index, name in enumerate(self.func.params):
            site = f"<param:{index}>"
            sites[site] = frozenset({UNKNOWN})
            vars[name] = frozenset({site})
        for site, initial_state in self._recv_seeds.items():
            sites[site] = frozenset({initial_state})
        return _TsState(sites, vars)

    def bottom(self) -> _TsState:
        return _TsState({}, {})

    def join(self, a: _TsState, b: _TsState) -> _TsState:
        sites = dict(a.sites)
        for site, statuses in b.sites.items():
            sites[site] = sites.get(site, frozenset()) | statuses
        vars = dict(a.vars)
        for name, ids in b.vars.items():
            vars[name] = vars.get(name, frozenset()) | ids
        return _TsState(sites, vars)

    def exc_state(self, node: CFGNode, pre: _TsState,
                  post: _TsState) -> _TsState:
        # An advancing event that itself raises is assumed to have taken
        # effect — a ``finally: deregister`` must not read as "still
        # registered" on its own exception edge.
        for call in _stmt_calls(node):
            if _call_name(call) in ADVANCING_EVENT_NAMES:
                return post
            for _site, summary in self.oracle.target_summaries(call):
                if summary.protocol_ops:
                    return post
        return pre

    def refine(self, node: CFGNode, state: _TsState) -> _TsState:
        assert node.branch is not None
        test, polarity = node.branch
        new = state

        # ``if txn is None`` kills the machine on the proven-None branch.
        name = _known_none(test, polarity)
        if name is not None:
            new = new.copy()
            for site in new.vars.get(name, frozenset()):
                statuses = new.sites.get(site, frozenset())
                if statuses & _MARKERS:
                    continue
                new.sites[site] = frozenset()

        # Declared boolean guards: ``if txn.is_active(): ...`` proves
        # the guard state on the true branch and excludes it on false.
        inner, proven_polarity = test, polarity
        while isinstance(inner, ast.UnaryOp) and isinstance(inner.op, ast.Not):
            inner, proven_polarity = inner.operand, not proven_polarity
        if isinstance(inner, ast.Call) \
                and isinstance(inner.func, ast.Attribute) \
                and isinstance(inner.func.value, ast.Name):
            guard_name = inner.func.attr
            subject = inner.func.value.id
            for spec in SPECS:
                for gname, proven in spec.guards:
                    if gname != guard_name:
                        continue
                    if new is state:
                        new = new.copy()
                    for site in new.vars.get(subject, frozenset()):
                        if self.site_protocol.get(site) != spec.name:
                            continue
                        statuses = new.sites.get(site, frozenset())
                        live = statuses - _MARKERS
                        keep = (live & {proven}) if proven_polarity \
                            else (live - {proven})
                        new.sites[site] = keep | (statuses & _MARKERS)
        return new

    # - state helpers -

    @staticmethod
    def _recv_key(expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return expr.id
        if isinstance(expr, ast.Attribute) \
                and isinstance(expr.value, ast.Name):
            return f"{expr.value.id}.{expr.attr}"
        return None

    def _subject_sites(self, state: _TsState,
                       expr: Optional[ast.expr]) -> FrozenSet[str]:
        """Sites a subject expression may denote.

        Deliberately exact: a bare ``Name`` (aliases) or a direct
        nested ``Call`` (its origin site, by evaluation order).  An
        attribute like ``self.txn`` must NOT fall back to its base name
        — that would smear the machine onto ``self``.
        """
        if isinstance(expr, ast.Call):
            site = f"{expr.lineno}:{expr.col_offset}"
            if site in state.sites:
                return frozenset({site})
            return frozenset()
        if isinstance(expr, ast.Name):
            return state.vars.get(expr.id, frozenset())
        return frozenset()

    def _mark_escaped(self, state: _TsState, ids: FrozenSet[str]) -> None:
        for site in ids:
            statuses = state.sites.get(site)
            if statuses is None:
                continue
            if UNKNOWN in statuses:
                # A parameter: the caller owns the state, so export the
                # escape instead of marking it here.
                self.escape_params.add(_param_index(site))
                continue
            state.sites[site] = statuses | frozenset({ESCAPED})

    def _escape_captured(self, state: _TsState, stmt: ast.stmt) -> None:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Name) and sub.id in state.vars:
                self._mark_escaped(state, state.vars[sub.id])

    def _applies(self, spec: ProtocolSpec, call: ast.Call,
                 tracked: FrozenSet[str]) -> bool:
        """Is this call an event of ``spec``'s implementing surface?"""
        site = self.oracle.site(call)
        if site is not None and site.status == RESOLVED:
            return any(t.cls is not None and t.cls.name in spec.classes
                       for t in site.targets)
        hint = _receiver_hint(call)
        if hint in spec.hints:
            return True
        return any(self.site_protocol.get(s) == spec.name for s in tracked)

    # - transfer -

    def transfer(self, node: CFGNode, state: _TsState) -> _TsState:
        stmt = node.stmt
        new = state.copy()
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return new  # with-managed subjects complete via __exit__
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            self._escape_captured(new, stmt)
            return new

        bound_call: Optional[ast.Call] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name) \
                and isinstance(stmt.value, ast.Call):
            bound_call = stmt.value

        for call in _stmt_calls(node):
            self._apply_call(new, call,
                             in_return=isinstance(stmt, ast.Return))

        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._apply_target(new, target, stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._apply_target(new, stmt.target, stmt.value)
        elif isinstance(stmt, ast.Return):
            self._apply_return(new, stmt.value)
        elif isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, (ast.Yield, ast.YieldFrom)):
            value = stmt.value.value
            self._mark_escaped(new, self._subject_sites(new, value))
        return new

    def _apply_call(self, state: _TsState, call: ast.Call,
                    in_return: bool) -> None:
        name = _call_name(call)
        handled_args: Set[int] = set()
        handled_protocols: Set[str] = set()

        self._check_thread_handoff(state, call, name)

        # 1. declared protocol events at this call
        if isinstance(call.func, ast.Attribute):
            for spec in SPECS:
                event = spec.event(name)
                if event is not None:
                    self._fire_declared(state, call, spec, event,
                                        handled_args, handled_protocols)

        # 2. events the callee applies to arguments (its summary ops)
        self._apply_callee_ops(state, call, handled_protocols)

        # 3. origins: a fresh protocol value is born at this call
        origin = self._origin_spec(call)
        if origin is not None:
            site_id = f"{call.lineno}:{call.col_offset}"
            self.site_info[site_id] = (call.lineno, _display(call))
            self.site_protocol[site_id] = origin.name
            statuses = frozenset({origin.initial})
            if in_return:
                statuses |= frozenset({ESCAPED})
                self.protocol_returns = (origin.name, origin.initial)
            state.sites[site_id] = statuses
        else:
            self._apply_callee_returns(state, call, in_return)

        # 4. escapes: unresolved calls and external container stores
        #    take the subject out of local reasoning; resolved callees
        #    escape exactly the arguments their summary says they store
        site = self.oracle.site(call)
        conservative = self.oracle.is_unresolved(call) or (
            name in CONTAINER_STORE_ATTRS
            and isinstance(call.func, ast.Attribute)
            and (site is None or not site.targets))
        if conservative:
            for position, arg in enumerate(call.args):
                if position in handled_args:
                    continue
                self._mark_escaped(state, self._subject_sites(state, arg))
        elif site is not None and site.targets:
            for target in site.targets:
                summary = self.oracle.summaries.get(target.qualname)
                if summary is None:
                    continue
                offset = _ctor_arg_offset(site, target, call)
                # A parameter the callee reported protocol events for is
                # precisely understood — its conservative escape (the
                # event receiver is usually itself a parameter there)
                # must not blind the caller to the transition.
                op_params = {pidx for pidx, _p, _e in summary.protocol_ops}
                for position, arg in enumerate(call.args):
                    if position in handled_args \
                            or position + offset in op_params:
                        continue
                    if position + offset in summary.escape_params:
                        self._mark_escaped(
                            state, self._subject_sites(state, arg))
                break

    def _subject_expr(self, call: ast.Call, event: Event
                      ) -> Tuple[Optional[ast.expr], Optional[int]]:
        """The event's subject expression and its positional-arg index."""
        if event.subject == RECV:
            assert isinstance(call.func, ast.Attribute)
            return call.func.value, None
        if event.subject == ARG0:
            return (call.args[0], 0) if call.args else (None, None)
        if event.subject == ARG1:
            return (call.args[1], 1) if len(call.args) > 1 else (None, None)
        return None, None

    def _fire_declared(self, state: _TsState, call: ast.Call,
                       spec: ProtocolSpec, event: Event,
                       handled_args: Set[int],
                       handled_protocols: Set[str]) -> None:
        subject, arg_pos = self._subject_expr(call, event)
        if subject is None:
            return

        if spec.tracking == RECEIVER:
            key = self._recv_key(subject)
            if key is None or not self._applies(spec, call, frozenset()):
                return
            site = f"<recv:{spec.name}:{key}>"
            if site not in state.sites:
                state.sites[site] = frozenset({spec.initial})
                self.site_protocol[site] = spec.name
                self.site_info.setdefault(site, (call.lineno, key))
            self._fire(state, frozenset({site}), spec, event, call)
            handled_protocols.add(spec.name)
            return

        ids = self._subject_sites(state, subject)
        relevant = frozenset(
            s for s in ids
            if s.startswith("<param:")
            or self.site_protocol.get(s) == spec.name)
        if not relevant or not self._applies(spec, call, relevant):
            return
        if self._fire(state, relevant, spec, event, call):
            handled_protocols.add(spec.name)
            if arg_pos is not None:
                handled_args.add(arg_pos)

    def _fire(self, state: _TsState, sites: FrozenSet[str],
              spec: ProtocolSpec, event: Event, call: ast.Call) -> bool:
        fired = False
        for site in sites:
            statuses = state.sites.get(site)
            if statuses is None:
                continue
            if UNKNOWN in statuses:
                # Parameter subject: the caller owns the state; export
                # the event instead of interpreting it here.
                if event.propagate and site.startswith("<param:"):
                    self.protocol_ops.add(
                        (_param_index(site), spec.name, event.name))
                fired = True
                continue
            live = statuses - _MARKERS
            if self.recording and live and ESCAPED not in statuses \
                    and live <= frozenset(event.violations):
                line, what = self.site_info.get(
                    site, (call.lineno, _display(call)))
                self.violations.add(ProtocolViolation(
                    line=call.lineno, protocol=spec.name, event=event.name,
                    state=sorted(live)[0], what=what, kind=spec.kind))
            state.sites[site] = frozenset(
                event.next_states(s) for s in live) | (statuses & _MARKERS)
            fired = True
        return fired

    def _apply_callee_ops(self, state: _TsState, call: ast.Call,
                          handled_protocols: Set[str]) -> None:
        for site, summary in self.oracle.target_summaries(call):
            if not summary.protocol_ops:
                continue
            for target in site.targets:
                offset = _ctor_arg_offset(site, target, call)
                for pidx, proto, ev_name in sorted(summary.protocol_ops):
                    if proto in handled_protocols:
                        continue
                    spec = SPECS_BY_NAME.get(proto)
                    event = spec.event(ev_name) if spec is not None else None
                    if event is None:
                        continue
                    expr = self._param_expr(call, pidx, offset)
                    if expr is None:
                        continue
                    self._fire(state, self._subject_sites(state, expr),
                               spec, event, call)
                break
            break

    @staticmethod
    def _param_expr(call: ast.Call, pidx: int,
                    offset: int) -> Optional[ast.expr]:
        if pidx == 0 and offset == 1:
            return call.func.value \
                if isinstance(call.func, ast.Attribute) else None
        position = pidx - offset
        if 0 <= position < len(call.args):
            return call.args[position]
        return None

    def _origin_spec(self, call: ast.Call) -> Optional[ProtocolSpec]:
        if not isinstance(call.func, ast.Attribute):
            return None
        name = _call_name(call)
        for spec in SPECS:
            if spec.tracking != VALUE or name not in spec.origin_names:
                continue
            site = self.oracle.site(call)
            if site is not None and site.status == RESOLVED:
                if any((t.module, t.name) in spec.origins
                       for t in site.targets):
                    return spec
                continue
            if _receiver_hint(call) in spec.hints:
                return spec
        return None

    def _apply_callee_returns(self, state: _TsState, call: ast.Call,
                              in_return: bool) -> None:
        for _site, summary in self.oracle.target_summaries(call):
            if summary.protocol_returns is None:
                continue
            proto, proto_state = summary.protocol_returns
            site_id = f"{call.lineno}:{call.col_offset}"
            self.site_info[site_id] = (call.lineno, _display(call))
            self.site_protocol[site_id] = proto
            statuses = frozenset({proto_state})
            if in_return:
                statuses |= frozenset({ESCAPED})
                self.protocol_returns = (proto, proto_state)
            state.sites[site_id] = statuses
            return

    def _check_thread_handoff(self, state: _TsState, call: ast.Call,
                              name: str) -> None:
        if name != "Thread":
            return
        candidates: Set[str] = set()
        for expr in list(call.args) + [kw.value for kw in call.keywords]:
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Name):
                    candidates.add(sub.id)
                    candidates |= self._nested_defs.get(sub.id, set())
        for ref in sorted(candidates):
            for site in state.vars.get(ref, frozenset()):
                proto = self.site_protocol.get(site)
                statuses = state.sites.get(site, frozenset())
                if proto is None or not (statuses - _MARKERS):
                    continue
                if self.recording:
                    spec = SPECS_BY_NAME[proto]
                    line, what = self.site_info.get(
                        site, (call.lineno, ref))
                    self.thread_escapes.add(ThreadEscape(
                        line=call.lineno, protocol=proto,
                        kind=spec.kind, what=what))
                state.sites[site] = statuses | frozenset({ESCAPED})

    def _apply_target(self, state: _TsState, target: ast.expr,
                      value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            if isinstance(value, ast.Call):
                site = f"{value.lineno}:{value.col_offset}"
                if site in self.site_protocol and site in state.sites:
                    state.vars[target.id] = frozenset({site})
                    return
            if isinstance(value, ast.Name):
                state.vars[target.id] = state.vars.get(
                    value.id, frozenset())
                return
            state.vars[target.id] = frozenset()
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self._mark_escaped(state, self._subject_sites(state, value))
            if isinstance(value, ast.Call):
                site = f"{value.lineno}:{value.col_offset}"
                if site in self.site_protocol and site in state.sites:
                    state.sites[site] = \
                        state.sites[site] | frozenset({ESCAPED})
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    state.vars[element.id] = frozenset()

    def _apply_return(self, state: _TsState,
                      value: Optional[ast.expr]) -> None:
        if value is None:
            return
        elements = value.elts if isinstance(
            value, (ast.Tuple, ast.List)) else [value]
        for element in elements:
            ids = self._subject_sites(state, element)
            for site in ids:
                statuses = state.sites.get(site, frozenset())
                proto = self.site_protocol.get(site)
                live = statuses - _MARKERS
                if proto is not None and len(live) == 1:
                    self.protocol_returns = (proto, next(iter(live)))
            self._mark_escaped(state, ids)

    # - reporting -

    def replay(self, cfg: CFG, in_states: Dict[int, _TsState]) -> None:
        """Re-run transfer over converged IN-states, recording evidence."""
        self.recording = True
        try:
            for node in cfg.nodes:
                if node.is_proxy or node.stmt is None:
                    continue
                state = in_states.get(node.index)
                if state is not None:
                    self.transfer(node, state)
        finally:
            self.recording = False

    def leaks(self, cfg: CFG,
              in_states: Dict[int, _TsState]) -> List[ProtocolLeak]:
        found: Dict[str, ProtocolLeak] = {}
        for exit_node, exceptional in ((cfg.exit, False),
                                       (cfg.exc_exit, True)):
            state = in_states.get(exit_node.index)
            if state is None:
                continue
            for site, statuses in state.sites.items():
                proto = self.site_protocol.get(site)
                if proto is None:
                    continue
                spec = SPECS_BY_NAME[proto]
                if not spec.must_complete:
                    continue
                if statuses & _MARKERS:
                    continue
                live = statuses - _MARKERS
                if not live or live <= spec.complete:
                    continue
                line, what = self.site_info.get(site, (0, site))
                previous = found.get(site)
                if previous is None or (previous.exceptional
                                        and not exceptional):
                    found[site] = ProtocolLeak(
                        line, proto, spec.kind, what, exceptional)
        return sorted(found.values(), key=lambda leak: leak.line)


# -- check-then-act atomicity (RPL031 core) ---------------------------------

#: per-name fact: (latches at the read, latches held continuously since,
#: (class, attr) pairs read, line of the read)
_AtFact = Tuple[FrozenSet[str], FrozenSet[str],
                FrozenSet[Tuple[str, str]], int]


class AtomicityAnalysis(ForwardAnalysis[Dict[str, _AtFact]]):
    """Latched read feeding a write after the latch was released.

    ``x = self._count`` under ``with self._latch`` binds ``x`` as a
    *latched read* of ``(Counter, _count)``.  If ``self._count`` is
    later written from an expression mentioning ``x`` while the latch is
    no longer (continuously) held, the decision was made on a value
    another thread may have replaced — the classic check-then-act race.
    The RPL031 rule subtracts entry-lock contexts (functions always
    called with the latch held never lose continuity in their callers).
    """

    def __init__(self, func: FunctionInfo, oracle: _Oracle,
                 locks: _LockIndex) -> None:
        self.func = func
        self.oracle = oracle
        self.locks = locks
        self.local_types = oracle.graph._local_types(func)
        self.stale_writes: Set[StaleWrite] = set()
        self.recording = False

    def initial(self, cfg: CFG) -> Dict[str, _AtFact]:
        return {}

    def bottom(self) -> Dict[str, _AtFact]:
        return {}

    def join(self, a: Dict[str, _AtFact],
             b: Dict[str, _AtFact]) -> Dict[str, _AtFact]:
        out = dict(a)
        for name, fact_b in b.items():
            fact_a = out.get(name)
            if fact_a is None:
                out[name] = fact_b
            else:
                out[name] = (fact_a[0] | fact_b[0], fact_a[1] & fact_b[1],
                             fact_a[2] | fact_b[2],
                             min(fact_a[3], fact_b[3]))
        return out

    # - latch / attribute classification -

    def _lexical(self, node: CFGNode) -> FrozenSet[str]:
        held: Set[str] = set()
        for stmt in node.with_stack:
            for item in stmt.items:
                lock = self.locks.lock_id(self.func, self.local_types,
                                          item.context_expr)
                if lock is not None:
                    held.add(lock)
        return frozenset(held)

    def _own_latches(self, rtype: str) -> FrozenSet[str]:
        cls = self.oracle.graph.classes.get(rtype)
        owner = cls.name if cls is not None else rtype
        return frozenset(
            f"{owner}.{attr}" for cls_qual, attr in self.locks.assigned
            if cls_qual == rtype)

    def _guarded_reads(self, expr: ast.expr, held: FrozenSet[str]
                       ) -> Optional[Tuple[FrozenSet[str],
                                           FrozenSet[Tuple[str, str]]]]:
        """Latches + (class, attr) pairs of guarded reads in ``expr``."""
        latches: Set[str] = set()
        attrs: Set[Tuple[str, str]] = set()
        for sub in ast.walk(expr):
            if not isinstance(sub, ast.Attribute) \
                    or not isinstance(sub.ctx, ast.Load) \
                    or sub.attr in LOCKISH_ATTRS:
                continue
            for rtype in self.oracle.graph._receiver_types(
                    self.func, self.local_types, sub.value):
                if rtype == EXTERNAL_TYPE:
                    continue
                guarding = self._own_latches(rtype) & held
                if guarding:
                    latches.update(guarding)
                    attrs.add((rtype, sub.attr))
        if not attrs:
            return None
        return frozenset(latches), frozenset(attrs)

    # - transfer -

    def transfer(self, node: CFGNode,
                 state: Dict[str, _AtFact]) -> Dict[str, _AtFact]:
        held = self._lexical(node)
        new: Dict[str, _AtFact] = {
            name: (rheld, cont & held, attrs, line)
            for name, (rheld, cont, attrs, line) in state.items()
        }
        stmt = node.stmt
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return new

        self._check_writes(stmt, new, held)

        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            name = stmt.targets[0].id
            read = self._guarded_reads(stmt.value, held)
            if read is not None:
                latches, attrs = read
                new[name] = (latches, latches, attrs, stmt.lineno)
            else:
                new.pop(name, None)
        return new

    def _check_writes(self, stmt: Optional[ast.stmt],
                      state: Dict[str, _AtFact],
                      held: FrozenSet[str]) -> None:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = list(stmt.targets), stmt.value
        elif isinstance(stmt, ast.AugAssign):
            targets, value = [stmt.target], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            return
        mentioned = {sub.id for sub in ast.walk(value)
                     if isinstance(sub, ast.Name)}
        for target in targets:
            if isinstance(target, ast.Subscript):
                target = target.value
            if not isinstance(target, ast.Attribute):
                continue
            for rtype in self.oracle.graph._receiver_types(
                    self.func, self.local_types, target.value):
                if rtype == EXTERNAL_TYPE:
                    continue
                pair = (rtype, target.attr)
                for name, (rheld, cont, attrs, read_line) in state.items():
                    if pair not in attrs or name not in mentioned:
                        continue
                    if rheld & held:
                        continue  # re-latched before the write
                    lost = rheld - cont
                    if not lost:
                        continue  # latch held continuously since the read
                    if self.recording:
                        cls = self.oracle.graph.classes.get(rtype)
                        owner = cls.name if cls is not None else rtype
                        self.stale_writes.add(StaleWrite(
                            line=stmt.lineno, name=name,
                            latch=sorted(lost)[0], cls=owner,
                            attr=target.attr, read_line=read_line))

    def replay(self, cfg: CFG,
               in_states: Dict[int, Dict[str, _AtFact]]) -> None:
        self.recording = True
        try:
            for node in cfg.nodes:
                if node.is_proxy or node.stmt is None:
                    continue
                state = in_states.get(node.index)
                if state is not None:
                    self.transfer(node, state)
        finally:
            self.recording = False
