"""Declarative protocol state machines for the typestate rules.

Each :class:`ProtocolSpec` describes one lifecycle protocol of the
storage/retro stack as a finite state machine: the states a tracked
value (or receiver object) can be in, the method calls that move it
between states, and the states in which firing an event is a protocol
violation.  The typestate engine
(:mod:`repro.analysis.dataflow.typestate`) interprets these specs over
per-function CFGs with call-graph summaries plugged in, which makes the
verification interprocedural (a ``commit`` buried in a helper still
transitions the caller's transaction) and path-aware on exception edges
(the try/finally dual CFG distinguishes a ``finally`` deregister from a
happy-path-only one).

Two tracking disciplines:

* ``value`` — the protocol subject is a *value* born at an origin call
  (``engine.begin()``, ``versions.register_reader(...)``) and tracked
  through local aliases;
* ``receiver`` — the protocol subject is a long-lived *object*
  (``self.retro``, a chaos controller) and sites are keyed by the
  receiver expression; the machine starts in ``initial`` on the first
  event the function performs on that receiver.

Violation reporting is *definite*: an event is flagged only when every
non-escaped state the subject may be in at that point is a violation
state.  A may-analysis join that still contains one legal state stays
silent, which keeps retry loops (``schedule_crash`` re-armed after a
survived probe) and guarded cleanups out of the findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

#: subject selectors for events
RECV = "recv"       #: the method receiver (``subject.event(...)``)
ARG0 = "arg0"       #: the first positional argument
ARG1 = "arg1"       #: the second positional argument

#: tracking disciplines
VALUE = "value"
RECEIVER = "receiver"


@dataclass(frozen=True)
class Event:
    """One protocol event: a method name plus its transition table."""

    name: str                                   #: attribute-call name
    subject: str                                #: RECV / ARG0 / ARG1
    transitions: Tuple[Tuple[str, str], ...]    #: (state, next-state)
    #: states in which firing this event is a protocol violation
    violations: Tuple[str, ...] = ()
    #: record this event on parameter subjects into the function's
    #: summary (``protocol_ops``) so callers apply it interprocedurally;
    #: receiver-tracked protocols keep this off — their events are not
    #: must-events of the callee, and propagating a *may* mark/degrade
    #: through summaries would manufacture definite states at callers
    propagate: bool = True

    def next_states(self, state: str) -> str:
        for current, target in self.transitions:
            if current == state:
                return target
        return state


@dataclass(frozen=True)
class ProtocolSpec:
    """One protocol: states, events, origins and reporting policy."""

    name: str                           #: short id ("txn", "reader", ...)
    kind: str                           #: human noun for findings
    initial: str
    tracking: str                       #: VALUE / RECEIVER
    #: implementing class *names* — an event applies when its call
    #: resolves to a method of one of these classes
    classes: FrozenSet[str]
    #: receiver-name fallbacks for unresolved sites (fixtures, duck
    #: typing); matching is on the trailing name (``self._versions`` ->
    #: ``_versions``)
    hints: FrozenSet[str]
    events: Tuple[Event, ...] = ()
    #: value-protocol origins: (module relpath, function name) roots
    origins: FrozenSet[Tuple[str, str]] = frozenset()
    #: call names that create a value of this protocol
    origin_names: FrozenSet[str] = frozenset()
    #: a value must reach a ``complete`` state on every path, the
    #: exceptional exit included (transactions, reader handles, read
    #: contexts); receiver-tracked objects outlive the function
    must_complete: bool = False
    complete: FrozenSet[str] = frozenset()
    #: boolean guard methods: (method name, state proven on the true
    #: branch) — ``if txn.is_active(): engine.rollback(txn)`` verifies
    guards: Tuple[Tuple[str, str], ...] = ()
    #: fix guidance appended to findings
    fix_hint: str = ""

    def event(self, name: str) -> Optional[Event]:
        for event in self.events:
            if event.name == name:
                return event
        return None


#: transaction lifecycle: begun -> committed | rolled_back, nothing after
TXN = ProtocolSpec(
    name="txn",
    kind="transaction",
    initial="active",
    tracking=VALUE,
    classes=frozenset({"StorageEngine", "Transaction"}),
    hints=frozenset({"engine", "_engine", "aux_engine", "store", "db"}),
    origins=frozenset({("storage/engine.py", "begin")}),
    origin_names=frozenset({"begin"}),
    events=(
        Event("commit", ARG0, (("active", "committed"),),
              violations=("committed", "rolled_back")),
        Event("rollback", ARG0, (("active", "rolled_back"),),
              violations=("committed", "rolled_back")),
        Event("page_source", ARG0, (),
              violations=("committed", "rolled_back")),
        Event("ensure_active", RECV, (),
              violations=("committed", "rolled_back")),
        Event("modified_pages", RECV, (),
              violations=("committed", "rolled_back")),
    ),
    must_complete=True,
    complete=frozenset({"committed", "rolled_back"}),
    guards=(("is_active", "active"),),
    fix_hint="a transaction must reach exactly one of commit/rollback; "
             "guard late cleanup with txn.is_active()",
)

#: MVCC reader handles: registered -> deregistered exactly once
READER = ProtocolSpec(
    name="reader",
    kind="reader handle",
    initial="registered",
    tracking=VALUE,
    classes=frozenset({"VersionStore"}),
    hints=frozenset({"versions", "_versions", "version_store", "mvcc"}),
    origins=frozenset({("storage/mvcc.py", "register_reader")}),
    origin_names=frozenset({"register_reader"}),
    events=(
        Event("deregister_reader", ARG0, (("registered", "done"),),
              violations=("done",)),
    ),
    must_complete=True,
    complete=frozenset({"done"}),
    fix_hint="deregister the handle in a finally block so version "
             "chains can be pruned even when the read raises",
)

#: read contexts: open -> closed (idempotently); no reads after close
READ_CONTEXT = ProtocolSpec(
    name="read-context",
    kind="read context",
    initial="open",
    tracking=VALUE,
    classes=frozenset({"StorageEngine", "ReadContext"}),
    hints=frozenset({"engine", "_engine", "aux_engine", "ctx",
                     "read_ctx", "aux_read_ctx", "context"}),
    origins=frozenset({("storage/engine.py", "begin_read")}),
    origin_names=frozenset({"begin_read"}),
    events=(
        # ReadContext.close is idempotent by contract: closed -> closed
        # is legal, so no violation states on close itself.
        Event("close", RECV, (("open", "closed"),)),
        Event("read_source", ARG0, (), violations=("closed",)),
        Event("snapshot_source", ARG1, (), violations=("closed",)),
    ),
    must_complete=True,
    complete=frozenset({"closed"}),
    fix_hint="close the context in a finally block (or open it in a "
             "with-statement); a closed read context has deregistered "
             "its MVCC reader, so reads through it see pruned version "
             "chains",
)

#: recovery ordering: recover/scrub before reads; reads after
#: mark_unavailable must re-check availability first
RETRO = ProtocolSpec(
    name="retro",
    kind="retro manager",
    initial="fresh",
    tracking=RECEIVER,
    classes=frozenset({"RetroManager"}),
    hints=frozenset({"retro", "manager", "_manager", "mgr"}),
    events=(
        Event("recover", RECV,
              (("degraded", "fresh"), ("checked", "fresh")),
              violations=("read",), propagate=False),
        Event("scrub", RECV, (("degraded", "fresh"),),
              violations=("read",), propagate=False),
        Event("mark_unavailable", RECV,
              (("fresh", "degraded"), ("read", "degraded"),
               ("checked", "degraded")),
              propagate=False),
        Event("snapshot_available", RECV, (("degraded", "checked"),),
              propagate=False),
        Event("snapshot_source", RECV,
              (("fresh", "read"), ("checked", "read")),
              violations=("degraded",), propagate=False),
        Event("build_spt", RECV,
              (("fresh", "read"), ("checked", "read")),
              violations=("degraded",), propagate=False),
        Event("diff_size", RECV,
              (("fresh", "read"), ("checked", "read")),
              violations=("degraded",), propagate=False),
    ),
    fix_hint="run recover()/scrub() before serving snapshot reads, and "
             "re-check snapshot_available() after marking snapshots "
             "unavailable",
)

#: chaos controller: scheduling a crash while one is already armed
#: silently overwrites the pending schedule
CHAOS = ProtocolSpec(
    name="chaos",
    kind="chaos controller",
    initial="idle",
    tracking=RECEIVER,
    classes=frozenset({"ChaosController", "ChaosDisk"}),
    hints=frozenset({"chaos", "controller", "_chaos", "disk"}),
    events=(
        Event("schedule_crash", RECV, (("idle", "armed"),),
              violations=("armed",), propagate=False),
        Event("power_on", RECV, (("armed", "idle"),),
              propagate=False),
    ),
    fix_hint="power_on() (or let the scheduled crash fire) before "
             "arming the next one — a second schedule_crash silently "
             "drops the pending schedule",
)

#: every protocol the typestate engine interprets, in reporting order
SPECS: Tuple[ProtocolSpec, ...] = (TXN, READER, READ_CONTEXT, RETRO, CHAOS)

SPECS_BY_NAME: Dict[str, ProtocolSpec] = {spec.name: spec for spec in SPECS}

#: event names that complete or advance a machine: statements firing one
#: propagate their POST-state along exception edges (a deregister that
#: itself raises must not read as "still registered" — flagging every
#: correct try/finally cleanup would drown the rule)
ADVANCING_EVENT_NAMES: FrozenSet[str] = frozenset(
    event.name
    for spec in SPECS
    for event in spec.events
    if event.transitions
)
