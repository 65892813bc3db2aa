"""RPL030 — protocol typestate violations and leaked lifecycles.

The typestate engine (:mod:`repro.analysis.dataflow.typestate`) runs
the declarative protocol registry (:mod:`repro.analysis.protocols`)
over every function: transactions must reach exactly one of
commit/rollback on *every* path (the exceptional exit of the
try/finally dual CFG included) and accept no operations afterwards,
MVCC reader handles registered via ``VersionStore.register_reader``
must be deregistered exactly once on every path, read contexts must be
closed on every path and serve no reads after ``close()``, the Retro
manager must finish ``recover``/``scrub`` before serving snapshot reads
and re-check ``snapshot_available`` after ``mark_unavailable``, and a
chaos controller must not be re-armed while a scheduled crash is still
pending.  Returning, yielding or storing a value hands the obligation
to whoever receives it.

The analysis is interprocedural — callee summaries export the events a
helper applies to its parameters — and only *definite* violations are
reported: if any path leaves the subject in a legal state, the join
keeps the rule silent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.analysis.findings import Finding
from repro.analysis.protocols import SPECS_BY_NAME
from repro.analysis.rules import ProgramChecker, register_program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.dataflow.program import Program


@register_program
class ProtocolTypestateChecker(ProgramChecker):
    rule_id = "RPL030"
    name = "protocol-typestate"
    description = (
        "lifecycle protocols must be followed: transactions, MVCC "
        "readers and read contexts completed exactly once on every "
        "path (exception unwinds and call boundaries included), no "
        "operations on a finished one, Retro reads only after recovery "
        "and availability checks, no re-arming a pending chaos crash"
    )
    example = (
        "txn = engine.begin()\n"
        "engine.commit(txn)\n"
        "engine.rollback(txn)   # RPL030: rollback after commit\n"
        "\n"
        "reader = versions.register_reader(ts)\n"
        "run_query(reader)      # raises -> handle never deregistered\n"
        "versions.deregister_reader(reader)"
    )
    fix = (
        "drive each handle to exactly one terminal state: guard late "
        "cleanup with txn.is_active(), and put deregister_reader/close "
        "in a finally block so exception paths complete the protocol too"
    )

    def check_program(self, program: "Program") -> Iterator[Finding]:
        for qualname in sorted(program.results):
            func = program.graph.functions[qualname]
            result = program.results[qualname]
            for violation in result.protocol_violations:
                spec = SPECS_BY_NAME.get(violation.protocol)
                finding = self.finding_at(
                    program, func, violation.line,
                    f"{violation.event}() on a {violation.kind} "
                    f"({violation.what}) that is already "
                    f"'{violation.state}'",
                    hint=spec.fix_hint if spec is not None else "",
                )
                if finding is not None:
                    yield finding
            for leak in result.protocol_leaks:
                path = "an exception unwind" if leak.exceptional \
                    else "a normal return"
                spec = SPECS_BY_NAME[leak.protocol]
                finding = self.finding_at(
                    program, func, leak.line,
                    f"{leak.kind} from {leak.what} never reaches "
                    f"{'/'.join(sorted(spec.complete))} on {path} path",
                    hint=spec.fix_hint,
                )
                if finding is not None:
                    yield finding
