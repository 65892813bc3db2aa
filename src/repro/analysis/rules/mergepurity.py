"""RPL023 — registered merge functions must be pure.

The parallel executor's correctness argument (DESIGN §5b) leans on the
merge step being a *function* of the partition results: the
differential harness proves serial/parallel equivalence only for the
workloads it samples, so a merge that additionally mutates engine,
pager or session state can diverge on unsampled workloads without any
test noticing.  Scope: ``CrossSnapshotAggregate.merge`` (and subclass
overrides), the ``merge_*`` helpers in ``core/aggregates.py``, and every
``Fold.merge`` in ``core/folds.py`` (the one caller is the partition
executor: it may fold into ``self``, never mutate ``later``).

The purity summaries track, interprocedurally, which parameters a
function mutates and any effects on program-class state reached through
attributes or globals.  A bound merge method may fold into ``self``
(that accumulator is the merge's output) but nothing else; a plain
merge function may mutate nothing it was given.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules import ProgramChecker, register_program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.dataflow.callgraph import FunctionInfo
    from repro.analysis.dataflow.program import Program

def _descends_from(program: "Program", cls_qual: str, root: str) -> bool:
    graph = program.graph
    names = [cls_qual] + graph._all_bases(cls_qual)
    for qualname in names:
        cls = graph.classes.get(qualname)
        if cls is not None and cls.name == root:
            return True
    return False


def _merge_targets(program: "Program") -> List[Tuple["FunctionInfo", str]]:
    targets: List[Tuple["FunctionInfo", str]] = []
    for qualname in sorted(program.graph.functions):
        func = program.graph.functions[qualname]
        if func.cls is not None and func.name == "merge" \
                and _descends_from(program, func.cls.qualname,
                                   "CrossSnapshotAggregate"):
            targets.append((func, "aggregate merge"))
        elif func.cls is None and func.name.startswith("merge_") \
                and func.module.endswith("core/aggregates.py"):
            targets.append((func, "stored-value merge"))
        elif func.cls is not None and func.name == "merge" \
                and func.module.endswith("core/folds.py") \
                and _descends_from(program, func.cls.qualname, "Fold"):
            targets.append((func, "fold merge"))
    return targets


@register_program
class MergePurityChecker(ProgramChecker):
    rule_id = "RPL023"
    name = "merge-purity"
    description = (
        "registered merge functions (CrossSnapshotAggregate.merge, "
        "merge_* helpers, Fold.merge) must be pure: fold into "
        "the accumulator only, never mutate engine/pager/session state"
    )
    example = (
        "def merge(self, other):\n"
        "    self.engine.install(self.page)   # RPL023: a merge that\n"
        "    self.total += other.total        # mutates engine state\n"
        "    return self                      # re-executes on replay"
    )
    fix = (
        "def merge(self, other):\n"
        "    self.total += other.total\n"
        "    return self\n"
        "# side effects belong to the caller, after the fold completes"
    )

    def check_program(self, program: "Program") -> Iterator[Finding]:
        for func, kind in _merge_targets(program):
            summary = program.summaries.get(func.qualname)
            if summary is None:
                continue
            bound = bool(func.params) and func.params[0] == "self"
            allowed = {0} if bound else set()
            for index in sorted(summary.mutates_params - allowed):
                param = func.params[index] if index < len(func.params) \
                    else f"#{index}"
                finding = self.finding_at(
                    program, func, func.node.lineno,
                    f"{kind} {func.name} mutates its input "
                    f"'{param}' — merges must fold into the "
                    f"accumulator only",
                    hint="copy the input (e.g. list(earlier)) before "
                         "building the merged value",
                )
                if finding is not None:
                    yield finding
            for effect in sorted(summary.impure_effects):
                finding = self.finding_at(
                    program, func, func.node.lineno,
                    f"{kind} {func.name} has a side effect: {effect}",
                    hint="merge functions run during result assembly; "
                         "state they touch is not covered by the "
                         "differential equivalence harness",
                )
                if finding is not None:
                    yield finding
