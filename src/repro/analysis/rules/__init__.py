"""replint rule registry.

Two kinds of checkers:

* :class:`Checker` — intraprocedural, run once per module;
* :class:`ProgramChecker` — interprocedural, run once per *program*
  (a whole-tree :class:`~repro.analysis.dataflow.program.Program` with
  call graph, CFGs and converged function summaries).

Adding a rule = write a module here, subclass the right base, decorate
with :func:`register` / :func:`register_program`.  Checkers decide
themselves which modules are in scope.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Type

from repro.analysis.context import ModuleContext
from repro.analysis.findings import ERROR, Finding
from repro.analysis.query import QUERY_REGISTRY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.dataflow.callgraph import FunctionInfo
    from repro.analysis.dataflow.program import Program

_REGISTRY: Dict[str, Type["Checker"]] = {}
_PROGRAM_REGISTRY: Dict[str, Type["ProgramChecker"]] = {}


def register(cls: Type["Checker"]) -> Type["Checker"]:
    _REGISTRY[cls.rule_id] = cls
    return cls


def register_program(cls: Type["ProgramChecker"]) -> Type["ProgramChecker"]:
    _PROGRAM_REGISTRY[cls.rule_id] = cls
    return cls


def all_checkers() -> List["Checker"]:
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def all_program_checkers() -> List["ProgramChecker"]:
    return [_PROGRAM_REGISTRY[rule_id]()
            for rule_id in sorted(_PROGRAM_REGISTRY)]


def rule_catalogue() -> Dict[str, type]:
    """Every rule id -> the class carrying its ``name``,
    ``description``, ``example`` and ``fix``: RPL000, the replint
    checkers and the RQL rules, for pragma hygiene, --list-rules,
    --explain and SARIF."""
    return dict(sorted({**_REGISTRY, **_PROGRAM_REGISTRY,
                        **QUERY_REGISTRY}.items()))


def _suppressed_at(ctx: ModuleContext, rule_id: str, line: int,
                   func_node: Optional[ast.AST]) -> bool:
    """Pragma check for findings anchored by (line, enclosing function)."""
    lines = [line]
    if func_node is not None and isinstance(
            func_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        first = min(
            [func_node.lineno] + [d.lineno for d in func_node.decorator_list])
        lines.extend([func_node.lineno, first - 1])
    for candidate in lines:
        pragma = ctx.pragmas.get(candidate)
        if pragma is not None and rule_id in pragma.rules \
                and pragma.justified:
            return True
    return False


class Checker:
    """Base class: one intraprocedural rule, run once per module."""

    rule_id: str = "RPL000"
    name: str = ""
    description: str = ""
    #: Minimal failing example / fix pattern for ``lint --explain``.
    example: str = ""
    fix: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    # -- emission helper ---------------------------------------------------

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str,
                hint: str = "", severity: str = ERROR) -> Optional[Finding]:
        """Build a finding unless a pragma suppresses it."""
        if ctx.suppressed(self.rule_id, node):
            return None
        return Finding(
            file=ctx.relpath,
            line=getattr(node, "lineno", 0),
            rule=self.rule_id,
            severity=severity,
            message=message,
            hint=hint,
            symbol=ctx.qualname(node),
            content_hash=ctx.function_hash(node),
        )


class ProgramChecker:
    """Base class: one interprocedural rule, run once per program."""

    rule_id: str = "RPL000"
    name: str = ""
    description: str = ""
    #: Minimal failing example / fix pattern for ``lint --explain``.
    example: str = ""
    fix: str = ""

    def check_program(self, program: "Program") -> Iterator[Finding]:
        raise NotImplementedError

    # -- emission helper ---------------------------------------------------

    def finding_at(self, program: "Program", func: "FunctionInfo",
                   line: int, message: str, hint: str = "",
                   severity: str = ERROR) -> Optional[Finding]:
        """Build a finding anchored inside ``func`` at ``line``."""
        ctx = program.contexts[func.module]
        if _suppressed_at(ctx, self.rule_id, line, func.node):
            return None
        return Finding(
            file=ctx.relpath,
            line=line,
            rule=self.rule_id,
            severity=severity,
            message=message,
            hint=hint,
            symbol=ctx.qualname(func.node),
            content_hash=ctx.function_hash(func.node),
        )


@register
class PragmaHygiene(Checker):
    """RPL000 has no analysis of its own: it reports the pragmas that
    :meth:`~repro.analysis.context.Pragma.hygiene` rejects (``.sql``
    files report theirs from :mod:`repro.analysis.query.sqlfile`), and
    the driver files a source that does not parse under it."""

    rule_id = "RPL000"
    name = "pragma-hygiene"
    description = (
        "lint pragmas (# replint: in Python, -- rqlint: in SQL) must "
        "name an existing rule or alias and carry a justification; a "
        "file that does not parse is reported here too"
    )
    example = (
        "txn = engine.begin()  # replint: ignore[RPL030]\n"
        "# RPL000: an escape hatch without a reason is itself a violation"
    )
    fix = (
        "append ' -- <reason>' to every pragma:\n"
        "txn = engine.begin()"
        "  # replint: ignore[RPL030] -- committed by the caller"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        known = rule_catalogue()
        for pragma in ctx.pragmas.values():
            finding = pragma.hygiene(ctx.relpath, known)
            if finding is not None:
                yield finding


# Import rule modules for their registration side effect.
from repro.analysis.rules import (  # noqa: E402,F401
    atomicity,
    confinement,
    escape,
    exceptions,
    lockorder,
    typestate,
)
