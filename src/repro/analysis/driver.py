"""replint driver: walk a source tree, run every rule, report.

Entry points::

    python -m repro.analysis              # lint the installed repro tree
    python -m repro.cli lint [args...]    # same, via the main CLI
    analyze_paths([...]) / analyze_source(...)  # programmatic / tests

Two analysis phases run over every tree: the intraprocedural checkers
(one module at a time) and the interprocedural program checkers
(RPL011–RPL033), which see all modules at once through the dataflow
engine in :mod:`repro.analysis.dataflow`.

Exit status is 0 when no error-severity findings remain after pragma and
baseline filtering, 1 otherwise, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.context import ModuleContext
from repro.analysis.findings import (
    ERROR,
    AnalysisReport,
    Finding,
    load_baseline,
    save_baseline,
)
from repro.analysis.rules import all_checkers, all_program_checkers
from repro.analysis.sarif import render_sarif
from repro.errors import AnalysisError

DEFAULT_BASELINE = "replint.baseline"


def package_root() -> Path:
    """The repro package directory (the default lint target)."""
    return Path(__file__).resolve().parent.parent


def iter_source_files(root: Path) -> Iterable[Tuple[Path, str]]:
    """Yield (path, package-relative posix path) for every .py module."""
    if root.is_file():
        yield root, root.name
        return
    for path in sorted(root.rglob("*.py")):
        yield path, path.relative_to(root).as_posix()


def _load_context(source: str, relpath: str,
                  path: Optional[Path] = None
                  ) -> Tuple[Optional[ModuleContext], List[Finding]]:
    try:
        return ModuleContext.from_source(source, relpath, path), []
    except SyntaxError as exc:
        return None, [Finding(
            file=relpath, line=exc.lineno or 0, rule="RPL000",
            severity=ERROR, message=f"syntax error: {exc.msg}",
        )]


def analyze_contexts(contexts: Sequence[ModuleContext],
                     cache_dir: Optional[Path] = None,
                     focus: Optional[Set[str]] = None) -> List[Finding]:
    """Both analysis phases over an already-parsed set of modules.

    With ``focus`` (a set of module relpaths, from ``lint --changed``)
    the whole tree is still parsed — the call graph and converged
    summaries must be complete — but the per-module checkers and the
    reported program-rule findings are scoped to the focused modules
    plus their direct call-graph neighbors.
    """
    from repro.analysis.dataflow import Program

    return analyze_program(Program.from_contexts(
        contexts, cache_dir=cache_dir, focus=focus))


def analyze_program(program) -> List[Finding]:
    """Run every rule over a built :class:`Program` (the test suite
    builds one whole-tree program per session and shares it)."""
    scope = program.focus_scope()
    findings: List[Finding] = []
    for ctx in program.contexts.values():
        if scope is not None and ctx.relpath not in scope:
            continue
        findings.extend(ctx.unjustified_pragmas())
        for checker in all_checkers():
            findings.extend(checker.check(ctx))
    for program_checker in all_program_checkers():
        for finding in program_checker.check_program(program):
            if scope is None or finding.file in scope:
                findings.append(finding)
    return findings


def analyze_source(source: str, relpath: str,
                   path: Optional[Path] = None) -> List[Finding]:
    """Run every rule over one module's source text (test entry point)."""
    ctx, findings = _load_context(source, relpath, path)
    if ctx is None:
        return findings
    return findings + analyze_contexts([ctx])


def _collect_contexts(paths: Sequence[Path]
                      ) -> Tuple[List[ModuleContext], List[Finding], int]:
    contexts: List[ModuleContext] = []
    findings: List[Finding] = []
    seen: Set[str] = set()
    scanned = 0
    for root in paths:
        for path, relpath in iter_source_files(root):
            scanned += 1
            # Multi-root runs (src + benchmarks + examples) can produce
            # the same root-relative path twice (e.g. ``__init__.py``);
            # contexts are keyed by relpath downstream, so a collision
            # would silently drop a module from the program.  Qualify
            # with the root's name only when needed — single-root
            # relpaths (what tests and ``--changed`` match on) keep
            # their familiar shape.
            if relpath in seen:
                relpath = f"{root.name}/{relpath}"
            seen.add(relpath)
            source = path.read_text(encoding="utf-8")
            ctx, errors = _load_context(source, relpath, path)
            findings.extend(errors)
            if ctx is not None:
                contexts.append(ctx)
    return contexts, findings, scanned


def _changed_relpaths(contexts: Sequence[ModuleContext],
                      repo_dir: Optional[Path] = None
                      ) -> Optional[Set[str]]:
    """Context relpaths touched per ``git diff HEAD`` + untracked files.

    Returns ``None`` when git is unavailable or errors (callers fall
    back to a full run — a broken pre-commit hook must not pass by
    linting nothing).
    """
    base = ["git"] if repo_dir is None else ["git", "-C", str(repo_dir)]
    try:
        diff = subprocess.run(
            base + ["diff", "--name-only", "HEAD"],
            capture_output=True, text=True, check=True)
        untracked = subprocess.run(
            base + ["ls-files", "--others", "--exclude-standard"],
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    changed = [line.strip().replace("\\", "/")
               for line in (diff.stdout + untracked.stdout).splitlines()
               if line.strip().endswith(".py")]
    focus: Set[str] = set()
    for ctx in contexts:
        for path in changed:
            # Git paths are repo-relative, context relpaths are
            # package-relative — match on the common suffix.
            if path.endswith("/" + ctx.relpath) or path == ctx.relpath:
                focus.add(ctx.relpath)
    return focus


def analyze_paths(paths: Sequence[Path],
                  baseline: Optional[Set[str]] = None,
                  cache_dir: Optional[Path] = None,
                  changed_only: bool = False,
                  repo_dir: Optional[Path] = None) -> AnalysisReport:
    report = AnalysisReport()
    baseline = baseline or set()
    contexts, findings, report.files_scanned = _collect_contexts(paths)
    focus: Optional[Set[str]] = None
    if changed_only:
        focus = _changed_relpaths(contexts, repo_dir=repo_dir)
    findings.extend(analyze_contexts(contexts, cache_dir=cache_dir,
                                     focus=focus))
    for finding in findings:
        if finding.matches(baseline):
            report.baselined.append(finding)
        else:
            report.findings.append(finding)
    report.findings.sort()
    report.baselined.sort()
    return report


def _render_text(report: AnalysisReport, out) -> None:
    for finding in report.findings:
        print(finding.render(), file=out)
    summary = (
        f"replint: {report.files_scanned} files, "
        f"{len(report.errors)} errors, "
        f"{len(report.findings) - len(report.errors)} warnings"
    )
    if report.baselined:
        summary += f", {len(report.baselined)} baselined"
    print(summary, file=out)


def _render_json(report: AnalysisReport, out) -> None:
    payload = {
        "files_scanned": report.files_scanned,
        "findings": [vars(f) for f in report.findings],
        "baselined": [f.hashed_key for f in report.baselined],
    }
    print(json.dumps(payload, indent=2), file=out)


def _rule_descriptions() -> Dict[str, str]:
    described = {
        "RPL000": "pragma-hygiene: replint pragmas must parse and carry "
                  "a justification",
    }
    for checker in all_checkers() + all_program_checkers():
        described[checker.rule_id] = \
            f"{checker.name}: {checker.description}"
    return described


def _list_rules(out) -> None:
    from repro.analysis.query.rules import query_rule_descriptions

    described = dict(_rule_descriptions())
    described.update(query_rule_descriptions())
    for rule_id, text in sorted(described.items()):
        print(f"{rule_id} {text}", file=out)


#: RPL000 has no checker class (pragma hygiene is enforced inside
#: ModuleContext), so its --explain entry lives here.
_RPL000_EXPLAIN = (
    "pragma-hygiene",
    "replint pragmas must parse and carry a justification",
    "txn = engine.begin()  # replint: ignore[RPL030]\n"
    "# RPL000: an escape hatch without a reason is itself a violation",
    "append ' -- <reason>' to every pragma:\n"
    "txn = engine.begin()"
    "  # replint: ignore[RPL030] -- committed by the caller",
)


def _explain(rule_id: str, out) -> int:
    """Describe one rule: what it checks, a failing example, the fix."""
    from repro.analysis.query.rules import QUERY_REGISTRY
    from repro.analysis.rules import _PROGRAM_REGISTRY, _REGISTRY

    if rule_id == "RPL000":
        name, description, example, fix = _RPL000_EXPLAIN
    else:
        cls = (_REGISTRY.get(rule_id) or _PROGRAM_REGISTRY.get(rule_id)
               or QUERY_REGISTRY.get(rule_id))
        if cls is None:
            print(f"replint: unknown rule: {rule_id} "
                  f"(see --list-rules)", file=out)
            return 2
        name, description = cls.name, cls.description
        example, fix = cls.example, cls.fix
    print(f"{rule_id} — {name}", file=out)
    print(f"  {description}", file=out)
    print(file=out)
    print("example:", file=out)
    for line in example.splitlines():
        print(f"    {line}", file=out)
    print(file=out)
    print("fix:", file=out)
    for line in fix.splitlines():
        print(f"    {line}", file=out)
    return 0


def _dump_graph(which: str, paths: Sequence[Path], out,
                cache_dir: Optional[Path] = None) -> int:
    from repro.analysis.dataflow import Program

    contexts, findings, _ = _collect_contexts(paths)
    if findings:
        for finding in findings:
            print(finding.render(), file=out)
        return 2
    program = Program({ctx.relpath: ctx for ctx in contexts},
                      cache_dir=cache_dir)
    if which == "calls":
        print(program.call_graph_dot(), file=out, end="")
    else:
        print(program.latch_graph_dot(), file=out, end="")
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    arguments = list(sys.argv[1:] if argv is None else argv)
    if "--queries" in arguments:
        # Query-level lint (rqlint) has its own option surface; hand
        # the remaining arguments over wholesale.
        from repro.analysis.query.driver import run_query_lint

        arguments.remove("--queries")
        return run_query_lint(arguments, out=out)
    argv = arguments
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="replint: AST + dataflow invariant checks for the "
                    "repro tree",
    )
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files/directories to lint "
                             "(default: the repro package)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help=f"baseline file (default: ./{DEFAULT_BASELINE} "
                             f"when present)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="accept all current findings into the baseline")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default=None, dest="format",
                        help="output format (default: text)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable output "
                             "(alias for --format json)")
    parser.add_argument("--graph", choices=("calls", "latches"),
                        default=None,
                        help="dump the call graph / latch-order graph "
                             "as DOT and exit")
    parser.add_argument("--changed", action="store_true",
                        help="scope analysis to files in 'git diff HEAD' "
                             "(plus untracked files) and their call-graph "
                             "neighbors; falls back to a full run when "
                             "git is unavailable")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="directory for parsed-summary cache artifacts "
                             "(keyed on a source digest; safe to share "
                             "across runs)")
    parser.add_argument("--queries", action="store_true",
                        help="run rqlint (query-level merge-class "
                             "certification) over .sql corpora instead "
                             "of the Python rules")
    parser.add_argument("--list-rules", action="store_true",
                        help="describe every rule and exit")
    parser.add_argument("--explain", metavar="RPL0NN", default=None,
                        help="print one rule's description, a minimal "
                             "failing example, and the fix pattern, "
                             "then exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        _list_rules(out)
        return 0
    if args.explain is not None:
        return _explain(args.explain.upper(), out)

    output_format = args.format or ("json" if args.as_json else "text")

    paths = list(args.paths) or [package_root()]
    missing = [p for p in paths if not p.exists()]
    if missing:
        # A typo'd path must not read as "0 findings" in CI.
        for path in missing:
            print(f"replint: no such path: {path}", file=out)
        return 2

    if args.graph is not None:
        return _dump_graph(args.graph, paths, out, cache_dir=args.cache_dir)

    baseline_path = args.baseline or Path(DEFAULT_BASELINE)
    try:
        baseline = load_baseline(baseline_path)
    except AnalysisError as exc:
        print(f"replint: {exc}", file=out)
        return 2
    report = analyze_paths(paths, baseline, cache_dir=args.cache_dir,
                           changed_only=args.changed)

    if args.write_baseline:
        save_baseline(baseline_path, report.findings + report.baselined)
        print(f"replint: wrote {baseline_path} "
              f"({len(report.findings) + len(report.baselined)} entries)",
              file=out)
        return 0

    if output_format == "json":
        _render_json(report, out)
    elif output_format == "sarif":
        print(render_sarif(report, _rule_descriptions()), file=out, end="")
    else:
        _render_text(report, out)
    return 0 if report.ok else 1
