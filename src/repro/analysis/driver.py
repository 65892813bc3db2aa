"""The lint driver: walk a source tree, run every rule, report once.

Entry points::

    python -m repro.analysis [paths...]   # lint the given files/trees
    python -m repro.cli lint [args...]    # same, via the main CLI
    analyze_paths([...]) / analyze_source(...)  # programmatic / tests

The file suffix picks the linter.  ``.py`` modules go through
:class:`~repro.analysis.context.ModuleContext` and the replint rules:
the intraprocedural checkers (one module at a time) and the
interprocedural program checkers (RPL011–RPL033), which see all modules
at once through the dataflow engine in :mod:`repro.analysis.dataflow`.
``.sql`` lint files go through
:class:`~repro.analysis.query.sqlfile.SqlCorpus` and merge-class
certification (RQL100–106).  Every run also re-certifies the two golden
corpora — mechanism verdicts (:mod:`repro.workloads.corpus`) and plans
(:mod:`repro.workloads.plans`) — and reports only drift from them.

All findings land in one report with one baseline (``replint.baseline``)
and one renderer per format.  Exit status is 0 when no error-severity
findings remain after pragma and baseline filtering, 1 otherwise, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from repro.analysis.context import ModuleContext
from repro.analysis.findings import (
    ERROR,
    AnalysisReport,
    Finding,
    load_baseline,
    save_baseline,
)
from repro.analysis.query.planlint import PlanCertificate, certify_plan
from repro.analysis.query.sqlfile import SqlCorpus
from repro.analysis.rules import (
    all_checkers,
    all_program_checkers,
    rule_catalogue,
)
from repro.analysis.sarif import render_sarif
from repro.errors import AnalysisError
from repro.sql.certify import MergeCertificate, certify_mechanism
from repro.sql.stats import DeclaredStats
from repro.workloads import corpus as verdict_corpus
from repro.workloads import plans as plan_corpus

DEFAULT_BASELINE = "replint.baseline"


def package_root() -> Path:
    """The repro package directory (the default lint target)."""
    return Path(__file__).resolve().parent.parent


def iter_source_files(root: Path) -> Iterable[Tuple[Path, str]]:
    """Yield (path, root-relative posix path) for every .py and .sql
    file under ``root`` (or ``root`` itself, given a file)."""
    if root.is_file():
        yield root, root.name
        return
    for path in sorted(root.rglob("*")):
        if path.suffix in (".py", ".sql") and path.is_file():
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


def analyze_contexts(contexts: Sequence[ModuleContext]) -> List[Finding]:
    """Both analysis phases over an already-parsed set of modules."""
    from repro.analysis.dataflow import Program

    return analyze_program(Program.from_contexts(contexts))


def analyze_program(program) -> List[Finding]:
    """Run every rule over a built :class:`Program` (the test suite
    builds one whole-tree program per session and shares it)."""
    findings: List[Finding] = []
    for ctx in program.contexts.values():
        for checker in all_checkers():
            findings.extend(checker.check(ctx))
    for program_checker in all_program_checkers():
        findings.extend(program_checker.check_program(program))
    return findings


def analyze_source(source: str, relpath: str,
                   path: Optional[Path] = None) -> List[Finding]:
    """Lint one file's text; the suffix of ``relpath`` picks the linter."""
    if relpath.endswith(".sql"):
        return SqlCorpus(relpath).parse(source).certify()
    ctx, findings = _load_context(source, relpath, path)
    if ctx is None:
        return findings
    return findings + analyze_contexts([ctx])


def _collect_contexts(paths: Sequence[Path], lint_sql: bool = True
                      ) -> Tuple[List[ModuleContext], List[Finding], int]:
    """Walk ``paths`` once: parse each .py file into a context, lint
    each .sql file on the spot (unless ``lint_sql`` is off)."""
    contexts: List[ModuleContext] = []
    findings: List[Finding] = []
    seen: Set[str] = set()
    scanned = 0
    for root in paths:
        for path, relpath in iter_source_files(root):
            is_sql = path.suffix == ".sql"
            if is_sql and not lint_sql:
                continue
            scanned += 1
            # Multi-root runs (src + benchmarks + examples) can produce
            # the same root-relative path twice (e.g. ``__init__.py``);
            # contexts are keyed by relpath downstream, so a collision
            # would silently drop a module from the program.  Qualify
            # with the root's name only when needed — single-root
            # relpaths (what tests and scoped rules match on) keep
            # their familiar shape.
            if relpath in seen:
                relpath = f"{root.name}/{relpath}"
            seen.add(relpath)
            source = path.read_text(encoding="utf-8")
            if is_sql:
                findings.extend(analyze_source(source, relpath))
                continue
            ctx, errors = _load_context(source, relpath, path)
            findings.extend(errors)
            if ctx is not None:
                contexts.append(ctx)
    return contexts, findings, scanned


def certify_entry(entry: verdict_corpus.CorpusEntry,
                  schema=None) -> MergeCertificate:
    """Certify one verdict-corpus entry (against its ``corpus_schema``
    by default)."""
    return certify_mechanism(
        entry.mechanism, entry.qs, entry.qq, arg=entry.arg,
        schema=schema if schema is not None
        else verdict_corpus.corpus_schema(),
        file=f"<corpus:{entry.name}>", symbol=entry.name,
    )


def certify_plan_entry(entry: plan_corpus.PlanEntry,
                       schema=None) -> PlanCertificate:
    """Certify one golden-plan entry (against its ``plan_schema`` by
    default)."""
    return certify_plan(
        entry.sql,
        schema if schema is not None else plan_corpus.plan_schema(),
        DeclaredStats(entry.stats),
        file=f"<plans:{entry.name}>", symbol=entry.name,
        golden=entry.golden or None,
        latest_snapshot=entry.latest_snapshot,
    )


def _golden_verdicts() -> Iterator[Tuple[str, str, str, object, object]]:
    """(corpus, entry name, drift rule, certified, recorded) for every
    entry of both golden corpora.

    A verdict entry is its merge class and rule set; a plan entry is its
    rendering and rule set (RQL110 is the rendering comparison itself,
    so it is left out of the certified set).
    """
    schema = verdict_corpus.corpus_schema()
    # Each corpus is read at call time, so swapping one in its module
    # (a doctored entry in a test) is what the next run certifies.
    for entry in verdict_corpus.CORPUS:
        certificate = certify_entry(entry, schema=schema)
        yield ("corpus", entry.name, "RQL100",
               (certificate.merge_class,
                tuple(sorted({f.rule for f in certificate.findings}))),
               (entry.expected_class, tuple(sorted(entry.expected_rules))))
    for entry in plan_corpus.PLAN_CORPUS:
        certificate = certify_plan_entry(entry, schema=schema)
        yield ("plans", entry.name, "RQL110",
               (tuple(certificate.rendering),
                tuple(sorted({f.rule for f in certificate.findings
                              if f.rule != "RQL110"}))),
               (tuple(entry.golden), tuple(sorted(entry.expected_rules))))


def corpus_drift() -> Tuple[List[Finding], int]:
    """Re-certify both golden corpora; only *drift* is reported.

    The corpora deliberately hold serial-only, warning and bad-statistics
    entries — their findings are the golden data, not lint debt — so a
    run stays clean unless a verdict moves away from the recorded one.
    Returns the drift findings and the number of entries certified.
    """
    findings: List[Finding] = []
    entries = 0
    for corpus, name, rule, got, want in _golden_verdicts():
        entries += 1
        if got != want:
            findings.append(Finding(
                file=f"<{corpus}:{name}>", line=1, rule=rule,
                severity=ERROR, symbol=name,
                message=f"golden verdict drift: certified {got!r}, "
                        f"corpus expects {want!r}",
                hint=f"update repro/workloads/{corpus}.py only in the "
                     f"change that moves the verdict",
            ))
    return findings, entries


def analyze_paths(paths: Sequence[Path],
                  baseline: Optional[Set[str]] = None) -> AnalysisReport:
    report = AnalysisReport()
    baseline = baseline or set()
    contexts, findings, report.files_scanned = _collect_contexts(paths)
    findings.extend(analyze_contexts(contexts))
    drift, report.corpus_entries = corpus_drift()
    findings.extend(drift)
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
        f"{report.corpus_entries} corpus entries, "
        f"{len(report.errors)} errors, "
        f"{len(report.findings) - len(report.errors)} warnings"
    )
    if report.baselined:
        summary += f", {len(report.baselined)} baselined"
    print(summary, file=out)


def _render_json(report: AnalysisReport, out) -> None:
    payload = {
        "files_scanned": report.files_scanned,
        "corpus_entries": report.corpus_entries,
        "findings": [vars(f) for f in report.findings],
        "baselined": [f.hashed_key for f in report.baselined],
    }
    print(json.dumps(payload, indent=2), file=out)


def _rule_descriptions() -> Dict[str, str]:
    return {rule_id: f"{cls.name}: {cls.description}"
            for rule_id, cls in rule_catalogue().items()}


def _explain(rule_id: str, out) -> int:
    """Describe one rule: what it checks, a failing example, the fix."""
    cls = rule_catalogue().get(rule_id)
    if cls is None:
        print(f"replint: unknown rule: {rule_id} (see --list-rules)",
              file=out)
        return 2
    print(f"{rule_id} — {cls.name}", file=out)
    print(f"  {cls.description}", file=out)
    for heading, text in (("example", cls.example), ("fix", cls.fix)):
        print(file=out)
        print(f"{heading}:", file=out)
        for line in text.splitlines():
            print(f"    {line}", file=out)
    return 0


def _dump_graph(which: str, paths: Sequence[Path], out) -> int:
    from repro.analysis.dataflow import Program

    contexts, findings, _ = _collect_contexts(paths, lint_sql=False)
    if findings:
        for finding in findings:
            print(finding.render(), file=out)
        return 2
    program = Program.from_contexts(contexts)
    if which == "calls":
        print(program.call_graph_dot(), file=out, end="")
    else:
        print(program.latch_graph_dot(), file=out, end="")
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="replint: invariant checks for .py modules, "
                    "merge-class certification for .sql lint files, "
                    "and the golden-corpus drift gate",
    )
    parser.add_argument("paths", nargs="*", type=Path,
                        help=".py/.sql files and directories to lint "
                             "(default: the repro package)")
    parser.add_argument("--baseline", type=Path, default=None,
                        help=f"baseline file (default: ./{DEFAULT_BASELINE} "
                             f"when present)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="accept all current findings into the baseline")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="output format")
    parser.add_argument("--graph", choices=("calls", "latches"),
                        default=None,
                        help="dump the Python call graph / latch-order "
                             "graph as DOT and exit")
    parser.add_argument("--list-rules", action="store_true",
                        help="describe every rule and exit")
    parser.add_argument("--explain", metavar="RULE", default=None,
                        help="print one rule's description, a minimal "
                             "failing example, and the fix pattern, "
                             "then exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, text in _rule_descriptions().items():
            print(f"{rule_id} {text}", file=out)
        return 0
    if args.explain is not None:
        return _explain(args.explain.upper(), out)

    paths = list(args.paths) or [package_root()]
    missing = [p for p in paths if not p.exists()]
    if missing:
        # A typo'd path must not read as "0 findings" in CI.
        for path in missing:
            print(f"replint: no such path: {path}", file=out)
        return 2

    baseline_path = args.baseline or Path(DEFAULT_BASELINE)
    try:
        if args.graph is not None:
            return _dump_graph(args.graph, paths, out)
        report = analyze_paths(paths, load_baseline(baseline_path))
    except AnalysisError as exc:
        # A malformed baseline, or summaries that did not converge.
        print(f"replint: {exc}", file=out)
        return 2

    if args.write_baseline:
        save_baseline(baseline_path, report.findings + report.baselined)
        print(f"replint: wrote {baseline_path} "
              f"({len(report.findings) + len(report.baselined)} entries)",
              file=out)
        return 0

    if args.format == "json":
        _render_json(report, out)
    elif args.format == "sarif":
        print(render_sarif(report, _rule_descriptions()), file=out, end="")
    else:
        _render_text(report, out)
    return 0 if report.ok else 1
