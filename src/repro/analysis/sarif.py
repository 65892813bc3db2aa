"""Minimal SARIF 2.1.0 rendering for lint findings.

Just enough of the standard for GitHub code scanning to ingest the log
and surface findings as PR annotations: one run, one driver, one rule
descriptor per rule id seen, one result per finding with a physical
location.  Severities map ``error -> error``, everything else to
``warning``.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.analysis.findings import ERROR, AnalysisReport, Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")


def _level(finding: Finding) -> str:
    return "error" if finding.severity == ERROR else "warning"


def _result(finding: Finding, baselined: bool = False) -> Dict[str, object]:
    message = finding.message
    if finding.hint:
        message += f" ({finding.hint})"
    result: Dict[str, object] = {
        "ruleId": finding.rule,
        "level": _level(finding),
        "message": {"text": message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": finding.file,
                    "uriBaseId": "SRCROOT",
                },
                "region": {"startLine": max(finding.line, 1)},
            },
        }],
        "partialFingerprints": {
            "replintKey/v2": finding.hashed_key,
        },
    }
    if baselined:
        # Baselined findings still appear in the log (so dashboards see
        # the debt) but carry an external suppression, which SARIF
        # consumers use to keep them out of the failing set.
        result["suppressions"] = [{
            "kind": "external",
            "justification": "accepted in replint.baseline",
        }]
    return result


def render_sarif(report: AnalysisReport,
                 rule_descriptions: Dict[str, str]) -> str:
    """The report as a SARIF 2.1.0 JSON document.

    One run, one driver (``replint``) for the Python and SQL rules
    alike.  Live findings come first; baselined findings follow as
    suppressed results.
    """
    seen_rules: List[str] = sorted(
        {finding.rule for finding in report.findings}
        | {finding.rule for finding in report.baselined}
        | set(rule_descriptions))
    rules = [{
        "id": rule_id,
        "shortDescription": {
            "text": rule_descriptions.get(rule_id, rule_id),
        },
    } for rule_id in seen_rules]
    log = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "replint",
                    "informationUri": "https://example.invalid/repro/replint",
                    "rules": rules,
                },
            },
            "results": [_result(f) for f in report.findings]
            + [_result(f, baselined=True) for f in report.baselined],
        }],
    }
    return json.dumps(log, indent=2, sort_keys=True) + "\n"
