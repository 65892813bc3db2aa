"""``compare A.json B.json``: did B move any end-to-end metric?

Both files come from ``run --runs N``.  Per (workload, end-to-end
metric) the verdict follows the choosing-metrics rule: medians within
the metric's bound are ``unchanged``; beyond it ``improved`` or
``regressed``; and when either side's own run-to-run spread
(inter-quartile distance over median) is wider than the bound the pair
is ``unresolved`` — unless every run of one side beats every run of the
other, which no spread can explain away.
"""

from __future__ import annotations

import json
import pathlib
from typing import List, Sequence

from benchmarks.ledger.harness import median, ratio, spread

VERDICTS = ("improved", "unchanged", "regressed", "unresolved")


def verdict(before: Sequence[float], after: Sequence[float],
            better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    # worsening > 0 means B is worse, as a share of A's median
    worsening = sign * ratio(median(after) - median(before),
                             abs(median(before)))
    a = [sign * v for v in before]
    b = [sign * v for v in after]
    if max(b) < min(a):
        return "improved" if -worsening > bound else "unchanged"
    if min(b) > max(a) and worsening > bound:
        return "regressed"
    if max(spread(before), spread(after)) > bound:
        return "unresolved"
    if worsening > bound:
        return "regressed"
    if -worsening > bound:
        return "improved"
    return "unchanged"


def compare_files(before_path: pathlib.Path, after_path: pathlib.Path,
                  contract: dict) -> int:
    """Print one row per (workload, metric); exit code 1 on any
    ``regressed`` row or failed op."""
    with open(before_path, encoding="utf-8") as handle:
        before = json.load(handle)["workloads"]
    with open(after_path, encoding="utf-8") as handle:
        after = json.load(handle)["workloads"]
    counts = dict.fromkeys(VERDICTS, 0)
    rows: List[str] = []
    for workload in before:
        if workload not in after:
            continue
        for spec in contract["end_to_end"]:
            a = before[workload]["end_to_end"].get(spec["name"])
            b = after[workload]["end_to_end"].get(spec["name"])
            if not a or not b:
                continue
            result = verdict(a, b, spec["better"], spec["bound"])
            counts[result] += 1
            rows.append(
                f"{workload:15s} {spec['name']:12s} {result:10s} "
                f"A {median(a):.6g} (spread {spread(a):.3f}, n={len(a)}) "
                f"B {median(b):.6g} (spread {spread(b):.3f}, n={len(b)}) "
                f"{spec['unit']} bound {spec['bound']}")
    print("\n".join(rows))
    failed = sum(side[w]["failed"] for side in (before, after) for w in side)
    print("# " + ", ".join(f"{counts[v]} {v}" for v in VERDICTS)
          + f", {failed} failed ops")
    return 1 if counts["regressed"] or failed else 0
