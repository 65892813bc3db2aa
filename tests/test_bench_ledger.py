"""BENCH_ledger.json, the checked-in trajectory of the ledger benchmark.

An append-only JSON list, one object per (change, arm, workload, metric)
median: ``{pr, arm, commit, seed, workload, metric, median, q1, q3,
runs}``.  ``commit`` is the tree that was measured, or null when it was
never committed (a change measured before its own commit exists, or a
revision replaced before it landed); quartiles are null where the run
kept none.  This checks that the file parses, that every row has that
shape, and that every commit it names is in this repository's history.
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "BENCH_ledger.json"
FIELDS = ("pr", "arm", "commit", "seed", "workload", "metric", "median",
          "q1", "q3", "runs")
WORKLOADS = {"scan_agg", "point_history", "table_fold", "update_history",
             "view_refresh", "server_mixed"}


def _rows():
    return json.loads(LEDGER.read_text(encoding="utf-8"))


def test_every_row_has_the_ledger_shape():
    rows = _rows()
    assert isinstance(rows, list) and rows
    for row in rows:
        assert tuple(row) == FIELDS, row
        assert isinstance(row["pr"], int)
        assert row["arm"] in ("parent", "change")
        assert row["workload"] in WORKLOADS
        assert isinstance(row["median"], (int, float))
        assert row["runs"] is None or row["runs"] >= 1
        if row["q1"] is not None:
            assert row["q1"] <= row["median"] <= row["q3"], row


def test_every_commit_resolves():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    commits = sorted({row["commit"] for row in _rows()
                      if row["commit"] is not None})
    missing = [
        commit for commit in commits
        if subprocess.run(["git", "-C", str(ROOT), "cat-file", "-e",
                           f"{commit}^{{commit}}"],
                          capture_output=True).returncode != 0
    ]
    assert missing == []
