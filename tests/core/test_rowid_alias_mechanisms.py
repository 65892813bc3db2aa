"""Every mechanism over tables keyed by their ``INTEGER PRIMARY KEY``.

The key is the rowid (DESIGN.md §3a): a probe by key seeks the table
tree, and an UPDATE of the key deletes the row and reinserts it
elsewhere in the tree.  The history below does everything that moves
rows between snapshots — inserts with explicit and NULL keys, deletes
by key, key-moving UPDATEs, a secondary index created later, and the
table dropped and re-created with its columns in another order — and
each mechanism, on the product path at 1 and 4 workers and through
``run_reference``, must store what the paper's text loop folds to:
``rewrite_qq(qq, sid)`` run per snapshot and folded by the mechanism.
"""

from __future__ import annotations

import pytest

from repro.core import RQLSession
from repro.core.folds import find_mechanism
from repro.core.rewrite import rewrite_qq

QS = "SELECT snap_id FROM SnapIds ORDER BY snap_id"
STEPS = 8


@pytest.fixture(scope="module")
def history():
    session = RQLSession()
    run = session.execute
    run("CREATE TABLE acct (k INTEGER PRIMARY KEY, g TEXT, v INTEGER)")
    run("CREATE TABLE owner (o INTEGER PRIMARY KEY, name TEXT)")
    run("INSERT INTO owner VALUES " + ", ".join(
        f"({o}, 'owner{o}')" for o in range(0, 6)))
    run("INSERT INTO acct VALUES " + ", ".join(
        f"({k}, '{'abc'[k % 3]}', {k % 5})" for k in range(1, 21)))
    for step in range(1, STEPS + 1):
        if step == 4:
            run("CREATE TABLE moved (k INTEGER PRIMARY KEY, v INTEGER, "
                "g TEXT)")
            run("INSERT INTO moved SELECT k, v, g FROM acct")
            run("DROP TABLE acct")
            run("CREATE TABLE acct (k INTEGER PRIMARY KEY, v INTEGER, "
                "g TEXT)")
            run("INSERT INTO acct SELECT k, v, g FROM moved")
            run("DROP TABLE moved")
        if step == 6:
            run("CREATE INDEX acct_v ON acct (v)")
        run(f"DELETE FROM acct WHERE k = {step + 1}")
        run(f"UPDATE acct SET k = -k WHERE k = {step + 10}")
        run(f"UPDATE acct SET v = v + 1 WHERE k BETWEEN {step} "
            f"AND {step + 3}")
        if step >= 4:
            run(f"INSERT INTO acct (k, v, g) VALUES ({100 - step}, "
                f"{step % 5}, 'b')")
            run(f"INSERT INTO acct (v, g) VALUES ({step % 3}, 'n')")
        else:
            run(f"INSERT INTO acct (k, g, v) VALUES ({100 - step}, 'b', "
                f"{step % 5})")
            run(f"INSERT INTO acct (g, v) VALUES ('n', {step % 3})")
        assert session.declare_snapshot() == step
    yield session
    session.close()


def text_fold(session, mechanism, arg, qq):
    """The oracle: per snapshot of Qs, the rewritten text through
    ``Database.execute``, folded by the mechanism's fold."""
    fold = find_mechanism(mechanism).fold(arg)
    for (sid,) in session.execute(QS).rows:
        result = session.db.execute(rewrite_qq(qq, sid))
        fold.step(sid, list(result.columns),
                  [tuple(row) for row in result.rows])
    return fold.result()


def stored(session, table):
    result = session.execute(f'SELECT * FROM "{table}"')
    return list(result.columns), [tuple(row) for row in result.rows]


CASES = [
    ("CollateData", None,
     "SELECT k, v, current_snapshot() AS sid FROM acct WHERE k = 12"),
    ("CollateData", None,
     "SELECT k, g FROM acct WHERE k = 100 - current_snapshot()"),
    ("CollateData", None,
     "SELECT k, g FROM acct WHERE k BETWEEN 5 AND 14 ORDER BY k"),
    ("CollateData", None,
     "SELECT a.k, o.name FROM acct a, owner o WHERE o.o = a.v "
     "AND a.k < 0"),
    ("AggregateDataInVariable", "sum",
     "SELECT SUM(v) AS s FROM acct WHERE k > 15"),
    ("AggregateDataInVariable", "max",
     "SELECT MAX(k) AS hi FROM acct"),
    ("AggregateDataInTable", [("c", "max"), ("hi", "max")],
     "SELECT g, COUNT(*) AS c, MAX(k) AS hi FROM acct GROUP BY g"),
    ("CollateDataIntoIntervals", None,
     "SELECT k, v FROM acct WHERE k < 0 OR k BETWEEN 2 AND 6"),
]


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("mechanism, arg, qq", CASES)
def test_mechanisms_match_the_reference_and_the_text(history, mechanism,
                                                    arg, qq, workers):
    expected = text_fold(history, mechanism, arg, qq)
    want = (expected.columns, expected.rows)
    assert expected.rows, qq
    history.run_mechanism(mechanism, QS, qq, "R", arg, workers=workers)
    assert stored(history, "R") == want, qq
    history.run_reference(mechanism, QS, qq, "R", arg)
    assert stored(history, "R") == want, qq


def test_the_history_is_probed_by_key_and_moves_keys(history):
    """The cases above do seek the table tree, and the history does
    move rows between key ranges."""
    plans = {qq: [line for (line,) in history.execute(
        "EXPLAIN " + rewrite_qq(qq, 3)).rows] for _, _, qq in CASES[:4]}
    assert all(any("USING INTEGER PRIMARY KEY" in line for line in lines)
               for lines in plans.values()), plans
    keys = [k for (k,) in history.execute("SELECT k FROM acct").rows]
    assert keys == sorted(keys) and any(k < 0 for k in keys)
    assert history.execute(
        "SELECT AS OF 1 COUNT(*) FROM acct WHERE k < 0").scalar() == 1
