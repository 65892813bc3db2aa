"""``ROUND`` side by side with stdlib ``sqlite3``.

Each case is one statement, run as written in both engines: the result
must be the same value of the same class (a float, or NULL).  SQLite
rounds half away from zero, treats negative digits as 0, and answers
NULL for a NULL digit count; its printf-based rounding makes ``2.675``
(stored as 2.67499999...) round to 2.68.
"""

from __future__ import annotations

import random
import sqlite3

import pytest

from repro.sql.database import Database

CASES = [
    "ROUND(2.5)",
    "ROUND(-2.5)",
    "ROUND(0.5)",
    "ROUND(-0.4)",
    "ROUND(2.675, 2)",
    "ROUND(-2.675, 2)",
    "ROUND(1.005, 2)",
    "ROUND(0.125, 2)",
    "ROUND(1234.5, -1)",
    "ROUND(1234.5678, -3)",
    "ROUND(2.5, NULL)",
    "ROUND(NULL)",
    "ROUND(NULL, 2)",
    "ROUND('2.5')",
    "ROUND('2.675', 2)",
    "ROUND(3)",
    "ROUND(-7, 2)",
    "ROUND(1e20, 2)",
    "ROUND(123.456, 40)",
    "ROUND(0.49999999999999994)",
]


@pytest.fixture(scope="module")
def engines():
    db = Database()
    lite = sqlite3.connect(":memory:")
    yield db, lite
    lite.close()
    db.close()


def _both(engines, expression):
    db, lite = engines
    ours = db.execute(f"SELECT {expression}").rows[0][0]
    theirs = lite.execute(f"SELECT {expression}").fetchone()[0]
    return ours, theirs


@pytest.mark.parametrize("expression", CASES)
def test_round_matches_sqlite(engines, expression):
    ours, theirs = _both(engines, expression)
    assert (type(ours), ours) == (type(theirs), theirs)


def test_round_matches_sqlite_over_a_sweep(engines):
    """Values with up to six decimals, at -2 to 8 digits, many of them
    exact halves of the last digit kept."""
    rng = random.Random(41)
    cases = [(round(rng.uniform(-1000, 1000), rng.randint(0, 6)),
              rng.randint(-2, 8)) for _ in range(2000)]
    cases += [(k + 0.5, 0) for k in range(-20, 20)]
    cases += [(k / 1000 + 0.0005, 3) for k in range(-200, 200)]
    db, lite = engines
    for value, digits in cases:
        ours = db.execute(f"SELECT ROUND({value!r}, {digits})").rows[0][0]
        theirs = lite.execute("SELECT ROUND(?, ?)",
                              (value, digits)).fetchone()[0]
        assert ours == theirs, (value, digits)
