"""Dataflow engine behaviors that the fixture corpus exercises only
indirectly: branch refinement, strong closes on rebinding loops, the
try/finally unwind path, and escape tracking.

Each case is a tiny program run through ``analyze_source`` under a
scoped path, so what is asserted is the *user-visible* consequence of
the engine decision (finding or no finding), not internal state.  The
subjects are the lifecycles the typestate engine owns: MVCC reader
handles (register/deregister) and transactions (begin/commit).
"""

from repro.analysis import analyze_source

SCOPE = "sql/engine_fixture.py"


def rules(source: str):
    return sorted(f.rule for f in analyze_source(source, SCOPE))


def test_rebinding_loop_release_is_a_strong_close():
    # ``deregister(reader); reader = register(later)`` in a loop makes
    # the name point at many registration sites.  The deregister must
    # close all of them (strong update) or the loop head would report a
    # phantom leak on every iteration after the first.
    source = (
        "def chase(versions, ts, steps):\n"
        "    reader = versions.register_reader(ts)\n"
        "    try:\n"
        "        for later in steps:\n"
        "            versions.deregister_reader(reader)\n"
        "            reader = versions.register_reader(later)\n"
        "        return reader.begin_ts\n"
        "    finally:\n"
        "        versions.deregister_reader(reader)\n"
    )
    assert rules(source) == []


def test_none_guard_in_finally_is_understood():
    # Path-sensitive refinement: on the branch where ``reader is None``
    # holds, the registration provably did not happen.
    source = (
        "def newest(versions, ts):\n"
        "    reader = None\n"
        "    try:\n"
        "        reader = versions.register_reader(ts)\n"
        "        return versions.read(1, reader.begin_ts)\n"
        "    finally:\n"
        "        if reader is not None:\n"
        "            versions.deregister_reader(reader)\n"
    )
    assert rules(source) == []


def test_truthiness_guard_is_understood():
    source = (
        "def newest(versions, ts):\n"
        "    reader = None\n"
        "    try:\n"
        "        reader = versions.register_reader(ts)\n"
        "        return versions.read(1, reader.begin_ts)\n"
        "    finally:\n"
        "        if reader:\n"
        "            versions.deregister_reader(reader)\n"
    )
    assert rules(source) == []


def test_release_only_outside_finally_leaks_on_the_exception_path():
    # The happy path deregisters, but an exception between the two
    # calls escapes with the reader registered: the unwind edge keeps
    # the site incomplete.
    source = (
        "def copy_out(versions, ts, sink):\n"
        "    reader = versions.register_reader(ts)\n"
        "    sink.write(versions.read(1, reader.begin_ts))\n"
        "    versions.deregister_reader(reader)\n"
    )
    findings = analyze_source(source, SCOPE)
    assert [f.rule for f in findings] == ["RPL030"]
    assert "exception" in findings[0].message


def test_escape_into_a_container_transfers_ownership():
    # Appending the handle to a caller-visible container is an
    # ownership transfer, not a leak.
    source = (
        "def preload(versions, stamps, out):\n"
        "    for ts in stamps:\n"
        "        out.append(versions.register_reader(ts))\n"
    )
    assert rules(source) == []


def test_storing_on_self_transfers_ownership():
    source = (
        "class Cursor:\n"
        "    def seek(self, versions, ts):\n"
        "        self.reader = versions.register_reader(ts)\n"
    )
    assert rules(source) == []


def test_with_statement_scopes_the_resource():
    # ``with`` transparency: the context manager owns the release.
    source = (
        "def scan(engine):\n"
        "    with engine.begin() as txn:\n"
        "        return txn.rows()\n"
    )
    assert rules(source) == []


def test_reassignment_without_release_still_leaks_the_first_pin():
    # Rebinding the only name for an open site loses the transaction
    # (the test's name predates the retirement of buffer-pool pins).
    source = (
        "def double_begin(engine):\n"
        "    txn = engine.begin()\n"
        "    txn = engine.begin()\n"
        "    engine.commit(txn)\n"
        "    return 0\n"
    )
    findings = analyze_source(source, SCOPE)
    assert [(f.rule, f.line) for f in findings] == [("RPL030", 2)]
    assert findings[0].symbol == "double_begin"


def test_interprocedural_release_helper_counts():
    # The commit happens inside a helper whose summary says it applies
    # the event to its parameter.
    source = (
        "def finish(engine, txn):\n"
        "    engine.commit(txn)\n"
        "\n"
        "\n"
        "def bump(engine, rows):\n"
        "    txn = engine.begin()\n"
        "    try:\n"
        "        rows.append(1)\n"
        "    finally:\n"
        "        finish(engine, txn)\n"
    )
    assert rules(source) == []
