"""Known-bad RPL030: one protocol-typestate violation and four leaks.

``settle`` drives a transaction to *two* terminal states — the late
rollback fires on a definitely-committed transaction.  ``scan`` only
deregisters its MVCC reader on the happy path; the exceptional exit of
the dual CFG still holds a registered handle.  ``bump`` does the same
to a transaction, ``peek`` never closes its read context at all, and
``count_dirty`` leaks a transaction it never visibly began.
"""


def settle(engine, pages):
    txn = engine.begin()
    try:
        for page_id, payload in pages:
            engine.page_source(txn).write(page_id, payload)
        engine.commit(txn)
    except Exception:
        engine.rollback(txn)
        raise
    engine.rollback(txn)


def scan(versions, ts, pages):
    reader = versions.register_reader(ts)
    total = sum(pages)
    versions.deregister_reader(reader)
    return total


def bump(engine, page_id, payload):
    # Committed on the happy path only: a failed write unwinds with the
    # transaction still active (and the engine's writer slot taken).
    txn = engine.begin()
    engine.page_source(txn).write(page_id, payload)
    engine.commit(txn)


def peek(engine, page_id):
    # Bound to a name that is neither closed nor handed on: the read
    # context (and the MVCC reader behind it) leaks on normal return.
    ctx = engine.begin_read()
    return engine.read_source(ctx).fetch(page_id)


def open_txn(engine):
    # Ownership transfer: fine on its own, the caller must finish it.
    return engine.begin()


def count_dirty(engine):
    # Interprocedural leak: the begin happens inside open_txn.  No
    # begin-like call appears in this function, so a checker that looks
    # at one function at a time sees nothing to track here.
    txn = open_txn(engine)
    return len(txn.dirty)
