"""Known-good RPL030 counterpart.

``settle`` reaches exactly one terminal state per path — commit on the
happy path, rollback on the unwind — and nothing fires afterwards.
``scan`` deregisters in a ``finally``, so the exceptional exit
completes the reader protocol too.  The rest are the sanctioned ways to
discharge a completion obligation: try/finally, a with-statement,
returning the value to the caller, and storing it on ``self``.
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


def scan(versions, ts, pages):
    reader = versions.register_reader(ts)
    try:
        return sum(pages)
    finally:
        versions.deregister_reader(reader)


def peek(engine, page_id):
    # try/finally: closed on the normal and the exceptional exit.
    ctx = engine.begin_read()
    try:
        return engine.read_source(ctx).fetch(page_id)
    finally:
        ctx.close()


def peek_with(engine, page_id):
    # with-statement: __exit__ closes.
    with engine.begin_read() as ctx:
        return engine.read_source(ctx).fetch(page_id)


def open_txn(engine):
    # Returned to the caller: ownership transfer.
    return engine.begin()


def count_dirty(engine):
    # Interprocedural origin (via open_txn's summary), finished here.
    txn = open_txn(engine)
    try:
        return len(txn.dirty)
    finally:
        engine.rollback(txn)


class Cursor:
    def open(self, engine):
        # Stored on self: the owning object's close() finishes them.
        self.txn = engine.begin()
        self.ctx = engine.begin_read()
