"""Multi-session RQL server: many clients, one snapshotted store.

Layering (each module only reaches down):

* :mod:`repro.server.store` — :class:`SharedStore`: the shared engine
  pair, the owner-reentrant :class:`WriteGate`, per-session facades;
* :mod:`repro.server.registry` — :class:`SessionRegistry`: open/close/
  lookup with reap-on-teardown leak accounting;
* :mod:`repro.server.scheduler` — :class:`QueryScheduler`:
  concurrent retrospective queries through the partition/merge
  executor, with per-ticket cancellation;
* :mod:`repro.server.server` — :class:`RQLServer` /
  :class:`ClientHandle`: the in-process multi-client API;
* :mod:`repro.server.wire` — :class:`WireServer` / :class:`WireClient`:
  newline-delimited JSON over localhost TCP
  (``python -m repro.cli serve``).

The load-bearing property — concurrent schedules are byte-equivalent
to their serial replay in commit order, with zero leaked readers, read
contexts or sessions — is proven by the differential harness in
``tests/server/test_concurrent_equivalence.py``.
"""

from repro.server.registry import SessionRegistry
from repro.server.scheduler import QueryScheduler, QueryTicket
from repro.server.server import ClientHandle, RQLServer
from repro.server.store import GateHandle, SharedStore, WriteGate
from repro.server.wire import WireClient, WireServer

__all__ = [
    "ClientHandle",
    "GateHandle",
    "QueryScheduler",
    "QueryTicket",
    "RQLServer",
    "SessionRegistry",
    "SharedStore",
    "WireClient",
    "WireServer",
    "WriteGate",
]
