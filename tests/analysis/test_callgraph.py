"""Call-graph builder: dynamic dispatch must resolve where the types
are knowable and degrade to *conservatively unresolved* where not.

Resolution status is load-bearing for the program rules: RPL030 only
trusts protocol origins through RESOLVED edges, and an UNRESOLVED site is
the documented reason a cross-function fixture stops firing when its
callee is removed.  These tests pin the three dispatch shapes named in
the design: method override, aliased self attribute, and a function
stored in a dict.
"""

from repro.analysis.context import ModuleContext
from repro.analysis.dataflow.callgraph import (
    EXTERNAL,
    RESOLVED,
    UNRESOLVED,
    CallGraph,
)


def build(source: str, relpath: str = "core/fixture.py") -> CallGraph:
    ctx = ModuleContext.from_source(source, relpath)
    return CallGraph({ctx.relpath: ctx})


def sites_by_caller(graph: CallGraph):
    out = {}
    for site in graph.sites:
        out.setdefault(site.caller.qualname.split("::")[1], []).append(site)
    return out


OVERRIDE = """
class Base:
    def run(self):
        return 1


class Sub(Base):
    def run(self):
        return 2


def drive(worker: Base):
    return worker.run()
"""


def test_method_override_resolves_to_all_implementations():
    graph = build(OVERRIDE)
    (site,) = sites_by_caller(graph)["drive"]
    assert site.status == RESOLVED
    targets = {t.qualname.split("::")[1] for t in site.targets}
    # Dispatch through a Base-typed receiver may land on the override:
    # both implementations are edges, or RPL030 would miss a leak that
    # only the subclass introduces.
    assert targets == {"Base.run", "Sub.run"}


SELF_ATTR = """
class Pool:
    def fetch(self, pid):
        return pid


class Cache:
    def __init__(self, pool: Pool):
        self._pool = pool

    def read(self, pid):
        source = self._pool
        return source.fetch(pid)

    def helper(self, pid):
        return self.read(pid)
"""


def test_aliased_self_attribute_resolves_through_the_local_name():
    graph = build(SELF_ATTR)
    sites = sites_by_caller(graph)
    # ``source = self._pool`` then ``source.fetch(...)``: the local
    # alias carries the annotated attribute type.
    (fetch,) = sites["Cache.read"]
    assert fetch.status == RESOLVED
    assert [t.qualname.split("::")[1] for t in fetch.targets] == ["Pool.fetch"]
    # Plain self-dispatch resolves within the class.
    (read,) = sites["Cache.helper"]
    assert read.status == RESOLVED
    assert [t.qualname.split("::")[1] for t in read.targets] == ["Cache.read"]


ATTR_OF_ATTR = """
class Pool:
    def fetch(self, pid):
        return pid


class Cache:
    def __init__(self, pool: Pool):
        self._pool = pool
        self.alias = self._pool

    def read(self, pid):
        return self.alias.fetch(pid)
"""


def test_self_attribute_aliasing_another_attribute_is_unresolved():
    # ``self.alias = self._pool`` is one indirection beyond what the
    # builder tracks: the site must degrade to UNRESOLVED (with a
    # reason), never silently to an empty RESOLVED edge set.
    graph = build(ATTR_OF_ATTR)
    (site,) = sites_by_caller(graph)["Cache.read"]
    assert site.status == UNRESOLVED
    assert site.targets == []
    assert site.reason
    assert site in graph.unresolved_sites()


DICT_DISPATCH = """
def handle_a(x):
    return x


def handle_b(x):
    return -x


def dispatch(key, x):
    handlers = {"a": handle_a, "b": handle_b}
    return handlers[key](x)
"""


def test_function_stored_in_a_dict_is_conservatively_unresolved():
    graph = build(DICT_DISPATCH)
    (site,) = sites_by_caller(graph)["dispatch"]
    assert site.status == UNRESOLVED
    assert site.targets == []
    assert "computed" in site.reason


def test_stdlib_calls_are_external_not_unresolved():
    graph = build(
        "import json\n"
        "\n"
        "\n"
        "def encode(x):\n"
        "    return json.dumps(x)\n"
    )
    (site,) = sites_by_caller(graph)["encode"]
    assert site.status == EXTERNAL
    assert site not in graph.unresolved_sites()


def test_edges_and_callees_agree():
    graph = build(SELF_ATTR)
    edges = set(graph.edges())
    assert ("core/fixture.py::Cache.helper",
            "core/fixture.py::Cache.read") in edges
    assert graph.callees("core/fixture.py::Cache.read") == {
        "core/fixture.py::Pool.fetch"
    }


def test_cross_module_resolution():
    pool = ModuleContext.from_source(
        "class Pool:\n"
        "    def fetch(self, pid):\n"
        "        return pid\n",
        "storage/pool_fixture.py")
    user = ModuleContext.from_source(
        "from repro.storage.pool_fixture import Pool\n"
        "\n"
        "\n"
        "def peek(pool: Pool, pid):\n"
        "    return pool.fetch(pid)\n",
        "sql/user_fixture.py")
    graph = CallGraph({pool.relpath: pool, user.relpath: user})
    (site,) = [s for s in graph.sites
               if s.caller.qualname.endswith("peek")]
    assert site.status == RESOLVED
    assert [t.qualname for t in site.targets] == [
        "storage/pool_fixture.py::Pool.fetch"
    ]
