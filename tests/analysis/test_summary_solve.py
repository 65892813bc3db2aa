"""The interprocedural summary solve: a worklist over the reverse call
graph that converges once.

* at the fixpoint every function's kept result is what one more
  ``summarize`` against the final summaries returns — the evidence the
  rules report needs no second sweep;
* the visit count and the summaries do not depend on string hashing;
* a solve that does not settle within its visit budget is an error
  (exit 2 on the command line), not a silent report from unconverged
  summaries.
"""

import dataclasses
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro.analysis.dataflow.program as program_module
from repro.analysis import main
from repro.analysis.context import ModuleContext
from repro.analysis.dataflow.program import Program
from repro.analysis.dataflow.summaries import FunctionResult, summarize
from repro.analysis.driver import _collect_contexts
from repro.errors import AnalysisError

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

#: three modules: a cross-module call chain into mutual recursion that
#: only settles after the summaries of callees visited later have grown
MULTI_MODULE = {
    "core/leaf.py": textwrap.dedent(
        """
        import threading


        class Box:
            def __init__(self):
                self._latch = threading.Lock()
                self.items = []

            def put(self, item):
                with self._latch:
                    self.items.append(item)


        def store(box: Box, item):
            box.put(item)


        def finish(engine, txn):
            engine.commit(txn)
        """
    ),
    "core/middle.py": textwrap.dedent(
        """
        from repro.core.leaf import finish, store


        def ping(box, engine, txn, n):
            if n:
                return pong(box, engine, txn, n - 1)
            finish(engine, txn)
            return txn


        def pong(box, engine, txn, n):
            store(box, n)
            return ping(box, engine, txn, n)
        """
    ),
    "core/top.py": textwrap.dedent(
        """
        from repro.core.middle import ping


        def run(box, engine):
            txn = engine.begin()
            return ping(box, engine, txn, 3)
        """
    ),
}


def _fixtures_program() -> Program:
    contexts, findings, _ = _collect_contexts([FIXTURES], lint_sql=False)
    assert findings == []
    return Program.from_contexts(contexts)


def _multi_module_program() -> Program:
    return Program({
        relpath: ModuleContext.from_source(source, relpath)
        for relpath, source in MULTI_MODULE.items()
    })


@pytest.mark.parametrize("build", [_fixtures_program,
                                   _multi_module_program])
def test_kept_results_are_the_fixpoint(build):
    program = build()
    functions = program.graph.functions
    assert set(program.results) == set(functions)
    assert program.visits >= len(functions)
    for qualname, func in functions.items():
        again = summarize(func, program.cfg(func), program.graph,
                          program.summaries)
        assert program.results[qualname] == again, qualname
        assert program.summaries[qualname] \
            == program.results[qualname].summary


def test_multi_module_summaries_cross_the_recursion():
    program = _multi_module_program()
    pong = program.summaries["core/middle.py::pong"]
    # ping commits its txn parameter through finish; pong reaches it
    # only through the recursion, so the solve must have re-visited it.
    assert (2, "txn", "commit") in pong.protocol_ops
    # Box.put takes the box's latch; store and the recursion carry it.
    assert "Box._latch" in pong.acquires_locks
    run = program.summaries["core/top.py::run"]
    assert "Box._latch" in run.acquires_locks


_DUMP = textwrap.dedent(
    """
    import dataclasses, json, pathlib, sys
    from repro.analysis.dataflow.program import Program
    from repro.analysis.driver import _collect_contexts

    contexts, _, _ = _collect_contexts([pathlib.Path(sys.argv[1])],
                                       lint_sql=False)
    program = Program.from_contexts(contexts)

    def canon(value):
        if isinstance(value, (frozenset, set)):
            return sorted(repr(item) for item in value)
        return repr(value)

    print(json.dumps({
        "visits": program.visits,
        "summaries": {
            qualname: {field.name: canon(getattr(summary, field.name))
                       for field in dataclasses.fields(summary)}
            for qualname, summary in sorted(program.summaries.items())},
    }, sort_keys=True))
    """
)


def test_visits_and_summaries_repeat_under_two_hash_seeds():
    src = pathlib.Path(program_module.__file__).resolve().parents[3]
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", _DUMP, str(FIXTURES)], env=env,
            capture_output=True, text=True, check=True)
        runs.append(json.loads(done.stdout))
    assert runs[0]["visits"] == runs[1]["visits"]
    assert runs[0]["summaries"] == runs[1]["summaries"]


def test_whole_tree_solve_visits_each_function_at_most_twice(tree_analysis):
    program = tree_analysis.program
    assert len(program.graph.functions) \
        <= program.visits <= 2 * len(program.graph.functions)


def _never_settles(monkeypatch):
    """Make every ``summarize`` return a summary it never returned
    before: the solve can only stop at its visit budget."""
    real = program_module.summarize
    counter = itertools.count()

    def drifting(*args, **kwargs):
        result = real(*args, **kwargs)
        summary = dataclasses.replace(
            result.summary, acquires_locks=frozenset({str(next(counter))}))
        return FunctionResult(summary=summary)

    monkeypatch.setattr(program_module, "summarize", drifting)


SPIN = "def spin(n):\n    return spin(n - 1)\n"


def test_a_solve_that_never_settles_is_an_error(monkeypatch):
    _never_settles(monkeypatch)
    ctx = ModuleContext.from_source(SPIN, "core/spin.py")
    with pytest.raises(AnalysisError, match="did not converge"):
        Program({"core/spin.py": ctx})


def test_cli_exits_two_when_the_solve_never_settles(monkeypatch, tmp_path):
    _never_settles(monkeypatch)
    spin = tmp_path / "spin.py"
    spin.write_text(SPIN, encoding="utf-8")
    out = io.StringIO()
    assert main([str(spin), "--baseline", str(tmp_path / "none")],
                out=out) == 2
    assert "did not converge" in out.getvalue()
