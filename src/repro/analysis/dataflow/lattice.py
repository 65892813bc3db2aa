"""Forward dataflow framework: join-semilattice states + worklist solver.

An analysis supplies a finite-height join-semilattice (states must be
hashable/comparable values; ``join`` must be commutative, associative,
idempotent) and a ``transfer`` function.  The solver iterates a
worklist over the CFG until the OUT-state of every node stabilizes,
recomputing each IN-state from its predecessors on every visit so that
non-monotone transfers (strong updates such as a resource release
closing every may-alias site) settle to their final value instead of
accumulating stale pessimistic joins.

Termination: every state domain used by replint is a finite powerset
(statuses per acquisition site, held lock ids, alias sets)
over sites/names drawn from the finite program text, so each node has
finitely many possible states and the chaotic iteration stabilizes in
practice as soon as the alias shape settles; a visit budget backstops
the theoretical possibility of oscillation.

Exceptional edges carry whatever :meth:`ForwardAnalysis.exc_state`
returns — the PRE-state by default (the statement raised before
completing), letting analyses opt specific statements into POST-state
propagation (e.g. a release call assumed to have taken effect).
"""

from __future__ import annotations

from typing import Dict, Generic, List, TypeVar

from repro.analysis.dataflow.cfg import CFG, CFGNode

S = TypeVar("S")


class ForwardAnalysis(Generic[S]):
    """One forward may-analysis over a single function CFG."""

    def initial(self, cfg: CFG) -> S:
        """State at function entry."""
        raise NotImplementedError

    def bottom(self) -> S:
        """State of an unreached node (identity of ``join``)."""
        raise NotImplementedError

    def join(self, a: S, b: S) -> S:
        raise NotImplementedError

    def transfer(self, node: CFGNode, state: S) -> S:
        """POST-state of executing ``node`` from ``state``."""
        raise NotImplementedError

    def exc_state(self, node: CFGNode, pre: S, post: S) -> S:
        """State propagated along ``node``'s exceptional out-edges."""
        return pre

    def refine(self, node: CFGNode, state: S) -> S:
        """State entering an ``if`` branch proxy (``node.branch`` is the
        test expression plus the polarity of this branch)."""
        return state


def solve(cfg: CFG, analysis: ForwardAnalysis[S]) -> Dict[int, S]:
    """Fixpoint IN-states, keyed by node index.

    IN-states are *recomputed* from the predecessors' current OUT-states
    on every visit rather than accumulated in place.  Accumulation is
    only equivalent for monotone transfers, and the typestate analysis is
    deliberately not monotone: an event is a strong update that can
    shrink a site's status set once the alias sets have grown, and an
    accumulated join would keep the stale pessimistic contribution from
    an earlier visit alive forever (a phantom leak at EXIT).

    Termination: the chaotic iteration stabilizes once the alias
    components (which only depend on assignments, hence grow toward a
    fixed shape) settle, after which every transfer is a deterministic
    function of a stabilized IN.  A generous visit budget backstops the
    theoretical possibility of oscillation; on exhaustion the current
    states are returned (the analyses degrade to noisier-but-bounded
    results rather than hanging).
    """
    nodes = cfg.nodes
    preds: Dict[int, List[tuple]] = {node.index: [] for node in nodes}
    for node in nodes:
        for target in node.succs:
            preds[target].append((node.index, False))
        for target in node.esuccs:
            preds[target].append((node.index, True))

    in_states: Dict[int, S] = {
        node.index: analysis.bottom() for node in nodes
    }
    in_states[cfg.entry.index] = analysis.initial(cfg)
    out_states: Dict[int, S] = {}
    exc_states: Dict[int, S] = {}

    # Seed with every node (entry processed first): analyses record
    # events (acquisitions, edges) during transfer, so each node must be
    # visited at least once even if its IN-state never rises above bottom.
    worklist: List[int] = [node.index for node in reversed(nodes)]
    on_list = {node.index for node in nodes}
    budget = 64 * max(1, len(nodes)) * max(1, len(nodes))
    while worklist and budget > 0:
        budget -= 1
        index = worklist.pop()
        on_list.discard(index)
        node = nodes[index]

        pre = analysis.initial(cfg) if node is cfg.entry \
            else analysis.bottom()
        for pred_index, is_exc in preds[index]:
            if pred_index in out_states:
                carried = exc_states[pred_index] if is_exc \
                    else out_states[pred_index]
                pre = analysis.join(pre, carried)
        in_states[index] = pre

        if node.is_proxy or node.stmt is None:
            post = analysis.refine(node, pre) \
                if node.branch is not None else pre
        else:
            post = analysis.transfer(node, pre)
        exc = analysis.exc_state(node, pre, post)

        first = index not in out_states
        changed = first or out_states[index] != post \
            or exc_states[index] != exc
        out_states[index] = post
        exc_states[index] = exc
        if changed:
            for succ in (node.succs, node.esuccs):
                for target in succ:
                    if target not in on_list:
                        worklist.append(target)
                        on_list.add(target)
    return in_states
