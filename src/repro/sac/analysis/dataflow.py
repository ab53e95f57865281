"""Worklist dataflow over :mod:`repro.sac.analysis.cfg`.

A small, classic forward framework: an analysis supplies the
initial/boundary states, a join, and a per-block transfer function; the
solver iterates a worklist to the fixed point.  Two standard analyses
are provided —

* **reaching definitions** (may): which ``Assign`` actions can reach
  each program point; the basis of def-use chains and the
  unused-assignment lint,
* **must-defined** (must): variables definitely assigned on every path;
  the basis of the maybe-uninitialized lint.

States are frozensets so transfer functions stay pure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cfg import CFG, Action

__all__ = [
    "DataflowAnalysis",
    "solve",
    "DefSite",
    "reaching_definitions",
    "must_defined",
    "def_use_chains",
]


class DataflowAnalysis:
    """Interface of one forward dataflow problem over frozenset states."""

    def boundary(self, cfg: CFG) -> frozenset:
        """State at the entry block."""
        return frozenset()

    def initial(self, cfg: CFG) -> frozenset:
        """Optimistic initial state of every other block."""
        return frozenset()

    def join(self, states: list[frozenset]) -> frozenset:
        """Confluence operator (default: union / may-analysis)."""
        out: frozenset = frozenset()
        for s in states:
            out = out | s
        return out

    def transfer(self, block_id: int, actions: list[Action],
                 state: frozenset) -> frozenset:
        raise NotImplementedError


def solve(cfg: CFG, analysis: DataflowAnalysis) -> dict[int, tuple]:
    """Fixed point of ``analysis`` over ``cfg``.

    Returns ``{block_id: (state_in, state_out)}``: the states at block
    entry and exit.
    """
    blocks = cfg.blocks
    start = cfg.entry

    state_in: dict[int, frozenset] = {
        b.id: analysis.initial(cfg) for b in blocks
    }
    state_out: dict[int, frozenset] = {}
    state_in[start] = analysis.boundary(cfg)

    for b in blocks:
        state_out[b.id] = analysis.transfer(b.id, b.actions,
                                            state_in[b.id])

    work = [b.id for b in blocks]
    while work:
        bid = work.pop(0)
        preds = blocks[bid].preds
        if preds:
            new_in = analysis.join([state_out[p] for p in preds])
            if bid == start:
                new_in = analysis.join([new_in, analysis.boundary(cfg)])
        else:
            new_in = (analysis.boundary(cfg) if bid == start
                      else analysis.initial(cfg))
        new_out = analysis.transfer(bid, blocks[bid].actions, new_in)
        if new_in != state_in[bid] or new_out != state_out[bid]:
            state_in[bid] = new_in
            state_out[bid] = new_out
            for nxt in blocks[bid].succs:
                if nxt not in work:
                    work.append(nxt)
    return {b.id: (state_in[b.id], state_out[b.id]) for b in blocks}


# ---------------------------------------------------------------------------
# Reaching definitions and def-use chains.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DefSite:
    """One definition: the action at ``(block, index)`` assigning ``var``.

    ``block == -1`` marks parameter pseudo-definitions at function entry.
    """

    block: int
    index: int
    var: str


class _ReachingDefs(DataflowAnalysis):
    def __init__(self, params: tuple[str, ...]):
        self._params = params

    def boundary(self, cfg: CFG) -> frozenset:
        return frozenset(DefSite(-1, i, p)
                         for i, p in enumerate(self._params))

    def transfer(self, block_id, actions, state):
        defs = set(state)
        for i, act in enumerate(actions):
            if act.defines is not None:
                defs = {d for d in defs if d.var != act.defines}
                defs.add(DefSite(block_id, i, act.defines))
        return frozenset(defs)


def reaching_definitions(cfg: CFG) -> dict[int, tuple]:
    params = tuple(p.name for p in cfg.fun.params)
    return solve(cfg, _ReachingDefs(params))


def def_use_chains(cfg: CFG) -> dict[DefSite, list[tuple[int, int]]]:
    """Map each definition to the ``(block, action)`` sites that read it.

    Parameter pseudo-definitions are included (block -1), so unused
    parameters are distinguishable from unused assignments.
    """
    solved = reaching_definitions(cfg)
    chains: dict[DefSite, list[tuple[int, int]]] = {}
    params = tuple(p.name for p in cfg.fun.params)
    for i, p in enumerate(params):
        chains[DefSite(-1, i, p)] = []
    for block in cfg.blocks:
        live_defs = set(solved[block.id][0])
        for i, act in enumerate(block.actions):
            for name in act.uses:
                for d in live_defs:
                    if d.var == name:
                        chains.setdefault(d, []).append((block.id, i))
            if act.defines is not None:
                live_defs = {d for d in live_defs if d.var != act.defines}
                d = DefSite(block.id, i, act.defines)
                live_defs.add(d)
                chains.setdefault(d, [])
    return chains


# ---------------------------------------------------------------------------
# Must-defined (definite assignment).
# ---------------------------------------------------------------------------

_ALL = None  # sentinel: the universal set (top of the must-lattice)


class _MustDefined(DataflowAnalysis):
    def boundary(self, cfg: CFG) -> frozenset:
        return frozenset(p.name for p in cfg.fun.params)

    def initial(self, cfg: CFG) -> frozenset:
        # Optimistic top: "everything defined"; modelled as the set of
        # all names occurring in the function.
        names = set(p.name for p in cfg.fun.params)
        for b in cfg.blocks:
            for act in b.actions:
                names |= act.uses
                if act.defines:
                    names.add(act.defines)
        return frozenset(names)

    def join(self, states):
        out = None
        for s in states:
            out = s if out is None else (out & s)
        return out if out is not None else frozenset()

    def transfer(self, block_id, actions, state):
        defined = set(state)
        for act in actions:
            if act.defines is not None:
                defined.add(act.defines)
        return frozenset(defined)


def must_defined(cfg: CFG) -> dict[int, tuple]:
    """Definitely-assigned variables at each block boundary."""
    return solve(cfg, _MustDefined())

