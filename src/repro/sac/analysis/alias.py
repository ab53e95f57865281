"""May-alias analysis over function-local names.

A forward dataflow on PR 1's CFG whose state is a set of unordered
*may-alias pairs* ``{a, b}``: at this program point, the values bound to
``a`` and ``b`` may share a buffer.  The backend makes this more than a
theoretical concern — partial selection compiles to a NumPy basic-slice
**view**, and a call can return one of its arguments (see
:attr:`~repro.sac.analysis.effects.FunctionSummary.may_return_params`),
so ``b = a[0]`` and ``a = SetupPeriodicBorder(a)`` both propagate
buffers, not just values.

Transfer function of an assignment ``t = e``:

* compute the *base sources* of ``e`` — the named values whose buffer
  the result may share (:func:`~repro.sac.analysis.effects.alias_sources`:
  a variable is its own source, selection passes through, calls go
  through callee summaries, WITH-loops and arithmetic are fresh);
* the new ``t`` may alias each source and each of the source's current
  partners (the shared buffer may be the one the source shares);
* every pair involving the old ``t`` dies.

Distinct array parameters are assumed to alias each other at entry — a
caller is free to pass the same array twice.  The analysis is *may*:
absence of a pair is a proof of non-aliasing, presence proves nothing.
"""

from __future__ import annotations

from itertools import combinations

from ..ast_nodes import Assign, FunDef
from ..sactypes import ShapeKind
from .cfg import CFG, Action, build_cfg
from .dataflow import DataflowAnalysis, solve
from .effects import EffectsAnalysis, alias_sources

__all__ = ["AliasPairs", "AliasAnalysis"]

#: One alias state: canonically ordered name pairs.
AliasPairs = frozenset[tuple[str, str]]


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _apply(effects: EffectsAnalysis, act: Action,
           pairs: AliasPairs) -> AliasPairs:
    """Alias pairs after one action, given the pairs before it."""
    if act.defines is None or not isinstance(act.node, Assign):
        return pairs
    target = act.defines
    sources = alias_sources(act.node.value, effects)
    gen: set[tuple[str, str]] = set()
    for s in sources:
        partners = {s}
        for a, b in pairs:
            if a == s:
                partners.add(b)
            elif b == s:
                partners.add(a)
        for w in partners:
            if w != target:
                gen.add(_pair(target, w))
    kept = {p for p in pairs if target not in p}
    return frozenset(kept | gen)


class _MayAlias(DataflowAnalysis):
    direction = "forward"

    def __init__(self, fun: FunDef, effects: EffectsAnalysis):
        self._effects = effects
        self._array_params = [
            p.name for p in fun.params
            if p.type.kind is not ShapeKind.SCALAR
        ]

    def boundary(self, cfg: CFG) -> AliasPairs:
        return frozenset(_pair(a, b) for a, b in
                         combinations(self._array_params, 2))

    def transfer(self, block_id: int, actions: list[Action],
                 state: frozenset) -> frozenset:
        pairs: AliasPairs = state
        for act in actions:
            pairs = _apply(self._effects, act, pairs)
        return pairs


class AliasAnalysis:
    """Solved may-alias pairs of one function, queryable per action."""

    def __init__(self, fun: FunDef, effects: EffectsAnalysis,
                 cfg: CFG | None = None):
        self.fun = fun
        self.cfg = cfg if cfg is not None else build_cfg(fun)
        self._effects = effects
        self._solved = solve(self.cfg, _MayAlias(fun, effects))

    def pairs_before(self, block: int, index: int) -> AliasPairs:
        """Alias pairs in force just before action ``index`` of
        ``block`` (recomputed by walking the block prefix)."""
        pairs: AliasPairs = self._solved[block][0]
        for act in self.cfg.blocks[block].actions[:index]:
            pairs = _apply(self._effects, act, pairs)
        return pairs

    @staticmethod
    def may_alias(pairs: AliasPairs, a: str, b: str) -> bool:
        return a == b or _pair(a, b) in pairs

    @staticmethod
    def partners(pairs: AliasPairs, name: str) -> frozenset[str]:
        """Every name that may share a buffer with ``name``."""
        out = set()
        for a, b in pairs:
            if a == name:
                out.add(b)
            elif b == name:
                out.add(a)
        return frozenset(out)
