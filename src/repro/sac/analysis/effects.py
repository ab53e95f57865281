"""Interprocedural memory-effects summaries (the substrate of ``SAC5xx``).

The reuse/in-place-update pass needs to answer two questions about a
call ``f(a, iv, ...)`` without re-reading ``f``'s body at every site:

1. **How does ``f`` read its array arguments?**  Per parameter the
   summary records :class:`ParamRead` entries with a :class:`ReadKind`:
   ``POINT`` (selected at exactly the value of one index-vector
   parameter), ``OFFSET`` (selected at an affine displacement of one
   index-vector parameter — the stencil read ``u[iv + ov - 1]``), or
   ``WHOLE`` (read in any other way).  The lattice is ordered
   ``NONE < POINT < OFFSET < WHOLE``; joins go up.
2. **May the return value alias an argument?**  ``may_return_params``
   holds indices of parameters the returned value can share a buffer
   with — directly, through a selection (the NumPy backend emits views
   for those), or transitively through another call.  A function whose
   returns are all fresh WITH-loop results has an empty set; one that
   can fall through a zero-trip loop and hand its argument back
   (``SetupPeriodicBorder``) does not.

Summaries are computed for the whole program at once by a fixpoint over
the (possibly recursive, possibly overloaded) call graph: everything
starts optimistic (no reads, no aliasing) and is re-derived until
stable; overloads of one name are joined at call sites, mirroring the
overload treatment in :class:`~repro.sac.analysis.shapes.ShapeAnalyzer`.

Everything here is *may* information rounded in the direction that keeps
the reuse pass sound: an unclassifiable read is ``WHOLE``, a call to an
unknown function may return any of its arguments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from ..ast_nodes import (
    Assign,
    Block,
    Call,
    Dot,
    Expr,
    FoldOp,
    FunDef,
    GenarrayOp,
    Generator,
    ModarrayOp,
    Program,
    Return,
    Select,
    Stmt,
    Var,
    WithLoop,
)
from ..ast_visit import walk_exprs
from ..builtins import is_builtin
from ..sactypes import BaseType, ShapeKind

__all__ = [
    "ReadKind",
    "VarRead",
    "ParamRead",
    "FunctionSummary",
    "EffectsAnalysis",
    "classify_index",
    "alias_sources",
]


class ReadKind(enum.IntEnum):
    """How an array's data is read; ordered so ``max`` is the join."""

    NONE = 0     #: not read at all (or only structurally: shape/dim)
    POINT = 1    #: selected at exactly an index variable's value
    OFFSET = 2   #: selected at an affine displacement of an index var
    WHOLE = 3    #: read in an unclassifiable way (passed whole, ...)

    def join(self, other: "ReadKind") -> "ReadKind":
        return self if self >= other else other


@dataclass(frozen=True)
class VarRead:
    """One classified data read of a named value inside an expression.

    ``index_var`` names the index variable the read is relative to for
    ``POINT``/``OFFSET`` kinds, ``None`` for ``WHOLE``.
    """

    name: str
    kind: ReadKind
    index_var: Optional[str] = None


@dataclass(frozen=True)
class ParamRead:
    """A :class:`VarRead` lifted to parameter positions."""

    param: int
    kind: ReadKind
    index_param: Optional[int] = None


@dataclass(frozen=True)
class FunctionSummary:
    """Memory effects of one function, as seen by its callers."""

    name: str
    arity: int
    #: Classified data reads of parameters.
    reads: frozenset[ParamRead] = frozenset()
    #: Parameter indices the return value may share a buffer with.
    may_return_params: frozenset[int] = frozenset()

    def read_kind(self, param: int) -> ReadKind:
        """Join of every recorded read kind of one parameter."""
        kind = ReadKind.NONE
        for r in self.reads:
            if r.param == param:
                kind = kind.join(r.kind)
        return kind

    @property
    def returns_fresh(self) -> bool:
        """True when the return value provably owns its buffer."""
        return not self.may_return_params


#: Builtins that inspect structure only — their argument's *data* is
#: never read, so a bare argument contributes no effect.
_STRUCTURAL_BUILTINS = frozenset({"shape", "dim"})


def classify_index(index: Expr, candidates: frozenset[str]
                   ) -> tuple[ReadKind, Optional[str]]:
    """Classify a selection index against candidate index variables.

    Returns ``(POINT, var)`` when the index is exactly one candidate
    variable, ``(OFFSET, var)`` when it is an expression mentioning
    exactly one candidate (an affine or loop-invariant displacement of
    it — every non-candidate in a WITH-loop body is loop-invariant),
    and ``(WHOLE, None)`` otherwise.
    """
    if isinstance(index, Var) and index.name in candidates:
        return ReadKind.POINT, index.name
    mentioned = {
        e.name for e in walk_exprs(index)
        if isinstance(e, Var) and e.name in candidates
    }
    if len(mentioned) == 1:
        return ReadKind.OFFSET, mentioned.pop()
    return ReadKind.WHOLE, None


class EffectsAnalysis:
    """Whole-program effect summaries, solved to a fixpoint."""

    def __init__(self, program: Program):
        self.program = program
        self.functions: dict[str, list[FunDef]] = {}
        for f in program.functions:
            self.functions.setdefault(f.name, []).append(f)
        self.summaries: dict[int, FunctionSummary] = {}
        self._solve()

    # -- public access -----------------------------------------------------

    def summary_of(self, fun: FunDef) -> FunctionSummary:
        return self.summaries[id(fun)]

    def call_summaries(self, name: str, arity: int
                       ) -> list[FunctionSummary]:
        """Summaries of every overload a call could resolve to."""
        return [self.summaries[id(f)]
                for f in self.functions.get(name, ())
                if f.arity == arity]

    def expr_reads(self, expr: Expr,
                   candidates: frozenset[str]) -> frozenset[VarRead]:
        """Every data read of a named value inside ``expr``.

        ``candidates`` fixes the index variables reads are classified
        against (a WITH-loop's generator variable for body-level
        queries, index-vector parameters for summaries).  Calls are
        translated through callee summaries, so a stencil helper's
        ``OFFSET`` reads surface at the call site.
        """
        out: set[VarRead] = set()
        self._expr_reads(expr, candidates, out)
        return frozenset(out)

    # -- fixpoint ----------------------------------------------------------

    def _solve(self) -> None:
        funs = list(self.program.functions)
        for f in funs:
            self.summaries[id(f)] = FunctionSummary(f.name, f.arity)
        height = sum(4 * (f.arity + 1) for f in funs) + 8
        for _ in range(height):
            changed = False
            for f in funs:
                new = self._summarize(f)
                if new != self.summaries[id(f)]:
                    self.summaries[id(f)] = new
                    changed = True
            if not changed:
                return
        # Unreachable (finite lattice, monotone transfer functions),
        # but stay sound if it ever triggers: assume the worst.
        for f in funs:
            everything = frozenset(range(f.arity))
            self.summaries[id(f)] = FunctionSummary(
                f.name, f.arity,
                reads=frozenset(ParamRead(i, ReadKind.WHOLE)
                                for i in everything),
                may_return_params=everything)

    # -- per-function derivation -------------------------------------------

    def _summarize(self, fun: FunDef) -> FunctionSummary:
        param_pos = {p.name: i for i, p in enumerate(fun.params)}
        candidates = frozenset(
            p.name for p in fun.params
            if p.type.base is BaseType.INT
            and p.type.kind is not ShapeKind.SCALAR)
        reads: set[ParamRead] = set()
        for expr in _statement_exprs(fun.body):
            for r in self.expr_reads(expr, candidates):
                if r.name not in param_pos:
                    continue
                if r.kind is ReadKind.NONE:
                    continue
                if r.index_var is not None and r.index_var in param_pos:
                    reads.add(ParamRead(param_pos[r.name], r.kind,
                                        param_pos[r.index_var]))
                else:
                    # WHOLE, or relative to a loop-local index variable
                    # — from the caller's view the read sweeps the
                    # whole index space.
                    reads.add(ParamRead(param_pos[r.name],
                                        ReadKind.WHOLE))

        local_sources = self._local_alias_sources(fun)
        may_return: set[int] = set()
        for value in _return_values(fun.body):
            for name in alias_sources(value, self, local_sources):
                if name in param_pos:
                    may_return.add(param_pos[name])
        return FunctionSummary(fun.name, fun.arity,
                               frozenset(reads), frozenset(may_return))

    def _expr_reads(self, expr: Expr, candidates: frozenset[str],
                    out: set[VarRead]) -> None:
        if isinstance(expr, Var):
            # A bare name in a data position: whole read.  (Scalar
            # variables land here too; they never alias an array, so
            # the imprecision is free.)
            out.add(VarRead(expr.name, ReadKind.WHOLE))
            return
        if isinstance(expr, Select):
            if isinstance(expr.array, Var):
                kind, var = classify_index(expr.index, candidates)
                out.add(VarRead(expr.array.name, kind, var))
            else:
                self._expr_reads(expr.array, candidates, out)
            self._expr_reads(expr.index, candidates, out)
            return
        if isinstance(expr, Call):
            self._call_reads(expr, candidates, out)
            return
        if isinstance(expr, WithLoop):
            gen = expr.generator
            for bound in (gen.lower, gen.upper, gen.step, gen.width):
                if bound is not None and not isinstance(bound, Dot):
                    self._expr_reads(bound, candidates, out)
            op = expr.operation
            if isinstance(op, GenarrayOp):
                self._expr_reads(op.shape, candidates, out)
            elif isinstance(op, ModarrayOp):
                self._expr_reads(op.array, candidates, out)
            elif isinstance(op, FoldOp):
                self._expr_reads(op.neutral, candidates, out)
            # The nested generator variable is deliberately NOT added
            # to the candidates: reads relative to it sweep the nested
            # loop's range, which classifies as an OFFSET of whichever
            # outer candidate also appears (u[iv + ov - 1]) or as
            # WHOLE when none does.
            self._expr_reads(op.body, candidates, out)
            return
        if isinstance(expr, (Generator, Dot)):
            return
        for child in _child_exprs(expr):
            self._expr_reads(child, candidates, out)

    def _call_reads(self, call: Call, candidates: frozenset[str],
                    out: set[VarRead]) -> None:
        if is_builtin(call.name):
            structural = call.name in _STRUCTURAL_BUILTINS
            for a in call.args:
                if isinstance(a, Var):
                    if not structural:
                        out.add(VarRead(a.name, ReadKind.WHOLE))
                else:
                    self._expr_reads(a, candidates, out)
            return
        summaries = self.call_summaries(call.name, len(call.args))
        for i, a in enumerate(call.args):
            if not isinstance(a, Var):
                self._expr_reads(a, candidates, out)
                continue
            if not summaries:
                out.add(VarRead(a.name, ReadKind.WHOLE))
                continue
            for s in summaries:
                for r in s.reads:
                    if r.param != i:
                        continue
                    out.add(self._translate_read(r, call, a.name,
                                                 candidates))

    def _translate_read(self, r: ParamRead, call: Call, name: str,
                        candidates: frozenset[str]) -> VarRead:
        """Map a callee's read of its own parameter into caller terms."""
        if r.kind is ReadKind.WHOLE or r.index_param is None \
                or r.index_param >= len(call.args):
            return VarRead(name, ReadKind.WHOLE)
        kind, var = classify_index(call.args[r.index_param], candidates)
        if kind is ReadKind.WHOLE:
            return VarRead(name, ReadKind.WHOLE)
        joined = (ReadKind.POINT
                  if r.kind is ReadKind.POINT and kind is ReadKind.POINT
                  else ReadKind.OFFSET)
        return VarRead(name, joined, var)

    def _local_alias_sources(self, fun: FunDef
                             ) -> dict[str, frozenset[str]]:
        """Flow-insensitive per-name alias-source sets, to fixpoint.

        Sound over-approximation: a name's set is the union over every
        assignment to it anywhere in the function, plus itself when it
        is a parameter.
        """
        assigns = list(_walk_assigns(fun.body))
        sources: dict[str, frozenset[str]] = {
            p.name: frozenset({p.name}) for p in fun.params
        }
        for _ in range(len(assigns) + 2):
            changed = False
            for a in assigns:
                new = alias_sources(a.value, self, sources)
                old = sources.get(a.target, frozenset())
                merged = old | new
                if merged != old:
                    sources[a.target] = merged
                    changed = True
            if not changed:
                break
        return sources


def alias_sources(expr: Expr, effects: EffectsAnalysis,
                  env: Optional[Mapping[str, frozenset[str]]] = None
                  ) -> frozenset[str]:
    """Names whose buffer the value of ``expr`` may share.

    ``env`` maps already-resolved names to their own source sets; a
    name absent from ``env`` is its own (only) source.  Fresh
    allocations — WITH-loop results, arithmetic, literals, builtin
    calls — have no sources.
    """
    environment: Mapping[str, frozenset[str]] = env or {}
    if isinstance(expr, Var):
        return environment.get(expr.name, frozenset({expr.name}))
    if isinstance(expr, Select):
        # The NumPy backend implements partial selection as a view.
        return alias_sources(expr.array, effects, environment)
    if isinstance(expr, Call):
        if is_builtin(expr.name):
            return frozenset()
        summaries = effects.call_summaries(expr.name, len(expr.args))
        if not summaries:
            out: frozenset[str] = frozenset()
            for a in expr.args:
                out |= alias_sources(a, effects, environment)
            return out
        out = frozenset()
        for s in summaries:
            for i in s.may_return_params:
                if i < len(expr.args):
                    out |= alias_sources(expr.args[i], effects,
                                         environment)
        return out
    # WITH-loop results, arithmetic, literals: freshly allocated.
    return frozenset()


# ---------------------------------------------------------------------------
# AST walking helpers.
# ---------------------------------------------------------------------------

def _child_exprs(expr: Expr) -> Iterator[Expr]:
    for v in vars(expr).values():
        if isinstance(v, Expr):
            yield v
        elif isinstance(v, tuple):
            for e in v:
                if isinstance(e, Expr):
                    yield e


def _statement_exprs(stmt: Stmt) -> Iterator[Expr]:
    """Top-level expressions of every statement under ``stmt``."""
    for v in vars(stmt).values():
        if isinstance(v, Expr):
            yield v
        elif isinstance(v, Block):
            for s in v.statements:
                yield from _statement_exprs(s)
        elif isinstance(v, Stmt):
            yield from _statement_exprs(v)
        elif isinstance(v, tuple):
            for s in v:
                if isinstance(s, Stmt):
                    yield from _statement_exprs(s)


def _walk_assigns(stmt: Stmt) -> Iterator[Assign]:
    if isinstance(stmt, Assign):
        yield stmt
        return
    for v in vars(stmt).values():
        if isinstance(v, Block):
            for s in v.statements:
                yield from _walk_assigns(s)
        elif isinstance(v, Stmt):
            yield from _walk_assigns(v)
        elif isinstance(v, tuple):
            for s in v:
                if isinstance(s, Stmt):
                    yield from _walk_assigns(s)


def _return_values(stmt: Stmt) -> Iterator[Expr]:
    if isinstance(stmt, Return):
        yield stmt.value
        return
    for v in vars(stmt).values():
        if isinstance(v, Block):
            for s in v.statements:
                yield from _return_values(s)
        elif isinstance(v, Stmt):
            yield from _return_values(v)
        elif isinstance(v, tuple):
            for s in v:
                if isinstance(s, Stmt):
                    yield from _return_values(s)
