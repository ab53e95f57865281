"""WITH-loop folding (producer/consumer fusion).

The optimization the paper credits for SAC's competitive performance
([28]): when one WITH-loop produces an array that another reads back
elementwise, the producer's body is substituted into the consumer and
the intermediate array disappears.  One rule, over a **piecewise
producer**: a once-assigned, statement-level ::

    P = with (lo <= iv < hi [step s]) genarray(shp, body)   # or
    P = with (lo <= iv < hi [step s]) modarray(F, body)

is ``body(e)`` at every ``e`` of its generator and its *default*
elsewhere — ``0.0`` for ``genarray``, ``F[e]`` for ``modarray``.

* **One piece** (``. <= iv <= .``, no step): nothing to tell apart, so
  every selection ``P[e]`` anywhere in the function becomes ``body(e)``.
* **Several pieces**: a later statement-level ``genarray``/``modarray``
  reader selecting ``P[a*jv + b_k]`` (literal ``a`` >= 1 and ``b_k``) is
  split *along the producer's partition* into chained single-generator
  WITH-loops, each substituting per selection the piece that statically
  applies there: (A) an unstepped producer read at one index gives the
  default piece over the reader's range, then the body piece over its
  intersection with the producer's; (B) a range-total producer with a
  literal ``step``, read with unit stride, gives one piece per residue
  class of ``jv`` modulo the step, in which a selection is on the grid
  or is the default — and a ``0.0`` default takes its term with it.

docs/COMPILER.md ("WITH-loop folding") has the derivations, conditions,
assumptions and what is refused — which :func:`refusals` lists, for the
analyzer's SAC502.  The producer assignment, now dead, is left to DCE.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

import numpy as np

from ..ast_nodes import (Assign, BinOp, Call, Dot, DoubleLit, Expr, FoldOp,
                         FunDef, GenarrayOp, Generator, IntLit, ModarrayOp,
                         Program, Select, UnOp, Var, WithLoop)
from ..ast_visit import map_child_exprs, walk
from ..sactypes import BaseType
from .constfold import literal_value, make_literal
from .rewrite import (affine_form, ast_key, expr_vars, map_stmt_exprs,
                      substitute)

__all__ = ["wlfold_pass", "refusals"]

_MAX_CLASSES = 64  #: rule B splits into at most so many residue classes

#: The default of a ``genarray`` producer, recognised by identity: only
#: zeros this pass wrote are ever simplified away.
_ZERO = DoubleLit(0.0)

#: A selection index ``a * var + b``: ``(a, b, the index rebuilt)``.
_Term = tuple[int, object, Expr]
_Split = Union[list[Assign], str]


def _lit(expr: Optional[Expr]):
    """The int (scalar or vector) a literal expression is, else None."""
    t = affine_form(expr)
    return None if t is None else t[1]


def _index(expr: Expr, var: str) -> Optional[_Term]:
    """A selection index as ``(a, b, a * var + b rebuilt)`` with a
    literal stride ``a`` >= 1 and a literal offset ``b``."""
    t = affine_form(expr, var)
    if t is None or t[0] < 1:
        return None
    index: Expr = Var(var) if t[0] == 1 else BinOp("*", IntLit(t[0]), Var(var))
    return (*t, BinOp("+", index, make_literal(t[1])) if np.any(t[1])
            else index)


def _bound(gen: Generator, upper: bool) -> Expr:
    """A bound as an inclusive lower or exclusive upper one (``_split``
    lets only inclusive ``.`` through: 0, or not to be asked for)."""
    expr, closed = (gen.upper, not gen.upper_inclusive) if upper \
        else (gen.lower, gen.lower_inclusive)
    if isinstance(expr, Dot):
        return IntLit(0)
    return expr if closed else BinOp("+", expr, IntLit(1))


def _shape_query(e) -> bool:
    return (isinstance(e, Call) and e.name == "shape" and len(e.args) == 1
            and isinstance(e.args[0], Var))


@dataclass(frozen=True)
class _Producer:
    name: str
    gen: Generator
    body: Expr
    frame: Optional[Expr]  # the modarray frame; None for genarray
    step: object  # literal int/vector, the expression if not, None if 1
    total: bool  # ``. <= iv <= .`` and no step: one piece

    @property
    def cheap(self) -> bool:
        """Evaluating the body again duplicates no work."""
        b = self.body
        return isinstance(b, (IntLit, DoubleLit, Var)) or (
            isinstance(b, Select) and isinstance(b.array, Var) and not any(
                isinstance(n, (WithLoop, Call)) for n in walk(b.index)))

    def on(self, term: _Term) -> Expr:
        return substitute(self.body, {self.gen.var: term[2]})

    def off(self, term: _Term) -> Expr:
        return _ZERO if self.frame is None else Select(self.frame, term[2])


class _Facts:
    """What a fold decision needs to know about the function."""

    def __init__(self, fun: FunDef, program: Program):
        self.program = program
        self.params = {p.name: p.type.base for p in fun.params}
        # How often each name is bound (a parameter: once, on entry).
        self.bound = Counter(self.params.keys())
        self.defs: dict[str, Expr] = {}
        self.binders: set[str] = set()
        self.shape_queries: set[str] = set()  # the x of every shape(x)
        self.uses: list[Counter] = []  # reads per top-level statement
        for stmt in fun.body.statements:
            self.uses.append(Counter())
            for n in walk(stmt):
                if isinstance(n, Var):
                    self.uses[-1][n.name] += 1
                elif isinstance(n, Assign):
                    self.bound[n.target] += 1
                    self.defs[n.target] = n.value
                elif isinstance(n, WithLoop):
                    self.binders.add(n.generator.var)
                elif _shape_query(n):
                    self.shape_queries.add(n.args[0].name)
        self.reads = sum(self.uses, Counter())
        self._fresh = 0

    def fresh(self, base: str) -> str:
        """A name for a piece of ``base`` that nothing else binds."""
        while True:
            self._fresh += 1
            name = f"_wlf{self._fresh}_{base}"
            if not self.bound[name]:
                self.bound[name] = 1
                return name

    def stable(self, *exprs: Optional[Expr], but: str = "") -> bool:
        """Every variable mentioned is bound once and never as a
        WITH-loop index (which would capture it at a use site)."""
        names = expr_vars(*exprs) - {but}
        return not names & self.binders and all(
            self.bound[n] <= 1 for n in names)

    def double(self, expr: Expr, seen: frozenset = frozenset()) -> bool:
        """Provably double-valued (scalar or array), syntactically."""
        if isinstance(expr, Var):
            name = expr.name
            if self.bound[name] != 1 or name in seen:
                return False
            if name in self.params:
                return self.params[name] is BaseType.DOUBLE
            return name in self.defs and self.double(self.defs[name],
                                                     seen | {name})
        if isinstance(expr, Select):
            return self.double(expr.array, seen)
        if isinstance(expr, UnOp):
            return expr.op == "-" and self.double(expr.operand, seen)
        if isinstance(expr, BinOp):
            return expr.op in ("+", "-", "*", "/") and (
                self.double(expr.left, seen) or self.double(expr.right, seen))
        if isinstance(expr, Call):  # every overload returns doubles
            return {f.return_type.base for f in self.program.functions
                    if f.name == expr.name} == {BaseType.DOUBLE}
        if isinstance(expr, WithLoop):
            op = expr.operation
            first = op.array if isinstance(op, ModarrayOp) else \
                op.neutral if isinstance(op, FoldOp) else op.body
            return self.double(first, seen) or self.double(op.body, seen)
        return isinstance(expr, DoubleLit)

    def producer(self, stmt: Assign) -> Optional[_Producer]:
        """A once-bound WITH-loop assignment as a piecewise producer."""
        gen, op = stmt.value.generator, stmt.value.operation  # type: ignore
        frame = op.array if isinstance(op, ModarrayOp) else None
        if isinstance(op, FoldOp) or not isinstance(frame, (Var, type(None))):
            return None
        step = None if gen.step is None else _lit(gen.step)
        if step is not None and np.all(np.equal(step, 1)):
            step = None
        elif gen.step is not None and step is None:
            step = gen.step  # not a literal: refused where it matters
        bounds = [b for b in (gen.lower, gen.upper) if not isinstance(b, Dot)]
        if not (self.stable(op.body, but=gen.var)
                and self.stable(frame, gen.step, gen.width, *bounds)):
            return None
        total = step is None and gen.lower_inclusive and gen.upper_inclusive \
            and not bounds
        return _Producer(stmt.target, gen, op.body, frame, step, total)

    def shape_of(self, stmt: Assign) -> Optional[Expr]:
        """``shape(stmt.target)`` without the array — the ``genarray``
        shape, the ``modarray`` frame's — if cheap and stable enough."""
        op = stmt.value.operation  # type: ignore[attr-defined]
        if isinstance(op, GenarrayOp):
            shp = op.shape
        elif isinstance(op, ModarrayOp) and isinstance(op.array, Var):
            shp = Call("shape", (op.array,))
        else:
            return None
        structural = not any(isinstance(n, WithLoop) or isinstance(n, Call)
                             and n.name not in ("shape", "dim")
                             for n in walk(shp))
        return shp if structural and self.stable(shp) else None


def _selections(node, name: str) -> list[Select]:
    """The selections ``name[index]`` under ``node`` whose index does
    not mention ``name`` itself."""
    return [e for e in walk(node)
            if isinstance(e, Select) and isinstance(e.array, Var)
            and e.array.name == name and name not in expr_vars(e.index)]


def _drop_zero(e: Expr) -> Expr:
    """``e`` without the operand a ``0.0`` default annihilates."""
    if isinstance(e, UnOp) and e.op == "-" and e.operand is _ZERO:
        return _ZERO
    if isinstance(e, BinOp):
        x, y = e.left, e.right
        if e.op == "*" and (x is _ZERO or y is _ZERO):
            other = literal_value(y if x is _ZERO else x)
            if type(other) in (int, float) and math.isfinite(other):
                return _ZERO
        if e.op in ("+", "-") and y is _ZERO:
            return x
        if e.op == "+" and x is _ZERO:
            return y
    return e


def _replace(body: Expr, terms: dict[int, _Term],
             piece: Callable[[_Term], Expr], drop: bool = False) -> Expr:
    """``body`` with each selection in ``terms`` (by identity) replaced by
    ``piece(term)``; with ``drop``, what a ``0.0`` default annihilates goes."""
    def go(e: Expr) -> Expr:
        if id(e) in terms:  # top-down: its index is never visited
            return piece(terms[id(e)])
        e = map_child_exprs(e, go)
        return _drop_zero(e) if drop else e

    return go(body)


def _chain(cons: Assign, pieces: list[tuple[Generator, Expr]],
           facts: _Facts) -> list[Assign]:
    """The reader as chained single-generator loops: the first piece
    keeps its operation, each later one updates its predecessor."""
    wl: WithLoop = cons.value  # type: ignore[assignment]
    out: list[Assign] = []
    for k, (gen, body) in enumerate(pieces):
        op = dataclasses.replace(wl.operation, body=body) if not out \
            else ModarrayOp(Var(out[-1].target), body)
        target = cons.target if k == len(pieces) - 1 \
            else facts.fresh(cons.target)
        out.append(Assign(target, WithLoop(gen, op, wl.pos), cons.pos))
    return out


def _split_range(prod: _Producer, cons: Assign, terms: dict[int, _Term],
                 facts: _Facts) -> _Split:
    """Rule A: the default piece everywhere, then the producer's body
    where the one index read falls inside its generator."""
    wl: WithLoop = cons.value  # type: ignore[assignment]
    gen, op, pg = wl.generator, wl.operation, prod.gen
    if len({ast_key(index) for _, _, index in terms.values()}) > 1:
        return "it is read at more than one index"
    a, b, _ = next(iter(terms.values()))

    def first_beyond(bound: Expr) -> Expr:
        # ceil((bound - b) / a) wherever that is positive: SAC's ``/``
        # truncates, and a non-positive value only needs to stay one.
        e = BinOp("-", bound, make_literal(b)) if np.any(b) else bound
        return e if a == 1 else BinOp(
            "/", BinOp("+", e, IntLit(a - 1)), IntLit(a))

    inside = gen
    if not isinstance(pg.lower, Dot):
        inside = dataclasses.replace(
            inside, lower_inclusive=True, lower=Call(
                "max", (_bound(gen, False), first_beyond(_bound(pg, False)))))
    if not isinstance(pg.upper, Dot):
        end = _bound(gen, True) if not isinstance(gen.upper, Dot) \
            else op.shape if isinstance(op, GenarrayOp) \
            else Call("shape", (op.array,))
        inside = dataclasses.replace(
            inside, upper_inclusive=False, upper=Call(
                "min", (end, first_beyond(_bound(pg, True)))))
    return _chain(cons, [(gen, _replace(op.body, terms, prod.off)),
                         (inside, _replace(op.body, terms, prod.on))], facts)


def _split_classes(prod: _Producer, cons: Assign, terms: dict[int, _Term],
                   facts: _Facts) -> _Split:
    """Rule B: one piece per residue class of the reader's index modulo
    the producer's step."""
    wl: WithLoop = cons.value  # type: ignore[assignment]
    gen, op, pg, step = wl.generator, wl.operation, prod.gen, prod.step
    if isinstance(step, Expr):
        return "its step is not a literal"
    start = _lit(_bound(pg, False))
    if start is None or np.any(start) or not (
            isinstance(pg.upper, Dot) and pg.upper_inclusive):
        return "its stepped generator does not span the whole range"
    if any(a != 1 for a, _, _ in terms.values()):
        return "a stepped producer is read with a stride"
    offsets = [b for _, b, _ in terms.values()]
    lower = _bound(gen, False)
    base = _lit(lower)
    ranks = {len(v) for v in (step, base, *offsets) if np.ndim(v)}
    if len(ranks) > 1:
        return "index vectors of different lengths"
    whole = isinstance(op, GenarrayOp)  # unwritten elements are the default
    if ranks:
        steps = np.broadcast_to(step, ranks.pop())
        if math.prod(steps.tolist()) > _MAX_CLASSES:
            return f"more than {_MAX_CLASSES} residue classes"
        classes = [np.array(c) for c in itertools.product(*map(range, steps))]
    elif whole and len(set(offsets)) == 1 \
            and _replace(op.body, terms, prod.off, drop=True) is _ZERO:
        # Rank unknown: only the class on the grid can be named, and
        # every other one is the reader's own default.
        steps, classes = step, [-offsets[0] % step]
    else:
        return "the rank is unknown"
    if whole and not facts.double(op.body):
        return "the reading loop's elements are not provably double"

    def generator(rho) -> Generator:
        # From the class's first member at or above the reader's bound.
        if base is None:
            shift = BinOp("%", BinOp("-", make_literal(rho), lower), pg.step)
            shift = BinOp("%", BinOp("+", shift, pg.step), pg.step)
        elif np.any((rho - base) % steps):
            shift = make_literal((rho - base) % steps)
        else:
            return dataclasses.replace(gen, step=pg.step)
        return dataclasses.replace(gen, lower=BinOp("+", lower, shift),
                                   lower_inclusive=True, step=pg.step)

    pieces = []
    for rho in classes:
        def piece(term: _Term, rho=rho) -> Expr:
            on_grid = not np.any((rho + term[1]) % steps)
            return prod.on(term) if on_grid else prod.off(term)

        body = _replace(op.body, terms, piece, drop=True)
        if not (whole and body is _ZERO):
            pieces.append((generator(rho), body))
    return _chain(cons, pieces or [(gen, _ZERO)], facts)


def _split(prod: _Producer, cons: Assign, sels: list[Select],
           facts: _Facts) -> _Split:
    """The statements replacing ``cons``, or why it cannot be split."""
    wl: WithLoop = cons.value  # type: ignore[assignment]
    gen = wl.generator
    if isinstance(wl.operation, FoldOp):
        return "the reading loop is a fold"
    if prod.gen.width is not None:
        return "its generator has a width"
    if gen.step is not None or gen.width is not None:
        return "the reading loop has a step or width"
    if any(isinstance(b, Dot) and not closed for g in (gen, prod.gen)
           for b, closed in ((g.lower, g.lower_inclusive),
                             (g.upper, g.upper_inclusive))):
        return "a '.' bound is exclusive"
    if prod.frame is None and not facts.double(prod.body):
        return "its elements are not provably double"
    terms = {id(s): _index(s.index, gen.var) for s in sels}
    if None in terms.values():
        return ("an index is not a literal positive multiple of the "
                "loop index plus a literal offset")
    rule = _split_range if prod.step is None else _split_classes
    return rule(prod, cons, terms, facts)  # type: ignore[arg-type]


def _plan(prod: _Producer, at: int, stmts: tuple, facts: _Facts
          ) -> tuple[dict[int, list[Assign]], list[tuple[WithLoop, str]]]:
    """How every reader of a several-piece producer is rewritten
    (statement index -> replacement), and which are refused and why."""
    plans: dict[int, list[Assign]] = {}
    refused: list[tuple[WithLoop, str]] = []
    live = False
    for j, stmt in enumerate(stmts):
        uses = facts.uses[j][prod.name]
        if not uses:
            continue
        cons = stmt if j > at and isinstance(stmt, Assign) \
            and isinstance(stmt.value, WithLoop) else None
        sels = _selections(cons.value.operation.body, prod.name) \
            if cons else []
        live = live or len(sels) < uses
        if sels:
            split = _split(prod, cons, sels, facts)
            if isinstance(split, str):
                refused.append((cons.value, split))
            else:
                plans[j] = split
    if prod.step is None:
        # Rule A pays only if the producer dies; one that stays live
        # (an in-place update, an escaping array) is no candidate.
        return ({}, []) if live else ({} if refused else plans, refused)
    if (live or refused) and not prod.cheap:
        refused += [(stmts[j].value, "it stays live and its body is "
                     "arithmetic") for j in plans]
        plans = {}
    return plans, refused


def _candidates(fun: FunDef, program: Program
                ) -> Iterator[tuple[int, Assign, _Facts]]:
    """The once-bound, read statement-level WITH-loop assignments."""
    loops = [(at, s) for at, s in enumerate(fun.body.statements)
             if isinstance(s, Assign) and isinstance(s.value, WithLoop)]
    if len(loops) < 2 and not any(isinstance(s.value.generator.lower, Dot)
                                  for _, s in loops):
        return  # one loop on explicit bounds: several pieces, no reader
    facts = _Facts(fun, program)
    for at, stmt in loops:
        if facts.bound[stmt.target] == 1 and facts.reads[stmt.target]:
            yield at, stmt, facts


def _fold_one(fun: FunDef, program: Program) -> Optional[FunDef]:
    """Perform one fold in ``fun``; None when no opportunity exists."""
    def everywhere(rewrite: Callable[[Expr], Expr]) -> FunDef:
        return dataclasses.replace(
            fun, body=map_stmt_exprs(fun.body, rewrite))

    for at, stmt, facts in _candidates(fun, program):
        # shape(P) needs no P: unlocks folds blocked by structural
        # queries (``embed(shape(rc)+1, 0*shape(rc), rc)`` in Fig. 7).
        shp = stmt.target in facts.shape_queries and facts.shape_of(stmt)
        if shp:
            return everywhere(lambda e: shp if _shape_query(e)
                              and e.args[0].name == stmt.target else e)
        prod = facts.producer(stmt)
        if prod is None:
            continue
        if prod.total:
            # One piece: any selection anywhere, if nothing else uses it.
            sels = {id(s): (1, 0, s.index)
                    for s in _selections(fun.body, prod.name)}
            if len(sels) == facts.reads[prod.name]:
                return everywhere(lambda e: prod.on(sels[id(e)])
                                  if id(e) in sels else e)
            continue
        plans, _ = _plan(prod, at, fun.body.statements, facts)
        if plans:
            new = [s for j, old in enumerate(fun.body.statements)
                   for s in plans.get(j, (old,))]
            return dataclasses.replace(fun, body=dataclasses.replace(
                fun.body, statements=tuple(new)))
    return None


def refusals(fun: FunDef, program: Program
             ) -> Iterator[tuple[str, WithLoop, str]]:
    """``(producer, reading loop, reason)`` for every pair the pass would
    leave unfolded in ``fun`` as it stands: no split along the partition."""
    for at, stmt, facts in _candidates(fun, program):
        prod = facts.producer(stmt)
        if prod is not None and not prod.total:
            for wl, reason in _plan(prod, at, fun.body.statements, facts)[1]:
                yield prod.name, wl, reason


def wlfold_pass(program: Program) -> Program:
    """Fold producer/consumer WITH-loop pairs to a fixpoint per function."""
    new_funs = []
    for fun in program.functions:
        for _ in range(64):  # bounded fixpoint
            folded = _fold_one(fun, program)
            if folded is None:
                break
            fun = folded
        new_funs.append(fun)
    return program.with_functions(new_funs)
