"""Function inlining.

Inlines calls to functions that

* are marked ``inline`` in the source,
* have exactly one overload (so resolution needs no type information),
* have a straight-line body (assignments followed by one ``return``),
* are not (mutually) recursive.

Inlining is *pure expression substitution*: the inlinee's WITH-loop
index variables are alpha-renamed to fresh names, locals are forward-
substituted into the return expression, and parameters are replaced by
the argument expressions.  This works in any context — in particular
inside WITH-loop bodies, where hoisting statements would be unsound.

Because SAC is pure, substitution can duplicate expressions without
changing semantics; to avoid duplicating *work*, a call is left alone
when substitution would replicate a non-trivial expression (one
containing a WITH-loop or a call) more than once.
"""

from __future__ import annotations

import dataclasses

from ..ast_nodes import (
    Assign,
    Call,
    Expr,
    FunDef,
    IntLit,
    DoubleLit,
    BoolLit,
    Program,
    Return,
    Var,
    WithLoop,
)
from ..ast_visit import map_child_exprs, map_stmt_exprs, mentions, walk_exprs
from .rewrite import fresh_namer, substitute

__all__ = ["inline_pass"]

#: Iterations of the fixpoint loop (inlined bodies may contain more calls).
_MAX_ROUNDS = 8


def _is_straight_line(fun: FunDef) -> bool:
    stmts = fun.body.statements
    if not stmts or not isinstance(stmts[-1], Return):
        return False
    return all(isinstance(s, Assign) for s in stmts[:-1])


def _calls_in(fun: FunDef) -> set[str]:
    out = set()
    for s in fun.body.statements:
        for e in walk_exprs(s):
            if isinstance(e, Call):
                out.add(e.name)
    return out


def _inlinable_functions(program: Program) -> dict[str, FunDef]:
    by_name: dict[str, list[FunDef]] = {}
    for f in program.functions:
        by_name.setdefault(f.name, []).append(f)
    candidates = {
        name: funs[0]
        for name, funs in by_name.items()
        if len(funs) == 1 and funs[0].inline and _is_straight_line(funs[0])
    }

    # Drop anything on a call cycle (conservative reachability check).
    def reaches_self(name: str) -> bool:
        seen = set()
        stack = list(_calls_in(candidates[name]))
        while stack:
            cur = stack.pop()
            if cur == name:
                return True
            if cur in seen:
                continue
            seen.add(cur)
            if cur in candidates:
                stack.extend(_calls_in(candidates[cur]))
        return False

    return {n: f for n, f in candidates.items() if not reaches_self(n)}


def _rename_binders(expr: Expr, fresh) -> Expr:
    """Alpha-rename every WITH-loop index variable to a fresh name."""

    def go(e: Expr) -> Expr:
        if not isinstance(e, WithLoop):
            return map_child_exprs(e, go)
        gen = e.generator
        new_var = fresh(gen.var)
        gen2 = dataclasses.replace(map_child_exprs(gen, go), var=new_var)
        op2 = map_child_exprs(e.operation, go)
        op2 = map_child_exprs(
            op2, lambda b: substitute(b, {gen.var: Var(new_var)})
        )
        return dataclasses.replace(e, generator=gen2, operation=op2)

    return go(expr)


def _is_trivial(expr: Expr) -> bool:
    """Cheap to duplicate: variables and literals."""
    return isinstance(expr, (Var, IntLit, DoubleLit, BoolLit))


def _is_expensive(expr: Expr) -> bool:
    """Duplicating this expression would duplicate real work.

    Structural queries (``shape``/``dim``) are free; WITH-loops and any
    other call are not."""
    for e in walk_exprs(expr):
        if isinstance(e, WithLoop):
            return True
        if isinstance(e, Call) and e.name not in ("shape", "dim"):
            return True
    return False


class _Inliner:
    def __init__(self, inlinables: dict[str, FunDef]):
        self.inlinables = inlinables
        self.fresh = fresh_namer("_inl")
        self.changed = False

    def rewrite(self, e: Expr) -> Expr:
        """Bottom-up rewrite hook for map_stmt_exprs/map_expr."""
        if isinstance(e, Call) and e.name in self.inlinables:
            expanded = self.expand_call(e)
            if expanded is not None:
                self.changed = True
                return expanded
        return e

    def expand_call(self, call: Call) -> Expr | None:
        fun = self.inlinables[call.name]
        if fun.arity != len(call.args):
            return None  # arity mismatch: leave for runtime diagnosis
        stmts = fun.body.statements
        assigns = [s for s in stmts[:-1]]
        ret = stmts[-1]
        assert isinstance(ret, Return)

        # Work-duplication guard: every expensive argument/local value
        # must be used at most once downstream.
        downstream: dict[str, list[Expr]] = {}
        tail_exprs: list[Expr] = [s.value for s in assigns] + [ret.value]
        for i, s in enumerate(assigns):
            downstream[s.target] = tail_exprs[i + 1 :]
        uses = mentions(*tail_exprs)
        for param, arg in zip(fun.params, call.args):
            if _is_trivial(arg):
                continue
            if uses[param.name] > 1 and _is_expensive(arg):
                return None
        for s in assigns:
            if _is_expensive(s.value) and \
                    mentions(*downstream[s.target])[s.target] > 1:
                return None

        # Build the substitution environment sequentially.
        subst: dict[str, Expr] = {
            p.name: a for p, a in zip(fun.params, call.args)
        }
        for s in assigns:
            value = _rename_binders(s.value, self.fresh)
            value = substitute(value, subst)
            subst = dict(subst)
            subst[s.target] = value
        result = _rename_binders(ret.value, self.fresh)
        return substitute(result, subst)


def inline_pass(program: Program) -> Program:
    """Inline eligible calls to a fixpoint (bounded rounds)."""
    current = program
    for _ in range(_MAX_ROUNDS):
        inlinables = _inlinable_functions(current)
        if not inlinables:
            break
        inliner = _Inliner(inlinables)
        new_funs = []
        for fun in current.functions:
            body = map_stmt_exprs(fun.body, inliner.rewrite)
            new_funs.append(dataclasses.replace(fun, body=body))
        current = current.with_functions(new_funs)
        if not inliner.changed:
            break
    return current
