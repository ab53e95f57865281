"""Common subexpression elimination.

Within a straight-line region (a run of assignments), structurally equal
pure subexpressions above a triviality threshold are computed once and
bound to a fresh temporary.  SAC's purity makes every expression a
candidate; safety requires only that the free variables of a shared
subexpression are not reassigned between its occurrences, which the pass
guarantees by processing one assignment-run at a time and giving up on a
name's candidates at its (re)assignment.

WITH-loop bodies are left untouched: their subexpressions depend on the
index variable, and hoisting across the binder would change what they
mean.  (Loop-invariant hoisting out of WITH-loops is a different pass —
future work, as for the paper's compiler.)
"""

from __future__ import annotations

import dataclasses

from ..ast_nodes import (
    Assign,
    BinOp,
    Block,
    BoolLit,
    Call,
    DoubleLit,
    DoWhile,
    Expr,
    ExprStmt,
    For,
    If,
    IntLit,
    Program,
    Return,
    Select,
    Stmt,
    UnOp,
    Var,
    VectorLit,
    While,
    WithLoop,
)
from ..ast_visit import iter_child_exprs, map_child_exprs, mentions
from .rewrite import ast_key, fresh_namer

__all__ = ["cse_pass"]


def _is_candidate(expr: Expr) -> bool:
    """Worth sharing: compound and pure, not a WITH-loop (its value can
    be huge; sharing those is wlfold's job) and not a bare leaf."""
    if isinstance(expr, (Var, IntLit, DoubleLit, BoolLit)):
        return False
    if isinstance(expr, WithLoop):
        return False
    return isinstance(expr, (BinOp, UnOp, Select, Call, VectorLit))


def _subexprs(expr: Expr, out: list[Expr]) -> None:
    """Collect candidate subexpressions, children before parents,
    skipping WITH-loop internals entirely."""
    if isinstance(expr, WithLoop):
        return
    for child in iter_child_exprs(expr):
        _subexprs(child, out)
    if _is_candidate(expr):
        out.append(expr)


def _replace(expr: Expr, table: dict[object, str]) -> Expr:
    """Rewrite shared subexpressions to their temp names (outside
    WITH-loops)."""
    if isinstance(expr, WithLoop):
        return expr
    key = ast_key(expr)
    if key in table:
        return Var(table[key])
    return map_child_exprs(expr, lambda e: _replace(e, table))


def _cse_run(stmts: list[Stmt], fresh) -> list[Stmt]:
    """CSE over one straight-line run of Assign/Return/ExprStmt."""
    # Count occurrences of each candidate across the run.
    counts: dict[object, int] = {}
    samples: dict[object, Expr] = {}
    for s in stmts:
        exprs: list[Expr] = []
        if isinstance(s, (Assign, Return)):
            _subexprs(s.value, exprs)
        elif isinstance(s, ExprStmt):
            _subexprs(s.expr, exprs)
        for e in exprs:
            k = ast_key(e)
            counts[k] = counts.get(k, 0) + 1
            samples[k] = e

    shared = {k for k, n in counts.items() if n > 1}
    if not shared:
        return stmts

    out: list[Stmt] = []
    table: dict[object, str] = {}
    for s in stmts:
        value = s.value if isinstance(s, (Assign, Return)) else (
            s.expr if isinstance(s, ExprStmt) else None
        )
        if value is not None:
            # Hoist any shared subexpression of this statement that is
            # not yet bound (children first: _subexprs is bottom-up).
            exprs: list[Expr] = []
            _subexprs(value, exprs)
            for e in exprs:
                k = ast_key(e)
                if k in shared and k not in table:
                    tmp = fresh("cse")
                    out.append(Assign(tmp, _replace(e, table)))
                    table[k] = tmp
            value = _replace(value, table)
        if isinstance(s, Assign):
            out.append(dataclasses.replace(s, value=value))
            # The assigned name invalidates every table entry reading it.
            dead = [k for k in table if s.target in mentions(samples[k])]
            for k in dead:
                del table[k]
                shared.discard(k)
        elif isinstance(s, Return):
            out.append(dataclasses.replace(s, value=value))
        elif isinstance(s, ExprStmt):
            out.append(dataclasses.replace(s, expr=value))
        else:
            out.append(s)
    return out


def _replaced(node, **fields):
    """``node`` with ``fields``, or ``node`` itself when none changed."""
    if all(getattr(node, k) is v for k, v in fields.items()):
        return node
    return dataclasses.replace(node, **fields)


def _cse_block(block: Block, fresh) -> Block:
    # Split into straight-line runs at control-flow statements; recurse
    # into their bodies independently.
    out: list[Stmt] = []
    run: list[Stmt] = []

    def flush():
        nonlocal run
        if run:
            out.extend(_cse_run(run, fresh))
            run = []

    for s in block.statements:
        if isinstance(s, (Assign, Return, ExprStmt)):
            run.append(s)
        elif isinstance(s, If):
            flush()
            out.append(_replaced(
                s,
                then=_cse_block(s.then, fresh),
                orelse=_cse_block(s.orelse, fresh) if s.orelse else None,
            ))
        elif isinstance(s, (For, While, DoWhile)):
            flush()
            out.append(_replaced(s, body=_cse_block(s.body, fresh)))
        elif isinstance(s, Block):
            flush()
            out.append(_cse_block(s, fresh))
        else:
            flush()
            out.append(s)
    flush()
    if len(out) == len(block.statements) and all(
            a is b for a, b in zip(out, block.statements)):
        return block
    return dataclasses.replace(block, statements=tuple(out))


def cse_pass(program: Program) -> Program:
    new_funs = [
        _replaced(fun, body=_cse_block(fun.body, fresh_namer(f"_cse_{fun.name}")))
        for fun in program.functions
    ]
    if all(a is b for a, b in zip(new_funs, program.functions)):
        return program
    return program.with_functions(new_funs)
