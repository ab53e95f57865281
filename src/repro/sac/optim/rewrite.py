"""AST rewriting utilities shared by the optimization passes.

The generic traversal primitives (child iteration, identity-preserving
child mapping, full-tree walking) live in :mod:`repro.sac.ast_visit`;
this module layers the optimizer-specific pieces on top: bottom-up
rewriting, capture-aware substitution, structural keys and
alpha-renaming.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Callable

import numpy as np

from ..ast_nodes import (
    Assign,
    BinOp,
    Block,
    DoWhile,
    Expr,
    ExprStmt,
    FoldOp,
    For,
    GenarrayOp,
    Generator,
    If,
    ModarrayOp,
    Node,
    Return,
    Stmt,
    UnOp,
    Var,
    While,
    WithLoop,
)
from ..ast_visit import map_child_exprs, node_fields, walk, walk_exprs

__all__ = [
    "map_expr",
    "map_stmt_exprs",
    "walk_exprs",
    "expr_vars",
    "affine_form",
    "stmt_reads",
    "counted_loop",
    "assigned_names",
    "substitute",
    "ast_equal",
    "ast_key",
    "fresh_namer",
]


def map_expr(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Bottom-up expression rewrite: children first, then ``fn`` on the
    rebuilt node."""
    rebuilt = map_child_exprs(expr, lambda e: map_expr(e, fn))
    return fn(rebuilt)


def map_stmt_exprs(stmt: Stmt, fn: Callable[[Expr], Expr]) -> Stmt:
    """Apply a bottom-up expression rewrite to every expression in a
    statement tree."""
    if isinstance(stmt, Assign):
        return dataclasses.replace(stmt, value=map_expr(stmt.value, fn))
    if isinstance(stmt, Return):
        return dataclasses.replace(stmt, value=map_expr(stmt.value, fn))
    if isinstance(stmt, ExprStmt):
        return dataclasses.replace(stmt, expr=map_expr(stmt.expr, fn))
    if isinstance(stmt, Block):
        return dataclasses.replace(
            stmt, statements=tuple(map_stmt_exprs(s, fn) for s in stmt.statements)
        )
    if isinstance(stmt, If):
        return dataclasses.replace(
            stmt,
            cond=map_expr(stmt.cond, fn),
            then=map_stmt_exprs(stmt.then, fn),
            orelse=map_stmt_exprs(stmt.orelse, fn) if stmt.orelse else None,
        )
    if isinstance(stmt, For):
        return dataclasses.replace(
            stmt,
            init=map_stmt_exprs(stmt.init, fn),
            cond=map_expr(stmt.cond, fn),
            update=map_stmt_exprs(stmt.update, fn),
            body=map_stmt_exprs(stmt.body, fn),
        )
    if isinstance(stmt, While):
        return dataclasses.replace(
            stmt, cond=map_expr(stmt.cond, fn), body=map_stmt_exprs(stmt.body, fn)
        )
    if isinstance(stmt, DoWhile):
        return dataclasses.replace(
            stmt, body=map_stmt_exprs(stmt.body, fn), cond=map_expr(stmt.cond, fn)
        )
    raise TypeError(f"unknown statement {type(stmt).__name__}")


def expr_vars(*exprs: Expr | None) -> set[str]:
    """Free-ish variable names referenced in the expressions (includes
    WITH-loop index variables bound within — callers that care use
    :func:`substitute`, which respects binding)."""
    return {n.name for e in exprs if e is not None for n in walk(e)
            if isinstance(n, Var)}


def affine_form(expr: Expr | None, var: str | None = None):
    """``expr`` as ``(a, b)`` with ``expr == a * var + b``, ``a`` a
    literal int and ``b`` a literal int or int vector; None when it has
    no such form.  With no ``var`` this evaluates integer arithmetic on
    literals (``a`` is 0).  The zero-vector idiom ``0 * x`` counts as
    the scalar 0, which broadcasts like it."""
    from .constfold import literal_value

    if expr is None:
        return 0, 0
    if isinstance(expr, Var):
        return (1, 0) if expr.name == var else None
    v = literal_value(expr)
    if v is not None:
        vector = isinstance(v, np.ndarray) and v.ndim == 1 \
            and v.dtype == np.int64
        return (0, v) if vector or type(v) is int else None
    if isinstance(expr, UnOp) and expr.op == "-":
        t = affine_form(expr.operand, var)
        return None if t is None else (-t[0], -t[1])
    if not (isinstance(expr, BinOp) and expr.op in ("+", "-", "*")):
        return None
    x, y = affine_form(expr.left, var), affine_form(expr.right, var)
    if expr.op == "*" and any(t is not None and t[0] == 0 and type(t[1]) is int
                              and t[1] == 0 for t in (x, y)):
        return 0, 0
    if x is None or y is None or (
            np.ndim(x[1]) and np.ndim(y[1]) and len(x[1]) != len(y[1])):
        return None
    if expr.op == "*":
        (_, k), (a, b) = (x, y) if x[0] == 0 else (y, x)
        if x[0] and y[0] or a and type(k) is not int:
            return None  # var * var, or var scaled per component
        return (k * a if a else 0), k * b
    sign = 1 if expr.op == "+" else -1
    return x[0] + sign * y[0], x[1] + sign * y[1]


def assigned_names(stmt: Stmt) -> set[str]:
    """All names assigned anywhere in a statement tree."""
    out: set[str] = set()
    if isinstance(stmt, Assign):
        out.add(stmt.target)
    elif isinstance(stmt, Block):
        for s in stmt.statements:
            out |= assigned_names(s)
    elif isinstance(stmt, If):
        out |= assigned_names(stmt.then)
        if stmt.orelse:
            out |= assigned_names(stmt.orelse)
    elif isinstance(stmt, For):
        out |= assigned_names(stmt.init)
        out |= assigned_names(stmt.update)
        out |= assigned_names(stmt.body)
    elif isinstance(stmt, (While, DoWhile)):
        out |= assigned_names(stmt.body)
    return out


def stmt_reads(node: Node) -> Counter:
    """How often each variable is mentioned under ``node``."""
    return Counter(e.name for e in walk_exprs(node) if isinstance(e, Var))


def counted_loop(stmt: Stmt):
    """``(cond, body, update, reads)`` of a ``for``, or of a ``while``
    ending in an assignment, whose body neither sees nor sets the counter
    and sets nothing the bound depends on — so its trips differ in
    nothing the body can observe — else None.  ``reads`` are the body's
    inputs: the names it mentions before a top-level assignment to them."""
    if isinstance(stmt, For):
        cond, body, update = stmt.cond, stmt.body.statements, stmt.update
    elif (isinstance(stmt, While) and stmt.body.statements
          and isinstance(stmt.body.statements[-1], Assign)):
        cond, update = stmt.cond, stmt.body.statements[-1]
        body = stmt.body.statements[:-1]
    else:
        return None
    block = Block(body)
    writes = assigned_names(block)
    if (update.target in stmt_reads(block) or update.target in writes
            or writes & (stmt_reads(cond) + stmt_reads(update)).keys()
            or any(isinstance(n, Return) for n in walk(block))):
        return None
    reads: dict[str, None] = {}
    defined: set[str] = set()
    for s in body:
        reads.update((n, None) for n in stmt_reads(s) if n not in defined)
        if isinstance(s, Assign):
            defined.add(s.target)
    return cond, body, update, reads.keys()


def substitute(expr: Expr, mapping: dict[str, Expr]) -> Expr:
    """Capture-aware substitution of variables by expressions.

    A WITH-loop generator binds its index variable: substitution does not
    descend for that name inside the loop's operation body/bounds (bounds
    are evaluated outside the binding, but SAC scoping makes the index
    variable visible only in the operation — we block it everywhere
    inside the WITH-loop for simplicity and safety)."""

    def rewrite(e: Expr) -> Expr:
        if isinstance(e, Var) and e.name in mapping:
            return mapping[e.name]
        return e

    def go(e: Expr, blocked: frozenset[str]) -> Expr:
        if isinstance(e, Var):
            if e.name in mapping and e.name not in blocked:
                return mapping[e.name]
            return e
        if isinstance(e, WithLoop):
            inner_blocked = blocked | {e.generator.var}

            def node_go(n: Node, blk: frozenset[str]) -> Node:
                changes = {}
                for name in node_fields(type(n)):
                    v = getattr(n, name)
                    if isinstance(v, Expr):
                        nv = go(v, blk)
                        if nv is not v:
                            changes[name] = nv
                    elif isinstance(v, tuple) and v and all(
                        isinstance(x, Expr) for x in v
                    ):
                        nv = tuple(go(x, blk) for x in v)
                        if any(a is not b for a, b in zip(nv, v)):
                            changes[name] = nv
                    elif isinstance(v, (GenarrayOp, ModarrayOp, FoldOp, Generator)):
                        nv = node_go(v, blk)
                        if nv is not v:
                            changes[name] = nv
                return dataclasses.replace(n, **changes) if changes else n

            # Generator bounds are evaluated outside the index binding in
            # SAC; still, an index variable shadowing a substituted name
            # must block substitution in the body.  Bounds first:
            gen = node_go(e.generator, blocked)
            # ... but the index variable cannot occur in its own bounds;
            # rebuild the generator with outer blocking, the operation
            # with the inner blocking.
            op = node_go(e.operation, inner_blocked)
            return dataclasses.replace(e, generator=gen, operation=op)
        changes = {}
        for name in node_fields(type(e)):
            v = getattr(e, name)
            if isinstance(v, Expr):
                nv = go(v, blocked)
                if nv is not v:
                    changes[name] = nv
            elif isinstance(v, tuple) and v and all(isinstance(x, Expr) for x in v):
                nv = tuple(go(x, blocked) for x in v)
                if any(a is not b for a, b in zip(nv, v)):
                    changes[name] = nv
        return dataclasses.replace(e, **changes) if changes else e

    return go(expr, frozenset())


def ast_key(node) -> object:
    """Hashable structural key of an AST fragment, ignoring positions."""
    if isinstance(node, Node):
        parts = [type(node).__name__]
        for name in node_fields(type(node)):
            if name != "pos":
                parts.append(ast_key(getattr(node, name)))
        return tuple(parts)
    if isinstance(node, tuple):
        return tuple(ast_key(x) for x in node)
    return node


def ast_equal(a, b) -> bool:
    """Structural equality ignoring source positions."""
    return ast_key(a) == ast_key(b)


def fresh_namer(prefix: str = "_t"):
    """A generator of fresh names, stable within one pass invocation."""
    counter = [0]

    def fresh(base: str = "") -> str:
        counter[0] += 1
        return f"{prefix}{counter[0]}_{base}" if base else f"{prefix}{counter[0]}"

    return fresh
