"""AST rewriting utilities shared by the optimization passes.

Traversal (child iteration and mapping, bottom-up rewriting, walking,
free, mentioned and assigned names) lives in :mod:`repro.sac.ast_visit`;
this module layers the optimizer-specific pieces on top: affine forms,
counted loops, capture-aware substitution, structural keys and fresh
names.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..ast_nodes import (
    Assign,
    BinOp,
    Block,
    Expr,
    For,
    Node,
    Return,
    Stmt,
    UnOp,
    Var,
    While,
    WithLoop,
)
from ..ast_visit import (assigned_names, map_child_exprs, mentions,
                         node_fields, walk)

__all__ = [
    "affine_form",
    "counted_loop",
    "substitute",
    "ast_equal",
    "ast_key",
    "fresh_namer",
]


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
    if (update.target in mentions(block) or update.target in writes
            or writes & mentions(cond, update).keys()
            or any(isinstance(n, Return) for n in walk(block))):
        return None
    reads: dict[str, None] = {}
    defined: set[str] = set()
    for s in body:
        reads.update((n, None) for n in mentions(s) if n not in defined)
        if isinstance(s, Assign):
            defined.add(s.target)
    return cond, body, update, reads.keys()


def substitute(expr: Expr, mapping: dict[str, Expr]) -> Expr:
    """Capture-aware substitution of variables by expressions.

    A WITH-loop generator binds its index variable: its bounds are
    rewritten outside the binding, but substitution does not descend for
    that name anywhere in the loop's operation (body and shape, array or
    neutral element alike — blocking it everywhere is simpler and safe)."""

    def go(e: Expr, blocked: frozenset[str]) -> Expr:
        if isinstance(e, Var):
            if e.name in mapping and e.name not in blocked:
                return mapping[e.name]
            return e
        if isinstance(e, WithLoop):
            inner = blocked | {e.generator.var}
            return dataclasses.replace(
                e,
                generator=map_child_exprs(e.generator,
                                          lambda c: go(c, blocked)),
                operation=map_child_exprs(e.operation,
                                          lambda c: go(c, inner)))
        return map_child_exprs(e, lambda c: go(c, blocked))

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
