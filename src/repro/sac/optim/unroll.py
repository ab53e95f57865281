"""Unrolling of small constant-bounded fold WITH-loops.

The stencil sum of the MG relaxation kernel is a fold over the constant
3x3x3 offset cube.  After inlining and constant folding its bounds are
literal vectors, so the loop can be unrolled at compile time into an
explicit 27-term sum with the offset vector substituted by literals.
Constant folding then evaluates the per-offset coefficient lookups and
coefficient grouping (:mod:`.coeffgroup`) restructures the sum.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from ..ast_nodes import (
    BinOp,
    Call,
    Expr,
    FoldOp,
    IntLit,
    Program,
    VectorLit,
    WithLoop,
)
from ..ast_visit import map_stmt_exprs
from .constfold import literal_value
from .rewrite import substitute

__all__ = ["unroll_pass"]

#: Do not unroll folds with more points than this.
_MAX_UNROLL_POINTS = 64


def _space_points(wl: WithLoop) -> list[tuple[int, ...]] | None:
    """The concrete index vectors of a literal-bounded generator."""
    gen = wl.generator
    if gen.step is not None or gen.width is not None:
        # Unit-step only; stepped folds stay loops.
        return None
    lo = literal_value(gen.lower)
    hi = literal_value(gen.upper)
    if not isinstance(lo, np.ndarray) or not isinstance(hi, np.ndarray):
        return None
    if lo.ndim != 1 or hi.ndim != 1 or lo.shape != hi.shape:
        return None
    lo = lo + (0 if gen.lower_inclusive else 1)
    hi = hi + (1 if gen.upper_inclusive else 0)
    counts = np.maximum(hi - lo, 0)
    total = int(np.prod(counts))
    if total == 0 or total > _MAX_UNROLL_POINTS:
        return None
    ranges = [range(int(a), int(b)) for a, b in zip(lo, hi)]
    return list(itertools.product(*ranges))


def _unroll_fold(wl: WithLoop) -> Expr | None:
    op = wl.operation
    if not isinstance(op, FoldOp):
        return None
    points = _space_points(wl)
    if points is None:
        return None
    var = wl.generator.var
    acc: Expr = op.neutral
    neutral = literal_value(op.neutral)
    # Drop a literal scalar neutral element of + / * chains.
    skip_neutral = isinstance(neutral, (int, float)) and (
        (op.fun == "+" and neutral == 0)
        or (op.fun == "*" and neutral == 1))
    terms = []
    for pt in points:
        iv_lit = VectorLit(tuple(IntLit(int(x)) for x in pt))
        terms.append(substitute(op.body, {var: iv_lit}))
    if skip_neutral:
        acc = terms[0]
        rest = terms[1:]
    else:
        rest = terms
    for t in rest:
        if op.fun in ("+", "*"):
            acc = BinOp(op.fun, acc, t)
        else:
            acc = Call(op.fun, (acc, t))
    return acc


def unroll_pass(program: Program) -> Program:
    """Unroll every eligible fold WITH-loop in the program."""

    def rewrite(e: Expr) -> Expr:
        if isinstance(e, WithLoop):
            unrolled = _unroll_fold(e)
            if unrolled is not None:
                return unrolled
        return e

    new_funs = []
    for fun in program.functions:
        body = map_stmt_exprs(fun.body, rewrite)
        new_funs.append(dataclasses.replace(fun, body=body))
    return program.with_functions(new_funs)
