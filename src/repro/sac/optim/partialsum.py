"""Shared partial sums — the buffering half of the paper's §5 stencil
optimization, after coefficient grouping (:mod:`.coeffgroup`).

A grouped stencil body is a sum of groups ``c * (a[iv+o1] + a[iv+o2] +
...)``.  Split each offset ``o`` along one axis ``d`` into its shift
``o[d]`` and the rest: the selections of a group with one shift form a
*column* ``S_P(iv + s*e_d)``, where the column's *pattern* ``P`` is the
set of offsets with their ``d`` component zeroed and ``S_P(j)`` is the
sum of ``a[j + p]`` over ``p`` in ``P``.  A pattern of two or more
selections that occurs in several columns — at several shifts, or in
several groups — is a common subexpression modulo a shift of the index.
The pass binds it once, over the WITH-loop's generator widened along
``d`` by the shifts it is read at::

    _ps1_a = with (lower - lo*e_d <= iv < upper + hi*e_d)
             genarray(shape(a), a[iv + p1] + a[iv + p2] + ...);

and each of those columns becomes ``_ps1_a[iv + s*e_d]``.  Along the x
axis of the 27-point MG stencils the patterns are ``mg.f``'s ``u1`` (the
four face neighbours in the y-z plane) and ``u2`` (the four corners),
read at ``x - 1``, ``x`` and ``x + 1``.  Nothing in the pass knows that:
it takes the axis that saves the most additions, the innermost on a tie
(the contiguous one, which ``mg.f`` buffers along too).

The pass fixes the association of every sum it rewrites, and the
interpreter and the generated code both evaluate the rewritten tree, so
they agree bit for bit:

* a pattern's selections are summed nearest first along each axis,
  slowest axis first — by ``(|p_k|, p_k)`` for ``k = 0, 1, ...`` — which
  is ``mg.f``'s order of ``u1`` and ``u2``;
* a rewritten group sums its single selections, then its columns of two
  or more (read from a binding, or summed in place where their pattern
  is not shared), each nearest shift first (``0, -1, +1, ...``).

The statement must be ``x = with (...) modarray(a, body)`` or
``genarray(shape(a), body)`` (or its ``return``) with unit step, no
width and no ``.`` bound: then the generator lies within ``shape(a)``,
so the widened one does too — along ``d`` because it is widened only by
shifts the body reads ``a`` at.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np

from ..ast_nodes import (
    Assign,
    BinOp,
    Block,
    Call,
    Dot,
    DoWhile,
    Expr,
    For,
    GenarrayOp,
    If,
    IntLit,
    ModarrayOp,
    Program,
    Return,
    Select,
    Stmt,
    Var,
    VectorLit,
    While,
    WithLoop,
)
from .coeffgroup import _chain_sum, _coefficient_split, _flatten_sum
from .rewrite import affine_form, assigned_names

__all__ = ["partialsum_pass"]

def _offset(expr: Expr, var: str, frame: str) -> tuple[int, ...] | None:
    """``o`` of ``frame[var + o]``, ``o`` a literal int vector."""
    if not (isinstance(expr, Select) and isinstance(expr.array, Var)
            and expr.array.name == frame):
        return None
    form = affine_form(expr.index, var)
    if form is None or form[0] != 1 or np.ndim(form[1]) != 1:
        return None
    return tuple(int(x) for x in form[1])


def _groups(body: Expr, var: str, frame: str) -> list[tuple]:
    """The terms of the top ``+`` chain that are a coefficient times a
    sum of selections of ``frame``: ``(term, coefficient, offsets)``."""
    terms: list[Expr] = []
    _flatten_sum(body, terms)
    out = []
    for term in terms:
        split = _coefficient_split(term)
        if split is None:
            continue
        summands: list[Expr] = []
        _flatten_sum(split[1], summands)
        offsets = []
        for summand in summands:
            offsets.append(_offset(summand, var, frame))
            if offsets[-1] is None:
                break
        else:
            out.append((term, split[0], offsets))
    return out


def _nearest(offset: tuple[int, ...]) -> tuple[int, ...]:
    """Sort key: nearest first along each axis, slowest axis first."""
    return tuple(k for o in offset for k in (abs(o), o))


def _columns(offsets: list[tuple[int, ...]], d: int) -> dict[int, tuple]:
    """A group's offsets by their shift along ``d``: each column's
    pattern (the offsets with that component zeroed), in summation
    order."""
    cols: dict[int, list] = {}
    for o in offsets:
        cols.setdefault(o[d], []).append(o[:d] + (0,) + o[d + 1:])
    return {s: tuple(sorted(ps, key=_nearest)) for s, ps in cols.items()}


def _shared(groups, d: int) -> tuple[int, Counter]:
    """Additions saved by buffering along ``d``, and how often each
    pattern of two or more selections occurs, where more than once."""
    count = Counter(pattern for _, _, offsets in groups
                    for pattern in _columns(offsets, d).values()
                    if len(pattern) > 1)
    shared = Counter({p: n for p, n in count.items() if n > 1})
    return sum((n - 1) * (len(p) - 1) for p, n in shared.items()), shared


def _index(var: str, offset) -> Expr:
    return BinOp("+", Var(var), VectorLit(tuple(IntLit(int(x))
                                                for x in offset)))


def _map_terms(expr: Expr, fn) -> Expr:
    """Rewrite the terms of a ``+`` chain, keeping its association."""
    if isinstance(expr, BinOp) and expr.op == "+":
        return dataclasses.replace(expr, left=_map_terms(expr.left, fn),
                                   right=_map_terms(expr.right, fn))
    return fn(expr)


def _frame_array(wl: WithLoop) -> str | None:
    """The array ``a`` of ``modarray(a, ...)`` or
    ``genarray(shape(a), ...)``: the generator lies within its shape."""
    op = wl.operation
    if isinstance(op, ModarrayOp) and isinstance(op.array, Var):
        return op.array.name
    if (isinstance(op, GenarrayOp) and isinstance(op.shape, Call)
            and op.shape.name == "shape" and len(op.shape.args) == 1
            and isinstance(op.shape.args[0], Var)):
        return op.shape.args[0].name
    return None


def _buffer(wl: WithLoop, fresh) -> tuple[list[Assign], WithLoop] | None:
    """The bindings of the shared partial sums of ``wl``'s body and the
    WITH-loop that reads them; None when nothing is shared."""
    gen, frame = wl.generator, _frame_array(wl)
    if (frame is None or gen.step is not None or gen.width is not None
            or isinstance(gen.lower, Dot) or isinstance(gen.upper, Dot)):
        return None
    var = gen.var
    groups = _groups(wl.operation.body, var, frame)
    ranks = {len(o) for _, _, offsets in groups for o in offsets}
    if len(ranks) != 1:
        return None
    rank = ranks.pop()
    # The axis that saves the most; the innermost on a tie.
    (saved, shared), d = max(((_shared(groups, d), d) for d in range(rank)),
                             key=lambda t: (t[0][0], t[1]))
    if not saved:
        return None
    # Each shared pattern's shifts, in the order the groups read them.
    shifts: dict[tuple, list[int]] = {}
    for _, _, offsets in groups:
        for s, pattern in _columns(offsets, d).items():
            if pattern in shared:
                shifts.setdefault(pattern, []).append(s)

    def unit(k: int) -> tuple[int, ...]:
        return tuple(k * (j == d) for j in range(rank))

    def widened(bound: Expr, op: str, k: int) -> Expr:
        return BinOp(op, bound, VectorLit(tuple(
            IntLit(x) for x in unit(k)))) if k > 0 else bound

    def select(name: str, offset) -> Expr:
        return Select(Var(name), _index(var, offset))

    names, bindings = {}, []
    for pattern, at in shifts.items():
        names[pattern] = fresh(frame, var)
        bindings.append(Assign(names[pattern], WithLoop(
            dataclasses.replace(gen, lower=widened(gen.lower, "-", -min(at)),
                                upper=widened(gen.upper, "+", max(at))),
            GenarrayOp(Call("shape", (Var(frame),)), _chain_sum(
                [select(frame, p) for p in pattern])))))

    rewritten = {}
    for term, coef, offsets in groups:
        cols = _columns(offsets, d)
        if not any(p in names for p in cols.values()):
            continue
        singles, sums = [], []
        for s, pattern in sorted(cols.items(), key=lambda c: _nearest(c[:1])):
            if pattern in names:
                sums.append(select(names[pattern], unit(s)))
            else:
                sel = [select(frame, np.add(p, unit(s))) for p in pattern]
                (singles if len(sel) == 1 else sums).append(_chain_sum(sel))
        rewritten[id(term)] = BinOp("*", coef, _chain_sum(singles + sums))

    body = _map_terms(wl.operation.body,
                      lambda t: rewritten.get(id(t), t))
    return bindings, dataclasses.replace(
        wl, operation=dataclasses.replace(wl.operation, body=body))


def _buffer_all(wl: WithLoop, fresh) -> tuple[list[Assign], WithLoop] | None:
    """:func:`_buffer` until nothing is shared: the groups the best axis
    left alone may share a pattern along another one, and a second run
    of the pass must change nothing."""
    bindings: list[Assign] = []
    while (done := _buffer(wl, fresh)) is not None:
        bindings += done[0]
        wl = done[1]
    return (bindings, wl) if bindings else None


def _block(block: Block, fresh) -> Block:
    out: list[Stmt] = []
    for s in block.statements:
        value = s.value if isinstance(s, (Assign, Return)) else None
        done = _buffer_all(value, fresh) if isinstance(value, WithLoop) else None
        parts: dict = {}
        if done is not None:
            out.extend(done[0])
            parts = {"value": done[1]}
        elif isinstance(s, If):
            parts = {"then": _block(s.then, fresh),
                     "orelse": s.orelse and _block(s.orelse, fresh)}
        elif isinstance(s, (For, While, DoWhile)):
            parts = {"body": _block(s.body, fresh)}
        elif isinstance(s, Block):
            s = _block(s, fresh)
        if any(getattr(s, k) is not v for k, v in parts.items()):
            s = dataclasses.replace(s, **parts)
        out.append(s)
    if len(out) == len(block.statements) and all(
            a is b for a, b in zip(out, block.statements)):
        return block
    return dataclasses.replace(block, statements=tuple(out))


def partialsum_pass(program: Program) -> Program:
    """Bind the shared partial sums of every stencil WITH-loop once."""
    new_funs = []
    for fun in program.functions:
        taken: set[str] = set()
        counter = [0]

        def fresh(base: str, var: str) -> str:
            """A name the function binds nowhere, nor is ``var``, the
            index of the only loop that will read it."""
            if not taken:
                taken.update(p.name for p in fun.params)
                taken.update(assigned_names(fun.body))
            while True:
                counter[0] += 1
                name = f"_ps{counter[0]}_{base}"
                if name not in taken and name != var:
                    return name

        body = _block(fun.body, fresh)
        new_funs.append(fun if body is fun.body
                        else dataclasses.replace(fun, body=body))
    return program.with_functions(new_funs)
