"""WITH-loop folding (producer/consumer fusion).

The optimization the paper credits for SAC's competitive performance
([28]): when one WITH-loop produces an array that another WITH-loop only
reads back elementwise, the producer's body is substituted into the
consumer, eliminating the intermediate array::

    t = with (. <= i <= .) genarray(shp, f(i));
    r = with (g) genarray(shp2, t[e(j)]);
        ==>
    r = with (g) genarray(shp2, f(e(j)));

Safety conditions enforced here:

* the producer is a ``genarray`` WITH-loop whose generator is *total*
  (both bounds are ``.``, no step/width) — every element of the produced
  array equals the body, so any in-range selection can be substituted;
* the produced variable is assigned exactly once in the function and
  every use is a selection ``t[...]`` (the variable never escapes whole);
* producer and consumer live in the same straight-line block region
  (assignments between them cannot interfere — the language is pure).

After substitution the producer assignment becomes dead and DCE removes
it.
"""

from __future__ import annotations

import dataclasses

from ..ast_nodes import (
    Assign,
    Block,
    Dot,
    Expr,
    FunDef,
    GenarrayOp,
    Program,
    Select,
    Var,
    WithLoop,
)
from ..ast_visit import node_fields
from .rewrite import map_expr, map_stmt_exprs, substitute, walk_exprs

__all__ = ["wlfold_pass"]


def _is_total_producer(expr: Expr) -> bool:
    if not isinstance(expr, WithLoop):
        return False
    if not isinstance(expr.operation, GenarrayOp):
        return False
    gen = expr.generator
    return (
        isinstance(gen.lower, Dot)
        and isinstance(gen.upper, Dot)
        and gen.lower_inclusive
        and gen.upper_inclusive
        and gen.step is None
        and gen.width is None
    )


def _uses(fun: FunDef, name: str):
    """Yield every Var node with this name in the function body."""
    for e in walk_exprs(fun.body):
        if isinstance(e, Var) and e.name == name:
            yield e


def _only_selected(fun: FunDef, name: str) -> bool:
    """True when every use of ``name`` is as ``name[index]`` (and the
    index itself does not mention ``name``)."""
    select_arrays = set()
    for e in walk_exprs(fun.body):
        if isinstance(e, Select) and isinstance(e.array, Var) and \
                e.array.name == name:
            select_arrays.add(id(e.array))
            for sub in walk_exprs(e.index):
                if isinstance(sub, Var) and sub.name == name:
                    return False
    total = sum(1 for _ in _uses(fun, name))
    return total > 0 and total == len(select_arrays)


def _assign_count(fun: FunDef, name: str) -> int:
    count = 0

    def walk(stmt) -> None:
        nonlocal count
        if isinstance(stmt, Assign) and stmt.target == name:
            count += 1
        for field in node_fields(type(stmt)):
            v = getattr(stmt, field)
            if isinstance(v, Block):
                for s in v.statements:
                    walk(s)
            elif isinstance(v, tuple):
                for s in v:
                    if hasattr(s, "__dataclass_fields__") and not isinstance(s, Expr):
                        walk(s)
            elif hasattr(v, "__dataclass_fields__") and isinstance(v, Assign):
                walk(v)

    for s in fun.body.statements:
        walk(s)
    return count


def _shape_cheap(expr: Expr) -> bool:
    """Safe to duplicate at shape() use sites: no WITH-loops, and the
    only calls are the structural builtins shape/dim."""
    from ..ast_nodes import Call

    for e in walk_exprs(expr):
        if isinstance(e, WithLoop):
            return False
        if isinstance(e, Call) and e.name not in ("shape", "dim"):
            return False
    return True


def _eliminate_shape_uses(fun: FunDef) -> FunDef:
    """Rewrite ``shape(t)`` to the producer's shape expression for every
    total-genarray producer ``t``, unlocking folds blocked by structural
    queries (``embed(shape(rc)+1, 0*shape(rc), rc)`` in Fig. 7)."""
    from ..ast_nodes import Call

    changed = False
    for stmt in fun.body.statements:
        if not isinstance(stmt, Assign):
            continue
        if not _is_total_producer(stmt.value):
            continue
        name = stmt.target
        if _assign_count(fun, name) != 1:
            continue
        shp = stmt.value.operation.shape  # type: ignore[union-attr]
        if not _shape_cheap(shp):
            continue
        free = {e.name for e in walk_exprs(shp) if isinstance(e, Var)}
        if any(_assign_count(fun, v) > 1 for v in free):
            continue

        def rewrite(e: Expr) -> Expr:
            nonlocal changed
            if (
                isinstance(e, Call)
                and e.name == "shape"
                and len(e.args) == 1
                and isinstance(e.args[0], Var)
                and e.args[0].name == name
            ):
                changed = True
                return shp
            return e

        new_body = map_stmt_exprs(fun.body, rewrite)
        if changed:
            fun = dataclasses.replace(fun, body=new_body)
            changed = False
    return fun


def _fold_one(fun: FunDef) -> FunDef | None:
    """Perform one fold in ``fun``; None when no opportunity exists."""
    # Find candidate producers at the top level of the function body.
    for stmt in fun.body.statements:
        if not isinstance(stmt, Assign):
            continue
        if not _is_total_producer(stmt.value):
            continue
        name = stmt.target
        if _assign_count(fun, name) != 1:
            continue
        if not _only_selected(fun, name):
            continue
        wl: WithLoop = stmt.value  # type: ignore[assignment]
        op: GenarrayOp = wl.operation  # type: ignore[assignment]
        ivar = wl.generator.var
        body = op.body

        # Substitution safety: the producer body's free variables must be
        # stable (assigned at most once in the function, so their value at
        # any consumer use equals their value at the producer)...
        free = {
            e.name for e in walk_exprs(body) if isinstance(e, Var)
        } - {ivar}
        if any(_assign_count(fun, v) > 1 for v in free):
            continue
        # ...and must not collide with any WITH-loop index variable in the
        # function (which would capture them at a use site).
        binder_names = {
            e.generator.var for e in walk_exprs(fun.body)
            if isinstance(e, WithLoop)
        }
        if free & binder_names:
            continue

        replaced = [False]

        def rewrite(e: Expr) -> Expr:
            if (
                isinstance(e, Select)
                and isinstance(e.array, Var)
                and e.array.name == name
            ):
                replaced[0] = True
                return substitute(body, {ivar: e.index})
            return e

        new_body_block = map_stmt_exprs(fun.body, rewrite)
        if replaced[0]:
            return dataclasses.replace(fun, body=new_body_block)
    return None


def wlfold_pass(program: Program) -> Program:
    """Fold producer/consumer WITH-loop pairs to a fixpoint per function."""
    new_funs = []
    for fun in program.functions:
        fun = _eliminate_shape_uses(fun)
        for _ in range(32):  # bounded fixpoint
            folded = _fold_one(fun)
            if folded is None:
                break
            fun = folded
        new_funs.append(fun)
    return program.with_functions(new_funs)
