"""Coefficient grouping — the 27-multiplication → 4-multiplication
stencil optimization of the paper's §5.

After unrolling, a stencil sum looks like::

    c[[0]]*u[iv+o1] + c[[1]]*u[iv+o2] + c[[1]]*u[iv+o3] + ...

Many terms share the same coefficient *expression* (structurally equal
modulo source positions).  The pass flattens ``+`` chains, groups terms
by their coefficient factor, and rebuilds::

    c[[0]]*(u[iv+o1]) + c[[1]]*(u[iv+o2] + u[iv+o3]) + ...

Multiplications drop from one-per-term to one-per-distinct-coefficient —
for the MG stencils, from 27 to 4, or 3 where a coefficient is zero: a
group whose coefficient is the literal ``0.0`` is dropped with its whole
term sum, as ``mg.f`` and :mod:`repro.core.mg` leave ``a[1]`` and
``c[3]`` out.  That assumes finite operands (``0.0 * NaN`` is no longer
propagated, and the sign of a zero result can change); the drop is only
made next to a kept group with terms of the same form, so the type and
shape of the sum cannot change.  Terms without a multiplicative
structure are left in place, appended after the grouped part.
"""

from __future__ import annotations

import dataclasses

from ..ast_nodes import (
    BinOp,
    DoubleLit,
    Expr,
    IntLit,
    Program,
    Select,
    UnOp,
    Var,
    VectorLit,
)
from .rewrite import ast_key, map_stmt_exprs

__all__ = ["coeffgroup_pass", "group_sum"]

#: Only restructure sums with at least this many terms.  Two suffices:
#: grouping fires only when some coefficient repeats, and the bottom-up
#: rewrite needs to re-group chains whose inner parts were grouped
#: already (a 27-term stencil reaches the top as a 4-ish-term chain).
_MIN_TERMS = 2


def _flatten_sum(expr: Expr, out: list[Expr]) -> bool:
    """Collect the terms of a ``+`` chain; False if not a sum."""
    if isinstance(expr, BinOp) and expr.op == "+":
        return _flatten_sum(expr.left, out) and _flatten_sum(expr.right, out)
    out.append(expr)
    return True


def _coefficient_split(term: Expr) -> tuple[Expr, Expr] | None:
    """Split ``coef * rest``; the coefficient is the factor that looks
    like a lookup/constant (Select, literal, Var), preferring the left
    factor as the stencil idiom writes coefficients first."""
    if not (isinstance(term, BinOp) and term.op == "*"):
        return None
    left, right = term.left, term.right

    def is_cheap(e: Expr) -> bool:
        return isinstance(e, (Select, Var, IntLit, DoubleLit))

    if is_cheap(left):
        return left, right
    if is_cheap(right):
        return right, left
    return None


def _form(expr: Expr) -> object:
    """Structural key of an expression with its numeric literals' values
    erased, or None for an expression containing anything but
    selections, variables, operators and literals.  Two expressions of
    one form have the same type and shape: a literal's value decides
    neither (a call's argument or a generator bound could)."""
    if isinstance(expr, UnOp):
        return _form(expr.operand)  # - and ! keep type and shape
    if isinstance(expr, (IntLit, DoubleLit)):
        return type(expr)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Select):
        parts = ("[]", _form(expr.array), _form(expr.index))
    elif isinstance(expr, BinOp):
        parts = (expr.op, _form(expr.left), _form(expr.right))
    elif isinstance(expr, VectorLit):
        parts = ("[,]", *(_form(e) for e in expr.elements))
    else:
        return None
    return None if None in parts else parts


def group_sum(expr: Expr) -> Expr:
    """Group a flattened sum by structurally-equal coefficients."""
    terms: list[Expr] = []
    if not _flatten_sum(expr, terms) or len(terms) < _MIN_TERMS:
        return expr
    groups: dict[object, tuple[Expr, list[Expr]]] = {}
    passthrough: list[Expr] = []
    order: list[object] = []
    for term in terms:
        split = _coefficient_split(term)
        if split is None:
            passthrough.append(term)
            continue
        coef, rest = split
        key = ast_key(coef)
        if key not in groups:
            groups[key] = (coef, [])
            order.append(key)
        groups[key][1].append(rest)

    def summand_forms(rests: list[Expr]) -> set[object]:
        summands: list[Expr] = []
        for rest in rests:
            _flatten_sum(rest, summands)
        return {_form(t) for t in summands}

    # A zero group goes only when each of its terms has the form of a
    # summand of a kept group with a literal coefficient (see _form).
    kept_forms: set[object] = set()
    for coef, rests in groups.values():
        if isinstance(coef, DoubleLit) and coef.value != 0.0:
            kept_forms |= summand_forms(rests)
    kept_forms.discard(None)
    dropped = {
        key for key, (coef, rests) in groups.items()
        if isinstance(coef, DoubleLit) and coef.value == 0.0
        and summand_forms(rests) <= kept_forms
    }
    if not dropped and all(len(g[1]) == 1 for g in groups.values()):
        return expr  # nothing shared: keep the original form

    def chain_sum(items: list[Expr]) -> Expr:
        acc = items[0]
        for t in items[1:]:
            acc = BinOp("+", acc, t)
        return acc

    rebuilt = [BinOp("*", groups[key][0], chain_sum(groups[key][1]))
               for key in order if key not in dropped]
    rebuilt.extend(passthrough)
    return chain_sum(rebuilt)


def coeffgroup_pass(program: Program) -> Program:
    """Apply coefficient grouping to every sum in the program."""

    def rewrite(e: Expr) -> Expr:
        # Only rewrite at the *top* of a '+' chain: if the parent is also
        # a '+', the parent's rewrite subsumes this one.  map_stmt_exprs
        # is bottom-up, so guard by doing the rewrite anywhere and
        # relying on idempotence (grouping a grouped sum is a no-op
        # because each coefficient then appears once).
        if isinstance(e, BinOp) and e.op == "+":
            return group_sum(e)
        return e

    new_funs = []
    for fun in program.functions:
        body = map_stmt_exprs(fun.body, rewrite)
        new_funs.append(dataclasses.replace(fun, body=body))
    return program.with_functions(new_funs)
