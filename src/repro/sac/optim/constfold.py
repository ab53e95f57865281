"""Constant folding and compile-time evaluation.

Folds arithmetic on literals, selections into literal vectors, and —
the part that matters for stencil specialization — calls of *pure*
functions whose arguments are fully constant (e.g. ``dist_class([0, 2,
1])``), evaluated with a private interpreter over the current program.
Results must be scalars or small vectors to be re-literalized.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..ast_nodes import (
    BinOp,
    BoolLit,
    Call,
    DoubleLit,
    Expr,
    FunDef,
    IntLit,
    Program,
    Select,
    UnOp,
    VectorLit,
)
from ..ast_visit import map_stmt_exprs
from ..builtins import BUILTINS, apply_binop, apply_unop
from ..errors import SacError
from ..interp import FunctionTable, Interpreter, deep_recursion

__all__ = ["constfold_pass", "literal_value", "make_literal"]

#: Largest vector literal the folder will materialize.
_MAX_FOLD_ELEMENTS = 64


def literal_value(expr: Expr):
    """The Python/NumPy value of a literal expression, or None."""
    if isinstance(expr, IntLit):
        return expr.value
    if isinstance(expr, DoubleLit):
        return expr.value
    if isinstance(expr, BoolLit):
        return expr.value
    if isinstance(expr, VectorLit):
        vals = [literal_value(e) for e in expr.elements]
        if any(v is None for v in vals):
            return None
        try:
            arr = np.asarray(vals)
        except ValueError:  # ragged: the interpreter reports it at run time
            return None
        if np.issubdtype(arr.dtype, np.integer):
            return arr.astype(np.int64)
        if np.issubdtype(arr.dtype, np.floating):
            return arr.astype(np.float64)
        if arr.dtype == np.bool_:
            return arr
        return None
    if isinstance(expr, UnOp) and expr.op == "-":
        inner = literal_value(expr.operand)
        if isinstance(inner, (int, float)) and not isinstance(inner, bool):
            return -inner
    return None


def make_literal(value) -> Expr | None:
    """Re-literalize a value; None when it cannot be represented."""
    if isinstance(value, bool):
        return BoolLit(value)
    if isinstance(value, (int, np.integer)):
        return IntLit(int(value))
    if isinstance(value, (float, np.floating)):
        return DoubleLit(float(value))
    if isinstance(value, np.ndarray):
        if value.size > _MAX_FOLD_ELEMENTS:
            return None
        if value.ndim == 1:
            elems = tuple(make_literal(v) for v in value.tolist())
            if any(e is None for e in elems):
                return None
            if value.dtype == np.float64:
                elems = tuple(
                    DoubleLit(float(v)) for v in value.tolist()
                )
            return VectorLit(elems)
        # Nested literals for small matrices.
        rows = tuple(make_literal(row) for row in value)
        if any(r is None for r in rows):
            return None
        return VectorLit(rows)
    return None


class _Folder:
    def __init__(self, program: Program):
        self.pure_names = self._pure_function_names(program)
        table = FunctionTable()
        table.update(program)
        self.interp = Interpreter(table)

    @staticmethod
    def _pure_function_names(program: Program) -> set[str]:
        # Everything in SAC is pure; restrict compile-time evaluation to
        # straight-line inline functions to keep it cheap and terminating.
        from .inline import _is_straight_line

        by_name: dict[str, list[FunDef]] = {}
        for f in program.functions:
            by_name.setdefault(f.name, []).append(f)
        return {
            name
            for name, funs in by_name.items()
            if len(funs) == 1 and _is_straight_line(funs[0])
        }

    def fold(self, expr: Expr) -> Expr:
        if isinstance(expr, BinOp):
            lv = literal_value(expr.left)
            rv = literal_value(expr.right)
            if lv is not None and rv is not None:
                try:
                    lit = make_literal(apply_binop(expr.op, lv, rv))
                except SacError:
                    return expr
                if lit is not None:
                    return lit
            return self._algebraic(expr)
        if isinstance(expr, UnOp):
            v = literal_value(expr.operand)
            if v is not None:
                try:
                    lit = make_literal(apply_unop(expr.op, v))
                except SacError:
                    return expr
                if lit is not None:
                    return lit
            return expr
        if isinstance(expr, Select):
            av = literal_value(expr.array)
            iv = literal_value(expr.index)
            if av is not None and iv is not None:
                try:
                    lit = make_literal(self.interp.select(av, iv))
                except SacError:
                    return expr
                if lit is not None:
                    return lit
            return expr
        if isinstance(expr, Call):
            vals = [literal_value(a) for a in expr.args]
            if any(v is None for v in vals):
                return expr
            if not (expr.name in BUILTINS or expr.name in self.pure_names):
                return expr
            try:
                with deep_recursion():
                    result = self.interp.apply_named(expr.name, vals)
            except SacError:
                return expr
            lit = make_literal(result)
            return lit if lit is not None else expr
        return expr

    @staticmethod
    def _algebraic(expr: BinOp) -> Expr:
        """A few safe identities: x*1, 1*x, x+0, 0+x, x-0 on scalars.

        Multiplication by literal 0 is *not* rewritten to 0 — the operand
        shape would be lost (0 * shape(a) is the canonical zero-vector
        idiom and must keep its vector result)."""
        lv = literal_value(expr.left)
        rv = literal_value(expr.right)
        # Only integer identities are type-safe to drop: adding a double
        # 0.0 to an int operand would have promoted it.
        is_int = lambda v: type(v) is int  # noqa: E731
        if expr.op == "*":
            if is_int(lv) and lv == 1:
                return expr.right
            if is_int(rv) and rv == 1:
                return expr.left
        if expr.op == "+":
            if is_int(lv) and lv == 0:
                return expr.right
            if is_int(rv) and rv == 0:
                return expr.left
        if expr.op == "-":
            if is_int(rv) and rv == 0:
                return expr.left
        return expr


def constfold_pass(program: Program) -> Program:
    """Fold constants in every function body."""
    folder = _Folder(program)
    new_funs = []
    for fun in program.functions:
        body = map_stmt_exprs(fun.body, folder.fold)
        new_funs.append(dataclasses.replace(fun, body=body))
    return program.with_functions(new_funs)
