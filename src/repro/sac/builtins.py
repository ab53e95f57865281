"""Built-in operations of the SAC interpreter.

SAC proper ships only a handful of primitives (``dim``, ``shape``,
selection) and defines everything else in its array library.  Our
interpreter additionally evaluates the arithmetic/relational operators
elementwise on arrays directly — semantically identical to the library's
WITH-loop definitions (which :mod:`repro.sac.stdlib` also provides under
spelled-out names, and tests cross-check) but far cheaper than routing
every ``+`` through a WITH-loop.

Integer division and remainder follow C semantics (truncation toward
zero), matching SAC's C heritage.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import SacRuntimeError, SacTypeError
from .values import (
    AbstractUnsupported,
    IndexView,
    SpaceValue,
    coerce_value,
    raw,
    value_type,
)

__all__ = [
    "apply_binop",
    "apply_unop",
    "int_div",
    "int_mod",
    "BUILTINS",
    "Builtin",
    "call_builtin",
    "FOLD_UFUNCS",
]


# ---------------------------------------------------------------------------
# Arithmetic.
# ---------------------------------------------------------------------------

def int_div(a, b):
    """C-style integer division (truncate toward zero)."""
    if np.any(np.asarray(b) == 0):
        raise SacRuntimeError("integer division by zero")
    q = np.floor_divide(a, b)
    r = a - b * q
    adjust = (r != 0) & ((np.asarray(a) < 0) != (np.asarray(b) < 0))
    return q + adjust


def int_mod(a, b):
    """C-style remainder: ``a - b * int_div(a, b)``."""
    return a - b * int_div(a, b)


def _is_intlike(v) -> bool:
    if isinstance(v, bool):
        return False
    if isinstance(v, (int, np.integer)):
        return True
    return isinstance(v, np.ndarray) and v.dtype == np.int64


def _pad(data: np.ndarray, k: int) -> np.ndarray:
    return data.reshape(data.shape + (1,) * k)


def align(args, pad=_pad):
    """The one rule lining up the operands of an elementwise operation,
    per point or whole: every cell is the result's cell or a scalar
    (else :class:`SacTypeError`), and a whole array is one cell for
    every point.  Returns the raw operands, each per-point scalar padded
    by ``pad`` with a unit axis per axis of a non-scalar cell, so that
    NumPy broadcasts a whole array over the space axes; and the number
    of space axes of the result, None when no operand is per point."""
    space, cell = None, ()
    for v in args:
        if isinstance(v, SpaceValue):
            if space is not None and v.space_dims != space.space_dims:
                raise AbstractUnsupported("mismatched iteration spaces")
            space, shape = v, v.cell_shape
        else:
            shape = getattr(v, "shape", ())
        if shape and cell and shape != cell:
            raise SacTypeError(
                f"elementwise operation on mismatched shapes {cell} and {shape}")
        cell = shape or cell
    if space is None:
        return args, None
    return [pad(v.data, len(cell)) if isinstance(v, SpaceValue) and cell
            and not v.cell_shape else raw(v) for v in args], space.space_ndim


def _rewrap(result, space_ndim):
    """A raw result as a SpaceValue when its operands were per point."""
    if space_ndim is None:
        return coerce_value(result)
    return SpaceValue(np.asarray(result), space_ndim)


def affine_binop(op: str, l, r):
    """``l op r`` with an :class:`IndexView` operand, kept in affine
    form; ``None`` when the operation leaves the affine domain."""
    try:
        if isinstance(l, IndexView):
            if op == "+":
                return l.add(r)
            if op == "-":
                return l.sub(r)
            if op == "*":
                return l.mul(r)
            if op == "/":
                return l.floordiv(r)
        elif op == "+":
            return r.add(l)
        elif op == "*":
            return r.mul(l)
        elif op == "-":
            # l - iv  ==  (-iv) + l, still affine.
            return r.mul(-1).add(l)
    except AbstractUnsupported:
        pass
    return None


#: The operators that are one operation on scalars and arrays alike.
_BINOPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "&&": np.logical_and, "||": np.logical_or,
}


def apply_binop(op: str, l, r):
    """Evaluate a binary operator on concrete and/or abstract values."""
    # Affine index fast path; fall back to materialized form when the
    # operation leaves the affine domain.
    if isinstance(l, IndexView) or isinstance(r, IndexView):
        out = affine_binop(op, l, r)
        if out is not None:
            return out
        if isinstance(l, IndexView):
            l = l.materialize()
        if isinstance(r, IndexView):
            r = r.materialize()

    (lr, rr), space = align((l, r))
    fn = _BINOPS.get(op)
    if fn is not None:
        return _rewrap(fn(lr, rr), space)
    if op == "/":
        if _is_intlike(lr) and _is_intlike(rr):
            return _rewrap(int_div(lr, rr), space)
        rarr = np.asarray(rr)
        if np.any(rarr == 0.0):
            raise SacRuntimeError("division by zero")
        return _rewrap(lr / rr, space)
    if op == "%":
        if _is_intlike(lr) and _is_intlike(rr):
            return _rewrap(int_mod(lr, rr), space)
        raise SacTypeError("'%' requires integer operands")
    raise SacRuntimeError(f"unknown operator {op!r}")


def apply_unop(op: str, v):
    if isinstance(v, IndexView):
        if op == "-":
            return v.mul(-1)
        v = v.materialize()
    (x,), space = align((v,))
    if op == "-":
        return _rewrap(-x, space)
    if op == "!":
        return _rewrap(np.logical_not(x) if isinstance(x, np.ndarray)
                       else (not x), space)
    raise SacRuntimeError(f"unknown unary operator {op!r}")


# ---------------------------------------------------------------------------
# Built-in functions.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Builtin:
    """Everything the compiler knows about one builtin function.

    The interpreter calls ``fn``, the typechecker checks ``arity``, the
    analyzer and the tracer branch on ``kind``: ``"structural"`` (reads
    only the shape), ``"elementwise"`` or ``"reduction"``.  The tracer
    emits ``code`` (an ``elementwise`` instruction's ufunc, else a
    right-hand side with a ``{}`` per operand; ``scalar_code`` on a
    scalar) as an ``instr``, of type ``dtype`` (None: the operands'
    promoted type).  ``faults``: it may warn on values outside the
    region a WITH-loop stores, which a flat-range body computes too.
    """

    name: str
    arity: int
    kind: str
    fn: Callable
    code: str = ""
    instr: str = ""
    dtype: np.dtype | None = None
    ufunc: np.ufunc | None = None
    scalar_code: str | None = None
    faults: bool = False


def _bi_dim(a):
    if isinstance(a, SpaceValue):
        return len(a.cell_shape)
    if isinstance(a, IndexView):
        return 1
    if isinstance(a, np.ndarray):
        return a.ndim
    value_type(a)  # raises for non-values
    return 0


def _bi_shape(a):
    if isinstance(a, SpaceValue):
        return np.asarray(a.cell_shape, dtype=np.int64)
    if isinstance(a, IndexView):
        return np.asarray([a.rank], dtype=np.int64)
    if isinstance(a, np.ndarray):
        return np.asarray(a.shape, dtype=np.int64)
    value_type(a)
    return np.empty(0, dtype=np.int64)


def _elementwise(fn):
    def wrapped(*args):
        if any(isinstance(a, IndexView) for a in args):
            args = tuple(
                a.materialize() if isinstance(a, IndexView) else a for a in args
            )
        raws, space = align(args)
        return _rewrap(fn(*raws), space)

    return wrapped


def _bi_toi(x):
    # Truncation toward zero, C cast semantics.
    if isinstance(x, np.ndarray):
        return np.trunc(x).astype(np.int64)
    return int(x)


def _bi_tod(x):
    if isinstance(x, np.ndarray):
        return x.astype(np.float64)
    return float(x)


def _reduction(ufunc):
    def reduce(a):
        if isinstance(a, IndexView):
            a = a.materialize()
        if isinstance(a, SpaceValue):
            axes = tuple(range(a.space_ndim, a.data.ndim))
            return SpaceValue(ufunc.reduce(a.data, axis=axes) if axes
                              else a.data.copy(), a.space_ndim)
        if isinstance(a, np.ndarray):
            return coerce_value(ufunc.reduce(a, axis=None))
        return a

    return reduce


def _ufunc(name: str, ufunc: np.ufunc, code: str, **facts) -> Builtin:
    return Builtin(name, ufunc.nin, "elementwise", _elementwise(ufunc),
                   code, "elementwise", ufunc=ufunc, **facts)


_F64, _I64 = np.dtype(np.float64), np.dtype(np.int64)

#: The builtins, by name.  Adding one means adding its record here.
BUILTINS: dict[str, Builtin] = {b.name: b for b in (
    Builtin("dim", 1, "structural", _bi_dim, dtype=_I64),
    Builtin("shape", 1, "structural", _bi_shape, dtype=_I64),
    _ufunc("abs", np.abs, "np.abs"),
    _ufunc("min", np.minimum, "np.minimum"),
    _ufunc("max", np.maximum, "np.maximum"),
    _ufunc("sqrt", np.sqrt, "np.sqrt", dtype=_F64, faults=True),
    # np.float64(x) *is* x when x is already a double array.
    Builtin("tod", 1, "elementwise", _elementwise(_bi_tod),
            "np.float64({})", "view", _F64),
    Builtin("toi", 1, "elementwise", _elementwise(_bi_toi),
            "np.trunc({}).astype(np.int64)", "alloc", _I64,
            scalar_code="int({})"),
    Builtin("sum", 1, "reduction", _reduction(np.add), "np.sum({})",
            "alloc", ufunc=np.add),
    Builtin("prod", 1, "reduction", _reduction(np.multiply),
            "np.prod({})", "alloc", ufunc=np.multiply),
)}

#: Fold operations with a vectorized reduction: the two operators and
#: the binary elementwise builtins (``min``, ``max``), which are
#: associative and commutative.
FOLD_UFUNCS = {"+": np.add, "*": np.multiply, **{
    b.name: b.ufunc for b in BUILTINS.values()
    if b.ufunc is not None and b.arity == 2}}

#: The runtime functions alone, so that a call is one lookup.
_RUNTIME = {b.name: b.fn for b in BUILTINS.values()}


def call_builtin(name: str, args):
    return _RUNTIME[name](*args)
