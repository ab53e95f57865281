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

import inspect

import numpy as np

from .errors import SacRuntimeError, SacTypeError
from .values import (
    AbstractUnsupported,
    IndexView,
    SpaceValue,
    coerce_value,
    value_type,
)

__all__ = [
    "apply_binop",
    "apply_unop",
    "int_div",
    "int_mod",
    "BUILTINS",
    "builtin_arity",
    "call_builtin",
    "is_builtin",
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


def _raw(v):
    """Unwrap SpaceValue to its ndarray; pass concrete values through."""
    return v.data if isinstance(v, SpaceValue) else v


def _check_elementwise_shapes(l, r) -> None:
    """SAC elementwise ops need equal shapes or a scalar operand."""
    ls = l.shape if isinstance(l, np.ndarray) else ()
    rs = r.shape if isinstance(r, np.ndarray) else ()
    if ls and rs and ls != rs:
        raise SacTypeError(
            f"elementwise operation on mismatched shapes {ls} and {rs}"
        )


def _rewrap(result, l, r=None):
    """Wrap a raw result back into a SpaceValue if an operand was one."""
    for v in (l, r):
        if isinstance(v, SpaceValue):
            return SpaceValue(np.asarray(result), v.space_ndim)
    return coerce_value(result)


def _binop_spaces_compatible(l, r) -> None:
    if (
        isinstance(l, SpaceValue)
        and isinstance(r, SpaceValue)
        and l.space_dims != r.space_dims
    ):
        raise AbstractUnsupported("mismatched iteration spaces")


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

    _binop_spaces_compatible(l, r)
    lr, rr = _raw(l), _raw(r)
    if not isinstance(l, SpaceValue) and not isinstance(r, SpaceValue):
        _check_elementwise_shapes(lr, rr)

    if op == "+":
        return _rewrap(lr + rr, l, r)
    if op == "-":
        return _rewrap(lr - rr, l, r)
    if op == "*":
        return _rewrap(lr * rr, l, r)
    if op == "/":
        if _is_intlike(lr) and _is_intlike(rr):
            return _rewrap(int_div(lr, rr), l, r)
        rarr = np.asarray(rr)
        if np.any(rarr == 0.0):
            raise SacRuntimeError("division by zero")
        return _rewrap(lr / rr, l, r)
    if op == "%":
        if _is_intlike(lr) and _is_intlike(rr):
            return _rewrap(int_mod(lr, rr), l, r)
        raise SacTypeError("'%' requires integer operands")
    if op == "==":
        return _rewrap(np.equal(lr, rr) if _any_array(lr, rr) else lr == rr, l, r)
    if op == "!=":
        return _rewrap(np.not_equal(lr, rr) if _any_array(lr, rr) else lr != rr, l, r)
    if op == "<":
        return _rewrap(lr < rr, l, r)
    if op == "<=":
        return _rewrap(lr <= rr, l, r)
    if op == ">":
        return _rewrap(lr > rr, l, r)
    if op == ">=":
        return _rewrap(lr >= rr, l, r)
    if op == "&&":
        return _rewrap(np.logical_and(lr, rr) if _any_array(lr, rr) else (lr and rr), l, r)
    if op == "||":
        return _rewrap(np.logical_or(lr, rr) if _any_array(lr, rr) else (lr or rr), l, r)
    raise SacRuntimeError(f"unknown operator {op!r}")


def _any_array(*vs) -> bool:
    return any(isinstance(v, np.ndarray) for v in vs)


def apply_unop(op: str, v):
    if isinstance(v, IndexView):
        if op == "-":
            return v.mul(-1)
        v = v.materialize()
    raw = _raw(v)
    if op == "-":
        return _rewrap(-raw, v)
    if op == "!":
        return _rewrap(np.logical_not(raw) if isinstance(raw, np.ndarray) else (not raw), v)
    raise SacRuntimeError(f"unknown unary operator {op!r}")


# ---------------------------------------------------------------------------
# Built-in functions.
# ---------------------------------------------------------------------------

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
        raws = tuple(_raw(a) for a in args)
        result = fn(*raws)
        for a in args:
            if isinstance(a, SpaceValue):
                return SpaceValue(np.asarray(result), a.space_ndim)
        return coerce_value(result)

    wrapped.__wrapped__ = fn
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


def _cell_reduce(a: SpaceValue, ufunc) -> SpaceValue:
    axes = tuple(range(a.space_ndim, a.data.ndim))
    return SpaceValue(ufunc.reduce(a.data, axis=axes) if axes else a.data.copy(),
                      a.space_ndim)


def _bi_sum(a):
    if isinstance(a, IndexView):
        a = a.materialize()
    if isinstance(a, SpaceValue):
        return _cell_reduce(a, np.add)
    if isinstance(a, np.ndarray):
        return coerce_value(a.sum())
    return a


def _bi_prod(a):
    if isinstance(a, IndexView):
        a = a.materialize()
    if isinstance(a, SpaceValue):
        return _cell_reduce(a, np.multiply)
    if isinstance(a, np.ndarray):
        return coerce_value(a.prod())
    return a


BUILTINS: dict[str, object] = {
    "dim": _bi_dim,
    "shape": _bi_shape,
    "abs": _elementwise(np.abs),
    "min": _elementwise(np.minimum),
    "max": _elementwise(np.maximum),
    "sqrt": _elementwise(np.sqrt),
    "tod": _elementwise(_bi_tod),
    "toi": _elementwise(_bi_toi),
    "sum": _bi_sum,
    "prod": _bi_prod,
}

#: Fold operations with a vectorized reduction.
FOLD_UFUNCS = {
    "+": np.add,
    "*": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
}


def is_builtin(name: str) -> bool:
    return name in BUILTINS


def builtin_arity(name: str) -> int:
    """The number of arguments builtin ``name`` takes."""
    fn = inspect.unwrap(BUILTINS[name])
    return fn.nin if isinstance(fn, np.ufunc) else len(
        inspect.signature(fn).parameters)


def call_builtin(name: str, args):
    fn = BUILTINS[name]
    return fn(*args)
