"""Tree-walking evaluator for the SAC subset.

Purely functional semantics: every value is immutable, assignment is
binding, function calls are call-by-value.  WITH-loops are delegated to
:mod:`repro.sac.withloop`, which vectorizes them whenever the body stays
in the affine/abstract domain.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import numpy as np

from .ast_nodes import (BinOp, BoolLit, Call, Dot, DoubleLit, Expr, FunDef,
                        IntLit, Program)
from .ast_visit import ReturnValue, StatementExecutor
from .builtins import BUILTINS, apply_binop, apply_unop, call_builtin
from .errors import (
    SacArityError,
    SacNameError,
    SacRuntimeError,
    SacTypeError,
)
from .sactypes import BaseType, SacType
from .values import (
    AbstractUnsupported,
    IndexView,
    SpaceValue,
    any_abstract,
    cell_type,
    coerce_value,
    is_int_vector,
    value_type,
)
from .withloop import eval_withloop

__all__ = ["Env", "Interpreter", "FunctionTable"]

#: Guard against runaway recursion in user programs.
MAX_CALL_DEPTH = 200


@contextmanager
def deep_recursion():
    """Raise CPython's recursion limit for one evaluation: a SAC call takes
    several Python frames, and the depth guard must fire first."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 25 * MAX_CALL_DEPTH))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class Env:
    """Lexical environment: a binding dict with an optional parent."""

    __slots__ = ("bindings", "parent", "memo")

    def __init__(self, bindings: dict | None = None, parent: "Env | None" = None):
        self.bindings = bindings if bindings is not None else {}
        self.parent = parent
        #: A WITH-loop body's kept ``IndexView.memo``: read in this env
        #: only, so a callee or a nested loop sees none.
        self.memo: dict | None = None

    def lookup(self, name: str):
        env = self
        while env is not None:
            if name in env.bindings:
                return env.bindings[name]
            env = env.parent
        raise SacNameError(f"undefined variable {name!r}")

    def contains(self, name: str) -> bool:
        env = self
        while env is not None:
            if name in env.bindings:
                return True
            env = env.parent
        return False

    def bind(self, name: str, value) -> None:
        self.bindings[name] = value

    def child(self, bindings: dict | None = None) -> "Env":
        return Env(bindings or {}, self)


class FunctionTable:
    """Overload sets keyed by function name."""

    def __init__(self) -> None:
        self._funs: dict[str, list[FunDef]] = {}
        #: ``resolve``'s answers by name and argument types.
        self._resolved: dict[tuple, FunDef] = {}

    def add(self, fun: FunDef) -> None:
        self._funs.setdefault(fun.name, []).append(fun)
        self._resolved.clear()

    def update(self, program: Program) -> None:
        for fun in program.functions:
            self.add(fun)

    def overloads(self, name: str) -> list[FunDef]:
        return self._funs.get(name, [])

    def names(self):
        return self._funs.keys()

    def resolve(self, name: str, argtypes: list[SacType]) -> FunDef:
        """Pick the most specific overload accepting the argument types,
        once per name and types (a call that raised keeps nothing)."""
        key = name, tuple(argtypes)
        fun = self._resolved.get(key)
        if fun is None:
            fun = self._resolved[key] = self._pick(name, argtypes)
        return fun

    def _pick(self, name: str, argtypes: list[SacType]) -> FunDef:
        candidates = [
            f for f in self.overloads(name)
            if f.arity == len(argtypes)
            and all(p.type.accepts(t) for p, t in zip(f.params, argtypes))
        ]
        if not candidates:
            avail = self.overloads(name)
            if not avail:
                raise SacNameError(f"undefined function {name!r}")
            sigs = "; ".join(
                "(" + ", ".join(str(p.type) for p in f.params) + ")" for f in avail
            )
            raise SacArityError(
                f"no overload of {name!r} accepts ("
                + ", ".join(map(str, argtypes))
                + f"); available: {sigs}"
            )
        best = min(
            candidates, key=lambda f: sum(p.type.specificity() for p in f.params)
        )
        score = sum(p.type.specificity() for p in best.params)
        ties = [
            f for f in candidates
            if sum(p.type.specificity() for p in f.params) == score and f is not best
        ]
        if ties:
            raise SacTypeError(f"ambiguous overloads for {name!r}")
        return best


class Interpreter(StatementExecutor):
    """Evaluator over a :class:`FunctionTable`; ``vectorize`` off runs
    every WITH-loop as a scalar reference loop.

    The rules below are written for concrete and abstract
    (:class:`IndexView`/:class:`SpaceValue`) values; the overridable
    pieces — ``binop``/``unop``/``builtin``/``vector``/``select``,
    ``dispatch_type``, ``static``, ``bad_condition``, ``array_types`` —
    are where :class:`repro.sac.codegen.Tracer` adds its symbolic value
    kind and nothing else.
    """

    #: Value kinds a modarray may take as its frame.
    array_types: tuple = (np.ndarray,)
    binop = staticmethod(apply_binop)
    unop = staticmethod(apply_unop)
    builtin = staticmethod(call_builtin)

    def __init__(self, functions: FunctionTable, vectorize: bool = True):
        self.functions = functions
        self.vectorize = vectorize
        self._depth = 0
        #: Resolved WITH-loop heads (withloop.withloop_head), by loop
        #: node; None while nothing may be kept.
        self.heads: dict | None = {}
        #: Constant vector literals, read-only, by node.
        self.literals: dict = {}

    # -- public API ----------------------------------------------------------

    def call(self, name: str, *args):
        """Call a SAC function with Python/NumPy values; returns a value."""
        with deep_recursion():
            value = self.apply_named(name, [self._ingest(a) for a in args])
        if isinstance(value, np.ndarray) and not value.flags.writeable:
            value = value.copy()  # a kept literal, or a view of one
        return value

    @staticmethod
    def _ingest(v):
        if isinstance(v, np.ndarray):
            if v.dtype == np.float64 or v.dtype == np.int64 or v.dtype == np.bool_:
                return v
            if np.issubdtype(v.dtype, np.integer):
                return v.astype(np.int64)
            if np.issubdtype(v.dtype, np.floating):
                return v.astype(np.float64)
            raise SacTypeError(f"unsupported argument dtype {v.dtype}")
        return coerce_value(v)

    # -- function application --------------------------------------------------

    def apply_named(self, name: str, args: list):
        """Apply a named function: operators, then user overloads (which
        shadow builtins when they match), then builtins."""
        if name in ("+", "-", "*", "/", "%"):
            if len(args) != 2:
                raise SacArityError(f"operator {name!r} needs two arguments")
            return self.binop(name, args[0], args[1])
        if self.functions.overloads(name):
            argtypes = [self.dispatch_type(a) for a in args]
            try:
                fun = self.functions.resolve(name, argtypes)
            except (SacArityError, SacNameError):
                if name in BUILTINS:
                    return self.builtin(name, args)
                raise
            return self.apply_fundef(fun, args)
        if name in BUILTINS:
            return self.builtin(name, args)
        raise SacNameError(f"undefined function {name!r}")

    @staticmethod
    def dispatch_type(v) -> SacType:
        """Type used for overload resolution, for concrete *and* abstract
        values (abstract values dispatch on their per-point cell type)."""
        if isinstance(v, IndexView):
            return SacType.aks(BaseType.INT, (v.rank,))
        if isinstance(v, SpaceValue):
            return cell_type(v.data.dtype, v.cell_shape)
        return value_type(v)

    def apply_fundef(self, fun: FunDef, args: list):
        if self._depth >= MAX_CALL_DEPTH:
            raise SacRuntimeError(
                f"call depth exceeded ({MAX_CALL_DEPTH}) in {fun.name!r}"
            )
        env = Env({p.name: a for p, a in zip(fun.params, args)})
        self._depth += 1
        try:
            self.exec_block(fun.body, env)
        except ReturnValue as ret:
            return ret.value
        finally:
            self._depth -= 1
        if fun.return_type.base is BaseType.VOID:
            return None
        raise SacRuntimeError(f"function {fun.name!r} did not return a value")

    # -- statements ------------------------------------------------------------
    # Control flow (Assign/Return/If/For/While/DoWhile/ExprStmt/Block)
    # comes from the shared StatementExecutor; the hooks below fill in
    # the interpreter-specific pieces.

    def bind(self, env: Env, name: str, value) -> None:
        env.bind(name, value)

    def exec_cond(self, expr: Expr, env: Env, what: str) -> bool:
        v = coerce_value(self.eval_expr(expr, env))
        if isinstance(v, bool):
            return v
        raise self.bad_condition(v, expr, what)

    def bad_condition(self, v, expr: Expr, what: str) -> Exception:
        """The error for a ``what`` condition that is not a known bool."""
        if isinstance(v, (SpaceValue, IndexView)):
            return AbstractUnsupported("data-dependent control flow")
        return SacTypeError(
            f"condition must be a boolean, got {value_type(v)}"
            + (f" at {expr.pos}" if getattr(expr, "pos", None) else "")
        )

    def static(self, expr: Expr, env: Env, what: str):
        """Evaluate an expression that shapes the iteration itself (a
        generator bound, step or width, a genarray shape): its value must
        be known before the loop runs, so it cannot be per-point."""
        v = coerce_value(self.eval_expr(expr, env))
        if isinstance(v, (SpaceValue, IndexView)):
            raise AbstractUnsupported(f"per-point {what}")
        return v

    # -- expressions -------------------------------------------------------------
    # Dispatch to ``eval_<ClassName>`` comes from the shared
    # ExprDispatcher base (per-class memoized table).

    def eval_IntLit(self, expr, env: Env):
        return expr.value

    def eval_DoubleLit(self, expr, env: Env):
        return expr.value

    def eval_BoolLit(self, expr, env: Env):
        return expr.value

    def eval_Var(self, expr, env: Env):
        try:
            return env.lookup(expr.name)
        except SacNameError as exc:
            exc.pos = exc.pos or expr.pos
            raise

    def eval_Dot(self, expr: Dot, env: Env):
        raise SacRuntimeError("'.' is only legal inside a generator")

    def eval_VectorLit(self, expr, env: Env):
        kept = self.literals.get(id(expr)) if self.heads is not None else None
        if kept is not None and kept[0] is expr:
            return kept[1]
        value = self.vector([self.eval_expr(e, env) for e in expr.elements])
        if self.heads is not None and all(
                isinstance(e, (IntLit, DoubleLit, BoolLit))
                for e in expr.elements):
            value.flags.writeable = False
            self.literals[id(expr)] = expr, value
        return value

    def vector(self, values: list):
        """The value of a vector literal with these element values."""
        if not values:
            return np.empty(0, dtype=np.int64)
        values = [coerce_value(v) for v in values]
        if any_abstract(values):
            return self._eval_vector_abstract(values)
        try:
            arr = np.asarray(values)
        except ValueError as exc:
            raise SacTypeError(f"ragged array literal: {exc}") from None
        if arr.dtype == object:
            raise SacTypeError("ragged array literal")
        if np.issubdtype(arr.dtype, np.integer):
            arr = arr.astype(np.int64)
        elif np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        return arr

    @staticmethod
    def _eval_vector_abstract(values):
        values = [v.materialize() if isinstance(v, IndexView) else v
                  for v in values]
        space = next(v for v in values if isinstance(v, SpaceValue))
        cells = {v.cell_shape if isinstance(v, SpaceValue) else np.shape(v)
                 for v in values}
        if len(cells) != 1:
            raise SacTypeError("ragged array literal")
        dims = space.space_dims + cells.pop()
        return SpaceValue(np.stack([
            v.data if isinstance(v, SpaceValue) else np.broadcast_to(v, dims)
            for v in values], axis=space.space_ndim), space.space_ndim)

    def eval_BinOp(self, expr: BinOp, env: Env):
        # Short-circuit on concrete booleans only.
        if expr.op in ("&&", "||"):
            left = self.eval_expr(expr.left, env)
            if not isinstance(left, (SpaceValue, IndexView, np.ndarray)):
                left = coerce_value(left)
                if isinstance(left, bool):
                    if expr.op == "&&" and not left:
                        return False
                    if expr.op == "||" and left:
                        return True
                    return self.eval_expr(expr.right, env)
            return self.binop(expr.op, left, self.eval_expr(expr.right, env))
        return self.binop(
            expr.op, self.eval_expr(expr.left, env), self.eval_expr(expr.right, env)
        )

    def eval_UnOp(self, expr, env: Env):
        return self.unop(expr.op, self.eval_expr(expr.operand, env))

    def eval_Call(self, expr: Call, env: Env):
        args = [self.eval_expr(a, env) for a in expr.args]
        try:
            return self.apply_named(expr.name, args)
        except (SacNameError, SacArityError) as exc:
            exc.pos = exc.pos or expr.pos
            raise

    def eval_Select(self, expr, env: Env):
        array = self.eval_expr(expr.array, env)
        memo, key = env.memo, id(expr.index)
        if memo is None or key not in memo:
            return self.select(array, self.eval_expr(expr.index, env))
        # An index the body's kept view decides (withloop._index_nodes).
        index = memo[key]
        if index is None:
            index = self.eval_expr(expr.index, env)
            if isinstance(index, IndexView):
                if index.memo is None:
                    index.memo = {}
                memo[key] = index
        return self.select(array, index)

    def eval_WithLoop(self, expr, env: Env):
        return eval_withloop(self, env, expr)

    # -- selection ---------------------------------------------------------------

    def select(self, array, index):
        """SAC selection ``array[index]`` for concrete and abstract operands."""
        index = coerce_value(index)
        # iv[[j]] — component of the index variable.
        if isinstance(array, IndexView):
            return self._select_from_indexview(array, index)
        if isinstance(array, SpaceValue):
            return self._select_from_spacevalue(array, index)
        if not isinstance(array, np.ndarray):
            raise SacTypeError(
                f"cannot select from a scalar ({value_type(array)})"
            )
        if isinstance(index, IndexView):
            return self._select_affine(array, index)
        if isinstance(index, SpaceValue):
            return self._select_gather(array, index)
        return self._select_concrete(array, index)

    @staticmethod
    def _index_tuple(index) -> tuple[int, ...]:
        if isinstance(index, (int, np.integer)) and not isinstance(index, bool):
            return (int(index),)
        if is_int_vector(index):
            return tuple(int(x) for x in index)
        raise SacTypeError("selection index must be an int or an int vector")

    @staticmethod
    def _check_index_length(n: int, rank: int) -> None:
        if n > rank:
            raise SacTypeError(f"index of length {n} into rank-{rank} array")

    def _checked_index(self, index, shape: tuple[int, ...]) -> tuple[int, ...]:
        """``index`` as a tuple, checked against the leading axes of
        ``shape`` — the one concrete selection-index rule."""
        idx = self._index_tuple(index)
        self._check_index_length(len(idx), len(shape))
        for j, (i, ext) in enumerate(zip(idx, shape)):
            if i < 0 or i >= ext:
                raise SacRuntimeError(
                    f"index {i} out of bounds for axis {j} with extent {ext}"
                )
        return idx

    def _select_concrete(self, array: np.ndarray, index):
        result = array[self._checked_index(index, array.shape)]
        return coerce_value(result) if np.isscalar(result) or result.ndim == 0 \
            else result.copy()

    def _select_affine(self, array: np.ndarray, iv: IndexView):
        memo = iv.memo if self.heads is not None else None
        sel = None if memo is None else memo.get(array.shape)
        if sel is None:
            self._check_index_length(iv.rank, array.ndim)
            sel = iv.slices(array.shape)
            if memo is not None:
                memo[array.shape] = sel
        return SpaceValue(array[sel], iv.rank)

    def _select_gather(self, array: np.ndarray, index: SpaceValue):
        if index.cell_shape == () :
            comps = [index.data]
        elif len(index.cell_shape) == 1:
            comps = [index.data[..., j] for j in range(index.cell_shape[0])]
        else:
            raise AbstractUnsupported("index cell must be scalar or vector")
        self._check_index_length(len(comps), array.ndim)
        for j, comp in enumerate(comps):
            if comp.min() < 0 or comp.max() >= array.shape[j]:
                raise SacRuntimeError(
                    f"index out of bounds for axis {j} in gather selection"
                )
        data = array[tuple(comps)]
        return SpaceValue(data, index.space_ndim)

    def _index_component(self, iv: IndexView, index) -> int:
        """Which component ``iv[index]`` names, checked."""
        idx = self._index_tuple(index)
        if len(idx) != 1:
            raise SacTypeError("index-variable selection takes one component")
        j = idx[0]
        if j < 0 or j >= iv.rank:
            raise SacRuntimeError(
                f"component {j} out of range for index vector of length {iv.rank}"
            )
        return j

    def _select_from_indexview(self, iv: IndexView, index):
        j = self._index_component(iv, index)
        dims = iv.space_dims
        shape = [1] * len(dims)
        shape[j] = dims[j]
        data = np.broadcast_to(iv.axes[j].values().reshape(shape), dims)
        return SpaceValue(data, len(dims))

    def _select_from_spacevalue(self, sv: SpaceValue, index):
        if isinstance(index, (SpaceValue, IndexView)):
            raise AbstractUnsupported("abstract index into abstract array")
        idx = self._checked_index(index, sv.cell_shape)
        sel = (slice(None),) * sv.space_ndim + idx
        return SpaceValue(sv.data[sel], sv.space_ndim)
