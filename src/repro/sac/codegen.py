"""Shape-specializing code generator: SAC to standalone NumPy Python.

``sac2c`` compiles by *specializing* shape-polymorphic functions to the
concrete shapes of their call sites and emitting loop code.  This
backend does the same thing for our dialect: given a function and
example arguments, it traces the program once — array extents, generator
bounds and control flow all become concrete; recursion and loops unroll
— and emits a flat Python function whose body is pure NumPy slice
arithmetic.  No interpreter is involved when the compiled function runs.

    from repro.sac.codegen import compile_function
    compiled = compile_function(prog, "MGrid", example_args=(v, 4))
    u = compiled(v, 4)        # straight-line NumPy, bit-compatible
    print(compiled.source)    # the generated module text

The trace is a list of :class:`~repro.sac.bufplan.Instr` records, not
text: :func:`~repro.sac.bufplan.plan` runs over it once, so that chains
of elementwise operations accumulate into their own dead intermediates
and dead buffers are freed, before each record is rendered to its line.

Specialization contract: double/bool *array* parameters stay symbolic
(only their shapes are baked in); scalar ints, int vectors and scalar
doubles used in control flow are baked into the code and validated at
call time.  Data-dependent control flow and non-affine WITH-loops raise
:class:`CodegenUnsupported` at compile time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ast_nodes import Expr, FoldOp, FunDef, GenarrayOp, ModarrayOp, WithLoop
from .bufplan import ELEMENTWISE, Instr, plan, render
from .builtins import FOLD_UFUNCS, affine_binop
from .errors import SacError, SacRuntimeError, SacTypeError
from .interp import FunctionTable, Interpreter
from .sactypes import SacType
from .values import AffineAxis, IndexView, cell_type, coerce_value, dtype_of
from .withloop import IndexSpace, withloop_head

__all__ = ["CodegenUnsupported", "CompiledFunction", "KernelArtifact",
           "compile_function", "trace_fundef",
           "load_artifact", "trace_event_count"]

#: Process-wide count of specializing traces performed (monotonic).
#: Warm-path tests assert this does not move when every kernel is
#: served from the content-addressed cache.
_trace_events = 0


def trace_event_count() -> int:
    """How many specializing traces this process has performed."""
    return _trace_events


class CodegenUnsupported(SacError):
    """The program left the specializable subset."""


# ---------------------------------------------------------------------------
# Symbolic values.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TArray:
    """A symbolic NumPy value living in the generated code.

    ``code`` is a Python expression (almost always a temp name); shape
    and dtype are known exactly thanks to specialization.  ``shape`` may
    include the WITH-loop space dimensions when the value is per-point.
    """

    code: str
    shape: tuple[int, ...]
    dtype: np.dtype


def _symbolic(*values) -> bool:
    """Whether any value is one the interpreter's rules cannot finish:
    a traced array, or the index variable the trace must keep affine."""
    return any(isinstance(v, (TArray, IndexView)) for v in values)


def _shape_of(v) -> tuple[int, ...]:
    if isinstance(v, TArray):
        return v.shape
    if isinstance(v, np.ndarray):
        return v.shape
    return ()


def _dtype_of(v) -> np.dtype:
    return v.dtype if isinstance(v, TArray) else dtype_of(v)


# ---------------------------------------------------------------------------
# Emission.
# ---------------------------------------------------------------------------

class Emitter:
    """The trace: a straight-line list of :class:`~.bufplan.Instr`."""

    def __init__(self) -> None:
        self.instrs: list[Instr] = []
        self.consts: dict[str, str] = {}  # const name -> literal code
        self._const_cache: dict[bytes, str] = {}
        self._n = 0

    def assign(self, kind: str, op: str, operands: tuple,
               shape: tuple[int, ...], dtype: np.dtype) -> TArray:
        """Bind a fresh temp to ``op`` of ``operands`` (traced values)."""
        self._n += 1
        name = f"_t{self._n}"
        self.instrs.append(Instr(
            name, kind, op, tuple(_code_of(self, v) for v in operands),
            shape, dtype))
        return TArray(name, shape, dtype)

    def const_array(self, arr: np.ndarray) -> str:
        """Intern a concrete array as a module-level constant."""
        key = arr.tobytes() + str(arr.dtype).encode() + str(arr.shape).encode()
        cached = self._const_cache.get(key)
        if cached is not None:
            return cached
        name = f"_C{len(self.consts)}"
        literal = np.array2string(
            arr, separator=", ", threshold=1 << 20, floatmode="unique"
        )
        self.consts[name] = (
            f"np.array({literal}, dtype=np.{arr.dtype.name})"
        )
        self._const_cache[key] = name
        return name


def _code_of(em: Emitter, v) -> str:
    """Python expression for any traced value."""
    if isinstance(v, TArray):
        return v.code
    if isinstance(v, np.ndarray):
        return em.const_array(v)
    if isinstance(v, bool):
        return "True" if v else "False"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    raise CodegenUnsupported(f"cannot embed value of type {type(v).__name__}")


def _is_positive_zero(v) -> bool:
    """A concrete scalar whose stored bits are those of ``np.zeros``."""
    return (isinstance(v, (bool, int, float)) and v == 0
            and math.copysign(1.0, v) > 0)


def _slices_code(axes: tuple[AffineAxis, ...], extra_full: int = 0) -> str:
    parts = []
    for ax in axes:
        stop = ax.offset + ax.stride * (ax.count - 1) + 1
        step = f":{ax.stride}" if ax.stride != 1 else ""
        parts.append(f"{ax.offset}:{stop}{step}")
    parts.extend([":"] * extra_full)
    return ", ".join(parts)


# ---------------------------------------------------------------------------
# The tracer.
# ---------------------------------------------------------------------------

#: Elementwise builtins whose result dtype is not the operands' promotion.
_FORCED_DTYPE = {"sqrt": np.dtype(np.float64), "tod": np.dtype(np.float64)}


class Tracer(Interpreter):
    """The interpreter plus one more value kind: a symbolic :class:`TArray`.

    Every rule over concrete values — literals, variables, overload
    dispatch, function application, generator resolution, selection
    index checks, builtins — is the :class:`Interpreter`'s own.  The
    overrides below handle only what involves a :class:`TArray` (emit an
    :class:`~.bufplan.Instr`) or an :class:`IndexView` that a trace must
    keep affine (refuse with :class:`CodegenUnsupported` where the
    interpreter would materialize a per-point value or fall back to a
    scalar loop, neither of which a straight-line trace has).
    """

    array_types = (np.ndarray, TArray)

    def __init__(self, functions: FunctionTable, emitter: Emitter,
                 max_statements: int = 200_000):
        super().__init__(functions)
        self.em = emitter
        self.max_statements = max_statements

    def _guard_size(self) -> None:
        if len(self.em.instrs) > self.max_statements:
            raise CodegenUnsupported(
                "generated code exceeds the statement budget "
                f"({self.max_statements}); the specialization unrolls too far"
            )

    def before_stmt(self, stmt) -> None:
        self._guard_size()

    # -- what may not be symbolic ---------------------------------------------

    def bad_condition(self, v, expr: Expr, what: str) -> Exception:
        if _symbolic(v):
            return CodegenUnsupported(
                f"data-dependent {what} cannot be specialized"
            )
        return super().bad_condition(v, expr, what)

    def static(self, expr: Expr, env, what: str):
        v = self.eval_expr(expr, env)
        if _symbolic(v):
            raise CodegenUnsupported(f"symbolic {what}")
        return coerce_value(v)

    def dispatch_type(self, v) -> SacType:
        if isinstance(v, TArray):
            return cell_type(v.dtype, v.shape)
        return super().dispatch_type(v)

    # -- operators and builtins -----------------------------------------------

    def binop(self, op: str, l, r):
        if isinstance(l, IndexView) or isinstance(r, IndexView):
            out = affine_binop(op, l, r)
            if out is None:
                raise CodegenUnsupported(
                    f"non-affine index arithmetic ({op}) in specialized code"
                )
            return out
        if not _symbolic(l, r):
            return super().binop(op, l, r)
        self._guard_size()
        shape = np.broadcast_shapes(_shape_of(l), _shape_of(r))
        if op in ("/", "%"):
            int_op = (
                _dtype_of(l) == np.int64 and _dtype_of(r) == np.int64
            )
            if int_op:
                fn = "_sac_idiv" if op == "/" else "_sac_imod"
                return self.em.assign("alloc", fn + "({}, {})", (l, r),
                                      shape, np.dtype(np.int64))
            if op == "%":
                raise SacTypeError("'%' requires integer operands")
            dtype = np.dtype(np.float64)
        elif op not in ELEMENTWISE:
            raise CodegenUnsupported(f"operator {op!r} not supported")
        elif op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
            dtype = np.dtype(np.bool_)
        else:
            dtype = np.promote_types(_dtype_of(l), _dtype_of(r))
        return self.em.assign("elementwise", op, (l, r), shape, dtype)

    def unop(self, op: str, v):
        if isinstance(v, IndexView) and op != "-":
            raise CodegenUnsupported("'!' on an index vector")
        if not isinstance(v, TArray):
            return super().unop(op, v)
        if op == "-":
            return self.em.assign("elementwise", "neg", (v,), v.shape,
                                  v.dtype)
        return self.em.assign("elementwise", "!", (v,), v.shape,
                              np.dtype(np.bool_))

    def builtin(self, name: str, args):
        a = args[0] if args else None
        if isinstance(a, TArray) and name == "dim":
            return len(a.shape)
        if isinstance(a, TArray) and name == "shape":
            return np.asarray(a.shape, dtype=np.int64)
        if name in ("dim", "shape") or not _symbolic(*args):
            return super().builtin(name, args)
        if name == "toi":
            code = "np.trunc({}).astype(np.int64)" if _shape_of(a) \
                else "int({})"
            return self.em.assign("alloc", code, (a,), _shape_of(a),
                                  np.dtype(np.int64))
        if name in ("sum", "prod"):
            return self.em.assign("alloc", f"np.{name}({{}})", (a,), (),
                                  _dtype_of(a))
        if name in ("abs", "sqrt", "min", "max", "tod"):
            shape = np.broadcast_shapes(*(_shape_of(a) for a in args))
            dtype = _FORCED_DTYPE.get(name) or np.promote_types(
                _dtype_of(args[0]), _dtype_of(args[-1]))
            if name == "tod":
                # np.float64(x) *is* x when x is already a double array.
                return self.em.assign("view", "np.float64({})", tuple(args),
                                      shape, dtype)
            return self.em.assign("elementwise", name, tuple(args), shape,
                                  dtype)
        raise CodegenUnsupported(f"builtin {name!r} not supported in codegen")

    def vector(self, values: list):
        if not _symbolic(*values):
            return super().vector(values)
        shapes = {_shape_of(v) for v in values}
        if len(shapes) != 1:
            raise CodegenUnsupported("mixed-shape symbolic vector literal")
        cell = shapes.pop()
        dtype = np.promote_types(
            _dtype_of(values[0]), _dtype_of(values[-1])
        )
        slots = ", ".join(["{}"] * len(values))
        return self.em.assign(
            "alloc",
            f"np.stack([{slots}], axis=-1)" if cell
            else f"np.array([{slots}])",
            tuple(values), cell + (len(values),), dtype,
        )

    # -- selection ----------------------------------------------------------------------

    def select(self, array, index):
        if isinstance(array, IndexView):
            if _symbolic(index):
                raise CodegenUnsupported("symbolic index into index vector")
            # Component j of the index vector varies along space axis j;
            # emit its value grid as a constant-stride arange expression.
            j = self._index_component(array, coerce_value(index))
            ax = array.axes[j]
            dims = array.space_dims
            code = (
                f"(np.arange({ax.count}, dtype=np.int64) * {ax.stride} + "
                f"{ax.offset})"
            )
            reshape = ["1"] * len(dims)
            reshape[j] = str(ax.count)
            code = f"{code}.reshape({', '.join(reshape)})"
            bcast = ", ".join(str(d) for d in dims)
            return self.em.assign(
                "view", f"np.broadcast_to({code}, ({bcast},))", (), dims,
                np.dtype(np.int64),
            )
        if isinstance(array, np.ndarray):
            if isinstance(index, IndexView):
                # Concrete array indexed by the loop index: the per-point
                # values are known now, as an array over the space.
                return self._select_gather(array, index.materialize()).data
            if isinstance(index, TArray):
                raise CodegenUnsupported("selection index must be a concrete "
                                         "int or int vector")
        if not isinstance(array, TArray):
            return super().select(array, index)
        if isinstance(index, TArray):
            raise CodegenUnsupported("data-dependent selection")
        if isinstance(index, IndexView):
            n = index.rank
            self._check_index_length(n, len(array.shape))
            for ax, ext in zip(index.axes, array.shape):
                if ax.stride <= 0:
                    raise CodegenUnsupported("non-positive index stride")
                last = ax.offset + ax.stride * (ax.count - 1)
                if ax.offset < 0 or last >= ext:
                    raise SacRuntimeError(
                        f"index range {ax.offset}..{last} out of bounds "
                        f"for extent {ext}"
                    )
            sel = _slices_code(index.axes, len(array.shape) - n)
            shape = index.space_dims + array.shape[n:]
        else:
            idx = self._checked_index(coerce_value(index), array.shape)
            sel = ", ".join(str(i) for i in idx)
            shape = array.shape[len(idx):]
        return self.em.assign("view", f"{{}}[{sel}]", (array,), shape,
                              array.dtype)

    # -- WITH-loops -----------------------------------------------------------------------

    def eval_WithLoop(self, wl: WithLoop, env):
        space, shp, base, body_env = withloop_head(self, env, wl)
        if body_env is None:
            raise CodegenUnsupported("width filters are not specializable")
        op = wl.operation
        if isinstance(op, FoldOp):
            return self._fold(op, body_env, space, env)

        # Compile-time evaluation: when every input is concrete the loop
        # can run now (index vectors like the periodic-border unit vector
        # must, or generator bounds downstream turn symbolic).  Large
        # float arrays stay symbolic so zeros(34^3) is an expression in
        # the generated code, not a constant-pool blob.
        concrete = self._try_withloop_concrete(op, body_env, space, shp, base)
        if concrete is not None:
            return concrete

        body = self.eval_expr(op.body, body_env)
        cell = self._cell_shape(body, space)
        if isinstance(op, GenarrayOp):
            dtype = _dtype_of(body)
            out = self.em.assign(
                "alloc", f"np.zeros({shp + cell}, dtype=np.{dtype.name})",
                (), shp + cell, dtype,
            )
        else:
            dtype = np.promote_types(_dtype_of(base), _dtype_of(body))
            if self._may_reuse_frame(wl, base, dtype):
                # Certified in-place update (repro.sac.optim.ipup): the
                # frame is a dead, unaliased temp of this trace, so the
                # result steals its buffer instead of copying.  The body
                # above is an expression over *views* of the frame;
                # NumPy materializes the right-hand side of a slice
                # assignment before writing, so overlap is safe.
                out = TArray(base.code, base.shape, dtype)
            else:
                out = self.em.assign("copy", "{}.copy()", (base,),
                                     base.shape, dtype)
            if cell != base.shape[space.rank:]:
                raise SacTypeError("modarray cell shape mismatch")
        # A fresh np.zeros already holds a stored +0.
        stores_zero = isinstance(op, GenarrayOp) and _is_positive_zero(body)
        if not space.is_empty and not stores_zero:
            region = _slices_code(space.axes(), len(cell))
            self.em.instrs.append(Instr(
                None, "store", f"{{}}[{region}] = {{}}",
                (out.code, _code_of(self.em, body))))
        return out

    @staticmethod
    def _may_reuse_frame(wl: WithLoop, base, dtype: np.dtype) -> bool:
        """Whether a modarray result may steal its frame's buffer.

        Requires the static certificate (a :class:`ReuseHint` attached
        by the ipup pass) *and* trace-level guards: the frame must be a
        symbolic temp of this trace — never a function parameter or an
        interned module constant, whose buffers the caller owns — and
        the write must not promote the dtype.
        """
        hint = wl.hint
        return (
            hint is not None
            and hint.buffer_reuse
            and isinstance(base, TArray)
            and base.code.startswith("_t")
            and dtype == base.dtype
        )

    _CONCRETE_FOLD_LIMIT = 64

    def _try_withloop_concrete(self, op, body_env, space: IndexSpace,
                               shp, base):
        """Evaluate a genarray/modarray WITH-loop at compile time when all
        inputs are concrete; returns None when it must stay symbolic."""
        if isinstance(op, ModarrayOp) and not isinstance(base, np.ndarray):
            return None
        frame = tuple(shp) if shp is not None else base.shape
        total = 1
        for s in frame:
            total *= s
        # Keep big double arrays symbolic.
        snapshot = len(self.em.instrs)
        body = self.eval_expr(op.body, body_env)
        if _symbolic(body):
            return None
        body_val = coerce_value(body)
        bshape = np.asarray(body_val).shape
        # Per-point results carry the space dims as a prefix; otherwise
        # the body is constant across the space.
        if bshape[: space.rank] == space.count:
            cell = bshape[space.rank:]
        else:
            cell = bshape
        is_float = isinstance(body_val, float) or (
            isinstance(body_val, np.ndarray)
            and body_val.dtype == np.float64
        )
        if isinstance(op, ModarrayOp):
            is_float = is_float or base.dtype == np.float64
        if is_float and total > self._CONCRETE_FOLD_LIMIT:
            return None
        del self.em.instrs[snapshot:]  # drop any speculative emissions
        if isinstance(op, GenarrayOp):
            out = np.zeros(frame + cell, dtype=_dtype_of(body_val))
        else:
            out = base.copy()
        if not space.is_empty:
            region = tuple(ax.as_slice(ext)
                           for ax, ext in zip(space.axes(), out.shape))
            # The body is constant across the space here (it evaluated to
            # a concrete value with the index variable still abstract).
            out[region] = body_val
        return out

    def _cell_shape(self, body, space: IndexSpace) -> tuple[int, ...]:
        if isinstance(body, IndexView):
            raise CodegenUnsupported("raw index vector as loop body")
        shape = _shape_of(body)
        if shape[: space.rank] == space.count:
            return shape[space.rank:]
        # Constant across the space.
        return shape

    def _fold(self, op: FoldOp, body_env, space: IndexSpace, env):
        neutral = self.eval_expr(op.neutral, env)
        if space.is_empty:
            return neutral
        body = self.eval_expr(op.body, body_env)
        ufunc = FOLD_UFUNCS.get(op.fun)
        if ufunc is None:
            raise CodegenUnsupported(
                f"fold function {op.fun!r} has no vectorized reduction"
            )
        fn = ELEMENTWISE[op.fun][0]
        body_shape = _shape_of(body)
        if body_shape[: space.rank] == space.count:
            cell = body_shape[space.rank:]
            code = (
                f"{fn}.reduce({{}}.reshape(-1, *{cell}), axis=0)" if cell
                else f"{fn}.reduce({{}}.reshape(-1))"
            )
            reduced = self.em.assign("alloc", code, (body,), cell,
                                     _dtype_of(body))
        else:
            # Constant body: neutral op (count * body) for +; generic:
            # repeat-reduce is wasteful, emit explicit arithmetic for +/*.
            total = 1
            for c in space.count:
                total *= c
            if op.fun == "+":
                reduced = self.binop("*", total, body)
            elif op.fun == "*":
                raise CodegenUnsupported("constant-body product fold")
            else:
                reduced = body
        if op.fun in ("+", "*"):
            return self.binop(op.fun, neutral, reduced)
        return self.builtin(op.fun, [neutral, reduced])


# ---------------------------------------------------------------------------
# Public entry point.
# ---------------------------------------------------------------------------

_MODULE_HEADER = '''\
"""Generated by repro.sac.codegen — shape-specialized NumPy code.

Function: {fname}
Specialization: {spec}
"""

import numpy as np


def _sac_idiv(a, b):
    q = np.floor_divide(a, b)
    r = a - b * q
    return q + ((r != 0) & ((np.asarray(a) < 0) != (np.asarray(b) < 0)))


def _sac_imod(a, b):
    return a - b * _sac_idiv(a, b)

'''


@dataclass(frozen=True)
class KernelArtifact:
    """The persistable product of one specializing trace.

    Everything needed to rebuild an executable
    :class:`CompiledFunction` — the generated module source, the
    parameter order, and the baked-in constants — with no AST, tracer or
    interpreter state.  Artifacts are plain data (strings, tuples,
    NumPy scalars/arrays), so they pickle cleanly into the
    content-addressed kernel cache and reload across processes.
    """

    name: str
    source: str
    signature: tuple[str, ...]
    baked: dict[str, object]


@dataclass
class CompiledFunction:
    """A specialized, executable translation of one SAC function."""

    name: str
    source: str
    signature: tuple[str, ...]
    baked: dict[str, object]
    _callable: object = field(repr=False, default=None)

    @property
    def artifact(self) -> KernelArtifact:
        """The persistable artifact this function was loaded from."""
        return KernelArtifact(self.name, self.source, self.signature,
                              self.baked)

    def __call__(self, *args):
        if len(args) != len(self.signature):
            raise TypeError(
                f"{self.name} expects {len(self.signature)} argument(s)"
            )
        for name, value in zip(self.signature, args):
            if name in self.baked:
                expect = self.baked[name]
                same = (
                    np.array_equal(expect, value)
                    if isinstance(expect, np.ndarray)
                    else expect == value
                )
                if not same:
                    raise ValueError(
                        f"argument {name!r} was specialized to {expect!r}; "
                        f"recompile for {value!r}"
                    )
        array_args = [
            a for name, a in zip(self.signature, args)
            if name not in self.baked
        ]
        return self._callable(*array_args)


def compile_function(program_or_table, fname: str, example_args,
                     max_statements: int = 200_000, *,
                     cache=None, program_digest: str | None = None
                     ) -> CompiledFunction:
    """Specialize ``fname`` for the shapes/values of ``example_args``.

    Float/bool arrays stay symbolic (shape-specialized); ints, int
    vectors and scalar floats are baked in as constants.  Returns a
    :class:`CompiledFunction` whose ``source`` is a standalone Python
    module.

    With ``cache`` (a :class:`repro.sac.driver.cache.KernelCache`) and
    ``program_digest`` — a :class:`~repro.sac.module.SacProgram` brings
    its session's — the specialization is looked up in, and traced
    into, the shared content-addressed cache, so repeated calls with
    the same program, options and argument shapes skip tracing entirely,
    in this process and in later ones.
    """
    if isinstance(program_or_table, FunctionTable):
        table = program_or_table
    else:
        prog = getattr(program_or_table, "interp", None)
        if prog is not None:  # a SacProgram
            table = program_or_table.interp.functions
            if cache is None:
                session = program_or_table.session
                cache, program_digest = session.cache, session.program_digest
        else:
            table = FunctionTable()
            table.update(program_or_table)

    args = [Interpreter._ingest(a) for a in example_args]
    fun = table.resolve(fname, [Interpreter.dispatch_type(a) for a in args])
    return specialize(table, fun, args, cache, program_digest,
                      max_statements)


def specialize(table: FunctionTable, fun: FunDef, args, cache,
               program_digest: str | None,
               max_statements: int = 200_000) -> CompiledFunction:
    """The one cache-or-trace sequence, shared by :func:`compile_function`
    and the interpreter's JIT: look the resolved overload up in the
    kernel cache under its (program, overload, argument-signature) key,
    else trace it, store the artifact and load the executable."""
    key = None
    if cache is not None and program_digest is not None:
        from .driver.cache import kernel_key, shape_signature

        overload = f"{fun.name}(" + ",".join(
            str(p.type) for p in fun.params
        ) + ")"
        key = kernel_key(program_digest, overload, shape_signature(args))
        compiled = cache.get_kernel(key)
        if compiled is not None:
            return compiled
    artifact = trace_fundef(table, fun, args, max_statements=max_statements)
    if key is not None:
        cache.put_kernel(key, artifact)
    return load_artifact(artifact)


def trace_fundef(table: FunctionTable, fun: FunDef, example_args,
                 max_statements: int = 200_000) -> KernelArtifact:
    """Trace/specialize one resolved overload into a persistable
    :class:`KernelArtifact` (no executable is built — see
    :func:`load_artifact` for that half)."""
    global _trace_events
    _trace_events += 1
    em = Emitter()
    tracer = Tracer(table, em, max_statements)
    fname = fun.name
    traced_args = []
    baked: dict[str, object] = {}
    for param, a in zip(fun.params, example_args):
        a = coerce_value(a)
        if isinstance(a, np.ndarray) and a.dtype == np.float64:
            traced_args.append(TArray(param.name, a.shape, a.dtype))
        else:
            baked[param.name] = a
            traced_args.append(a)

    result = tracer.apply_fundef(fun, traced_args)
    em.instrs.append(Instr(None, "return", "return {}",
                           (_code_of(em, result),)))

    spec = ", ".join(
        f"{p.name}: "
        + (f"double{list(t.shape)}" if isinstance(t, TArray) else f"= {t!r}")
        for p, t in zip(fun.params, traced_args)
    )
    params = ", ".join(p.name for p in fun.params if p.name not in baked)
    body = "\n".join("    " + render(ins) for ins in plan(em.instrs))
    consts = "\n".join(f"{n} = {c}" for n, c in em.consts.items())
    source = (
        _MODULE_HEADER.format(fname=fname, spec=spec)
        + (consts + "\n\n" if consts else "")
        + f"def {fname}({params}):\n{body}\n"
    )
    return KernelArtifact(
        name=fname,
        source=source,
        signature=tuple(p.name for p in fun.params),
        baked=baked,
    )


def load_artifact(artifact: KernelArtifact) -> CompiledFunction:
    """Build the executable for a (possibly cached) artifact by
    exec-ing its generated module source."""
    namespace: dict = {}
    exec(compile(artifact.source, f"<sac-codegen:{artifact.name}>", "exec"),
         namespace)
    return CompiledFunction(
        name=artifact.name,
        source=artifact.source,
        signature=artifact.signature,
        baked=artifact.baked,
        _callable=namespace[artifact.name],
    )
