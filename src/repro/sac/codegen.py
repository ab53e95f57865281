"""Shape-specializing code generator: SAC to standalone NumPy Python.

``sac2c`` compiles by *specializing* shape-polymorphic functions to the
concrete shapes of their call sites and emitting loop code.  This
backend does the same for our dialect: given a function and example
arguments it traces the program — array extents, generator bounds and
control flow all become concrete — and emits one Python function per
(SAC function, argument signature), each body pure NumPy slice
arithmetic, each traced once however many call sites it has.  No
interpreter is involved when the compiled function runs.

    from repro.sac.codegen import compile_function
    compiled = compile_function(prog, "MGrid", example_args=(v, 4))
    u = compiled(v, 4)        # NumPy only, bit-compatible
    print(compiled.source)    # the generated module text

A trace is a list of :class:`~repro.sac.bufplan.Instr` records, not
text: :func:`~repro.sac.bufplan.plan` runs over it before each record is
rendered to its line, so that chains of elementwise operations
accumulate into their own dead intermediates, a ``modarray`` updates a
dead frame in place, dead buffers are freed — and a caller whose
argument dies at the call *donates* it: it calls the variant of the
callee planned with that parameter its own to write into.  The entry
point's parameters are never donated.

Specialization contract, of the entry point and of every function it
calls: double *array* arguments stay symbolic (only their shapes are
baked in); scalar ints, int vectors and scalar doubles are baked into
the code, and validated at call time.  Data-dependent control flow and
non-affine WITH-loops raise :class:`CodegenUnsupported` at compile time.
"""

from __future__ import annotations

import keyword
import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .ast_nodes import (Block, Expr, FoldOp, For, FunDef, GenarrayOp,
                        ModarrayOp, WithLoop)
from .bufplan import ELEMENTWISE, Instr, plan, render, result_bases
from .builtins import FOLD_UFUNCS, affine_binop
from .errors import SacError, SacRuntimeError, SacTypeError
from .interp import Env, FunctionTable, Interpreter
from .optim.rewrite import counted_loop, stmt_reads
from .sactypes import SacType
from .values import (AffineAxis, IndexView, any_abstract, cell_type,
                     coerce_value, dtype_of)
from .withloop import IndexSpace, withloop_head

__all__ = ["CodegenUnsupported", "CompiledFunction", "KernelArtifact",
           "compile_function", "trace_fundef", "trace_module",
           "element_operations", "load_artifact", "trace_event_count"]

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
    return getattr(v, "shape", ())


def _dtype_of(v) -> np.dtype:
    return v.dtype if isinstance(v, TArray) else dtype_of(v)


# ---------------------------------------------------------------------------
# Emission.
# ---------------------------------------------------------------------------

@dataclass
class Def:
    """One ``def`` of the generated module: a specialization planned for
    the callers that donate the parameters ``doc`` marks."""

    name: str
    doc: str                     # its signature, for the module header
    rolls: bool
    instrs: tuple[Instr, ...]    # the planned trace ``text`` renders
    text: str


@dataclass
class Spec:
    """One specialization: a SAC function, or the body of a counted
    loop, traced once for one argument signature; rendered as one
    :class:`Def` per set of parameters its callers donate."""

    name: str
    args: dict[str, str]         # binding -> its text in the module header
    params: dict[str, TArray]    # symbolic binding -> Python parameter
    results: dict[str, object]   # label -> traced value ("": a function's)
    returned: tuple[str, ...]    # the labels the ``def`` returns ...
    bases: tuple = ()            # ... and what each aliases (result_bases)
    rolls: bool = False          # a loop body whose results are all its own
    donatable: tuple[int, ...] = ()  # the parameters a caller may donate
    raw: list = field(default_factory=list)    # the trace, unplanned
    plans: dict = field(default_factory=dict)  # donated positions -> planned()
    defs: dict = field(default_factory=dict)   # donated positions -> Def


class Module:
    """What the specializations of one generated module share."""

    def __init__(self) -> None:
        self.consts: dict[tuple, tuple[str, str]] = {}  # value -> name, code
        self.specs: dict[tuple, Spec] = {}    # finished, by signature
        self.named: dict[str, Spec] = {}      # the same, by name
        self.defs: dict[str, Def] = {}        # rendered, callees first
        self.calls: Counter = Counter()       # def name -> static call sites
        self.variants: Counter = Counter()    # def name stem -> defs so named
        self.open: list[Emitter] = []         # being traced, outermost first
        self.statements = 0                   # in finished specializations

    def const_array(self, arr: np.ndarray) -> str:
        """Intern a concrete array as a module-level constant."""
        key = (arr.dtype.str, arr.shape, arr.tobytes())
        if key not in self.consts:
            literal = np.array2string(
                arr, separator=", ", threshold=1 << 20, floatmode="unique")
            self.consts[key] = (
                f"_C{len(self.consts)}",
                f"np.array({literal}, dtype=np.{arr.dtype.name})")
        return self.consts[key][0]


class Emitter:
    """One specialization's trace: a straight-line list of
    :class:`~.bufplan.Instr`."""

    def __init__(self, module: Module) -> None:
        self.instrs: list[Instr] = []
        self.module = module
        self._n = 0

    def assign(self, kind: str, op: str, operands,
               shape: tuple[int, ...], dtype: np.dtype,
               base: str | None = None,
               donate: tuple[int, ...] = ()) -> TArray:
        """Bind a fresh temp to ``op`` of ``operands`` (traced values)."""
        self._n += 1
        name = f"_t{self._n}"
        self.instrs.append(Instr(
            name, kind, op, tuple(_code_of(self.module, v) for v in operands),
            shape, dtype, base=base, donate=donate))
        return TArray(name, shape, dtype)


def _code_of(mod: Module, v) -> str:
    """Python expression for any traced value."""
    if isinstance(v, TArray):
        return v.code
    if isinstance(v, np.ndarray):
        return mod.const_array(v)
    if isinstance(v, bool):
        return "True" if v else "False"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    raise CodegenUnsupported(f"cannot embed value of type {type(v).__name__}")


def _callee(ins: Instr, table: dict):
    """What a ``call`` instruction calls, looked up by name in ``table``:
    None for any other instruction, and for the taking apart of a
    returned tuple."""
    return table.get(ins.op.partition("(")[0]) if ins.kind == "call" else None


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

    def __init__(self, functions: FunctionTable,
                 max_statements: int = 200_000):
        super().__init__(functions)
        self.module = Module()
        self.em: Emitter = None  # the specialization being traced
        self.max_statements = max_statements
        self._fun: FunDef = None  # the function whose body is executing

    def before_stmt(self, stmt=None) -> None:
        mod = self.module
        if mod.statements + sum(len(e.instrs) for e in mod.open) \
                > self.max_statements:
            raise CodegenUnsupported(
                "generated code exceeds the statement budget "
                f"({self.max_statements}); the specialization unrolls too far"
            )

    # -- specializations: one ``def`` per (site, signature) -------------------

    def apply_fundef(self, fun: FunDef, args: list):
        outer, self._fun = self._fun, fun
        try:
            if any_abstract(args) or not any(isinstance(a, TArray) for a in args):
                return super().apply_fundef(fun, args)
            given = {p.name: a for p, a in zip(fun.params, args)}
            return self.invoke(self.specialization(fun, given), given)[""]
        finally:
            self._fun = outer

    def specialization(self, site, given: dict, body=(), live=None) -> Spec:
        """The specialization of ``site`` — a :class:`FunDef`, or a
        counted loop standing for its ``body`` — for the signature of the
        values it is ``given``: traced once into its own
        :class:`Emitter`, from then on looked up.  Only finished ones
        are, so runaway recursion meets the interpreter's depth guard.  A
        loop body returns those of its symbolic results that are
        ``live``."""
        from .driver.cache import shape_signature

        mod = self.module
        key = (id(site), tuple(given), shape_signature(given.values()))
        if key in mod.specs:
            return mod.specs[key]
        entry, loop = self.em is None, live is not None
        # The contract of every ``def``: double arrays, and whatever is
        # already traced, are parameters; the rest is baked in.
        params = {n: TArray(n + "_" * keyword.iskeyword(n), v.shape, v.dtype)
                  for n, v in given.items() if isinstance(v, TArray) or (
                      isinstance(v, np.ndarray) and v.dtype == np.float64)}
        name = self._fun.name + "_loop" if loop else site.name
        if not entry:
            name += "__" + "_".join(
                "x".join(map(str, p.shape)) or "s" for p in params.values())
            mod.variants[name] += 1
            if mod.variants[name] > 1:  # same shapes, other baked values
                name += f"_v{mod.variants[name] - 1}"
        em = Emitter(mod)
        outer, self.em = self.em, em
        mod.open.append(em)
        try:
            if loop:
                frame = Env({**given, **params})
                self.exec_block(Block(body), frame)
                results = {n: v for n, v in frame.bindings.items()
                           if v is not params.get(n, given.get(n))}
            else:
                results = {"": super().apply_fundef(
                    site, list({**given, **params}.values()))}
        finally:
            self.em = outer
            mod.open.pop()
        mod.statements += len(em.instrs)
        args = {n: f"{n}: {cell_type(v.dtype, v.shape)}" if n in params
                else f"{n} = {v!r}" for n, v in given.items()}
        returned = tuple(n for n, v in results.items() if isinstance(v, TArray)
                         and (not loop or n in live))
        if entry and not returned:
            returned = ("",)  # the entry point also returns a baked value
        spec = mod.specs[key] = mod.named[name] = Spec(
            name, args, params, results, returned)
        if returned:
            em.instrs.append(Instr(
                None, "return", "return " + ", ".join(["{}"] * len(returned)),
                tuple(_code_of(mod, results[n]) for n in returned)))
            spec.raw = em.instrs
            spec.bases = result_bases(em.instrs)
            spec.rolls = loop and not set(spec.bases) & {
                p.code for p in params.values()}
            # Every trip of a rolling body is given its parameters anew:
            # only one that each trip rebinds to an array of its own
            # making is the body's to write into on the next.
            spec.donatable = tuple(
                k for k, n in enumerate(params) if not spec.rolls
                or n in returned and spec.bases[returned.index(n)] is None)
        return spec

    def planned(self, spec: Spec, donated: tuple[int, ...]
                ) -> tuple[list[Instr], tuple[int, ...]]:
        """The one trace of ``spec`` planned with the parameters at
        ``donated`` counted as its own, and those of them that plan makes
        use of; each call in it donates what its callee makes use of."""
        if donated not in spec.plans:
            params = list(spec.params.values())
            instrs, used = plan(spec.raw, {
                params[k].code: (params[k].shape, params[k].dtype)
                for k in donated})
            for i, ins in enumerate(instrs):
                if ins.donate:
                    callee = _callee(ins, self.module.named)
                    instrs[i] = ins = replace(
                        ins, donate=self.planned(callee, ins.donate)[1])
                    used |= {ins.operands[k] for k in ins.donate}
            spec.plans[donated] = instrs, tuple(
                k for k in donated if params[k].code in used)
        return spec.plans[donated]

    def variant(self, spec: Spec, donated: tuple[int, ...] = ()) -> Def:
        """The ``def`` of ``spec`` for the callers that donate the
        parameters at ``donated``, every call in it bound to the variant
        of the callee that its plan donates to: a second plan and render
        of the trace taken once."""
        if donated in spec.defs:
            return spec.defs[donated]
        planned, used = self.planned(spec, donated)
        if used != donated:  # so that no ``def`` has the text of another
            return self.variant(spec, used)
        mod, name = self.module, spec.name
        if donated:  # which ones, unless it is all of them
            name += "_d" + "_".join(map(str, donated)) * (
                len(donated) < len(spec.params))
        instrs = []
        for ins in planned:
            callee = _callee(ins, mod.named)
            if callee is not None:
                target = self.variant(callee, ins.donate).name
                mod.calls[target] += 1
                ins = replace(ins, op=target + ins.op[len(callee.name):])
            instrs.append(ins)
        position = {n: k for k, n in enumerate(spec.params)}
        doc = ", ".join(text + " donated" * (position.get(n) in donated)
                        for n, text in spec.args.items())
        spec.defs[donated] = mod.defs[name] = Def(
            name, f"{name}({doc})", spec.rolls, tuple(instrs),
            self._render(spec, name, instrs))
        return mod.defs[name]

    def _render(self, spec: Spec, name: str, planned: list[Instr]) -> str:
        lines = [render(ins) for ins in planned]
        head = [p.code for p in spec.params.values()]
        if spec.rolls:
            # The body ``_n`` times over: what a trip computes for a
            # variable it was given is what the next trip is given (one
            # computed into a donated parameter is bound already).  A
            # result may bear a donated parameter's name, so no trip
            # rebinds after itself: the ``return`` reads the last one's
            # names as planned.
            codes = dict(zip(spec.returned, planned[-1].operands))
            carried = {p.code: codes.get(n)
                       or _code_of(self.module, spec.results[n])
                       for n, p in spec.params.items() if n in spec.results}
            carried = {p: code for p, code in carried.items() if p != code}
            inner = lines[:-1]
            if carried:
                inner = ["if _:", f"    {', '.join(carried)} = "
                         f"{', '.join(carried.values())}", *inner]
            if inner:
                lines = ["for _ in range(_n):",
                         *("    " + ln for ln in inner), lines[-1]]
            head.append("_n")
        return f"def {name}({', '.join(head)}):\n" + "".join(
            f"    {ln}\n" for ln in lines)

    def invoke(self, spec: Spec, given: dict, trips: int = 1):
        """Emit the call; the callee's results as values of this trace
        (concrete ones are known now and need no call, dead ones none)."""
        out = {n: None if isinstance(v, TArray) else v
               for n, v in spec.results.items()}
        args = [given[n] for n in spec.params] + [trips] * spec.rolls
        # The callee's name for each argument -> its value here.
        ours = dict(zip((p.code for p in spec.params.values()), args))
        call = f"{spec.name}({', '.join(['{}'] * len(args))})"
        several = len(spec.returned) > 1
        if several:  # a tuple: bound once, then taken apart
            args = [self.em.assign("call", call, args, (), np.dtype(object),
                                   "", spec.donatable)]
        for j, (n, base) in enumerate(zip(spec.returned, spec.bases)):
            if base is not None:
                base = _code_of(self.module, ours[base]) if base in ours else ""
            v = spec.results[n]
            out[n] = self.em.assign(
                "call", f"{{}}[{j}]" if several else call, args, v.shape,
                v.dtype, base, () if several else spec.donatable)
        if several:
            self.em.instrs.append(Instr(None, "del", "", (args[0].code,)))
        return out

    def exec_stmt(self, stmt, env) -> None:
        loop = counted_loop(stmt)
        if loop is None:
            return super().exec_stmt(stmt, env)
        from .driver.cache import shape_signature

        cond, body, update, reads = loop
        self.before_stmt(stmt)
        if isinstance(stmt, For):
            self.exec_stmt(stmt.init, env)
        # Symbolic results read after the loop, or by its next trip.
        live = (stmt_reads(self._fun.body) - stmt_reads(stmt)).keys() | reads
        while self.exec_cond(cond, env, "loop bound"):
            given = {n: env.lookup(n) for n in reads if env.contains(n)}
            if any_abstract(given.values()) or not any(
                    isinstance(v, TArray) for v in given.values()):
                self.exec_block(Block(body), env)  # the interpreter's rule
                self.exec_stmt(update, env)
                continue
            spec = self.specialization(stmt, given, body, live)
            after = {**given, **{n: v for n, v in spec.results.items()
                                 if n in reads}}
            trips = 1
            self.exec_stmt(update, env)
            # When the next trip would be this specialization again, given
            # only arrays it allocated, every later trip is that too.
            if (spec.rolls and after.keys() == given.keys()
                    and shape_signature(after.values())
                    == shape_signature(given.values())):
                while self.exec_cond(cond, env, "loop bound"):
                    trips += 1
                    self.exec_stmt(update, env)
            for n, v in self.invoke(spec, given, trips).items():
                self.bind(env, n, v)

    # -- what may not be symbolic ---------------------------------------------

    def bad_condition(self, v, expr: Expr, what: str) -> Exception:
        if _symbolic(v):
            return CodegenUnsupported(
                f"data-dependent {what} cannot be specialized")
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
        self.before_stmt()
        shape = np.broadcast_shapes(_shape_of(l), _shape_of(r))
        if op in ("/", "%"):
            if _dtype_of(l) == np.int64 and _dtype_of(r) == np.int64:
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
        dtype = np.promote_types(_dtype_of(values[0]), _dtype_of(values[-1]))
        slots = ", ".join(["{}"] * len(values))
        return self.em.assign(
            "alloc", f"np.stack([{slots}], axis=-1)" if cell
            else f"np.array([{slots}])", values, cell + (len(values),), dtype)

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
            along = tuple(ax.count if k == j else 1 for k in range(len(dims)))
            code = (f"(np.arange({ax.count}, dtype=np.int64) * {ax.stride} + "
                    f"{ax.offset}).reshape({along})")
            return self.em.assign("view", f"np.broadcast_to({code}, {dims})",
                                  (), dims, np.dtype(np.int64))
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
        snapshot = len(self.em.instrs)
        body = self.eval_expr(op.body, body_env)
        concrete = self._try_withloop_concrete(op, body, space, shp, base)
        if concrete is not None:
            del self.em.instrs[snapshot:]  # drop any speculative emissions
            return concrete

        cell = self._cell_shape(body, space)
        if isinstance(op, GenarrayOp):
            dtype = _dtype_of(body)
            out = self.em.assign(
                "alloc", f"np.zeros({shp + cell}, dtype=np.{dtype.name})",
                (), shp + cell, dtype)
        else:
            dtype = np.promote_types(_dtype_of(base), _dtype_of(body))
            # A copy in the trace; the plan drops it where the frame is a
            # dead buffer of this trace's own (the body above is an
            # expression over *views* of the frame, and NumPy
            # materializes the right-hand side of an overlapping slice
            # assignment before writing).
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
                (out.code, _code_of(self.module, body))))
        return out

    _CONCRETE_FOLD_LIMIT = 64

    def _try_withloop_concrete(self, op, body, space: IndexSpace,
                               shp, base):
        """The value of a genarray/modarray WITH-loop whose inputs —
        frame and evaluated ``body`` — are all concrete; None when it
        must stay symbolic."""
        if isinstance(op, ModarrayOp) and not isinstance(base, np.ndarray):
            return None
        frame = tuple(shp) if shp is not None else base.shape
        if _symbolic(body):
            return None
        body_val = coerce_value(body)
        cell = self._cell_shape(body_val, space)
        is_float = isinstance(body_val, float) or (
            isinstance(body_val, np.ndarray)
            and body_val.dtype == np.float64
        )
        if isinstance(op, ModarrayOp):
            is_float = is_float or base.dtype == np.float64
        if is_float and math.prod(frame) > self._CONCRETE_FOLD_LIMIT:
            return None  # keep big double arrays symbolic
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
        if shape[: space.rank] == space.count:  # per point: space dims first
            return shape[space.rank:]
        return shape  # constant across the space

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
            if op.fun == "+":
                reduced = self.binop("*", math.prod(space.count), body)
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

One def per (SAC function or counted loop, argument signature), and a
second where its callers hand over an argument they are done with: a
parameter marked donated is the def's own to write into and return.  xN
is the number of call sites in this module:
{defs}
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
    #: The array parameters, which stay arguments: name -> (shape, dtype).
    arrays: dict[str, tuple[tuple[int, ...], np.dtype]]


def _array_text(shape, dtype) -> str:
    return f"{dtype}[{','.join(map(str, shape))}]"


@dataclass
class CompiledFunction:
    """A specialized, executable translation of one SAC function."""

    name: str
    source: str
    signature: tuple[str, ...]
    baked: dict[str, object]
    arrays: dict[str, tuple[tuple[int, ...], np.dtype]]
    _callable: object = field(repr=False, default=None)

    @property
    def artifact(self) -> KernelArtifact:
        """The persistable artifact this function was loaded from."""
        return KernelArtifact(self.name, self.source, self.signature,
                              self.baked, self.arrays)

    def __call__(self, *args):
        if len(args) != len(self.signature):
            raise TypeError(
                f"{self.name} expects {len(self.signature)} argument(s)"
            )
        for name, value in zip(self.signature, args):
            if name in self.baked:
                if np.array_equal(self.baked[name], value):
                    continue
                was, now = repr(self.baked[name]), repr(value)
            else:  # the slices assume the shape, the ufuncs take any dtype
                given = np.shape(value), getattr(value, "dtype", None)
                if given == self.arrays[name]:
                    continue
                was, now = _array_text(*self.arrays[name]), _array_text(*given)
            raise ValueError(f"argument {name!r} was specialized to {was}; "
                             f"recompile for {now}")
        return self._callable(*(a for name, a in zip(self.signature, args)
                                if name not in self.baked))


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
    if cache is None and hasattr(program_or_table, "session"):
        session = program_or_table.session  # a SacProgram brings its own
        cache, program_digest = session.cache, session.program_digest
    table, fun, args = _resolve(program_or_table, fname, example_args)
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


def _resolve(program_or_table, fname: str, example_args):
    """The function table, the overload of ``fname`` the arguments select
    and the arguments as the evaluators take them."""
    if isinstance(program_or_table, FunctionTable):
        table = program_or_table
    elif hasattr(program_or_table, "interp"):  # a SacProgram
        table = program_or_table.interp.functions
    else:
        table = FunctionTable()
        table.update(program_or_table)
    args = [Interpreter._ingest(a) for a in example_args]
    return table, table.resolve(
        fname, [Interpreter.dispatch_type(a) for a in args]), args


def trace_module(program_or_table, fname: str, example_args
                 ) -> tuple[Module, Def]:
    """Trace ``fname`` for the example arguments, uncached: the
    :class:`Module` of every ``def`` it generated and its entry point's
    :class:`Def` — for tools that read the planned instructions."""
    mod, entry = _trace(*_resolve(program_or_table, fname, example_args))
    return mod, entry.defs[()]


def _trace(table: FunctionTable, fun: FunDef, example_args,
           max_statements: int = 200_000) -> tuple[Module, Spec]:
    global _trace_events
    _trace_events += 1
    tracer = Tracer(table, max_statements)
    tracer._fun = fun
    bindings = {p.name: coerce_value(a)
                for p, a in zip(fun.params, example_args)}
    entry = tracer.specialization(fun, bindings)
    # Plans and renders what the entry point reaches, callees first; its
    # own parameters are its caller's, never donated.
    tracer.variant(entry)
    return tracer.module, entry


def element_operations(mod: Module, entry: Def,
                       kind: str = "elementwise") -> Counter:
    """Array elements one call of ``entry`` computes — or, for ``kind``
    ``"copy"``, copies — per SAC function (its ``def``s together): the
    result sizes of a ``def``'s instructions of that kind times how often
    its body runs.  A count read off the planned trace, no clock."""
    runs = Counter({entry.name: 1})
    # A callee is finished, and so listed, before its callers.
    for caller in reversed(mod.defs.values()):
        for ins in caller.instrs:
            callee = _callee(ins, mod.defs)
            if callee is not None:
                trips = int(ins.operands[-1]) if callee.rolls else 1
                runs[callee.name] += runs[caller.name] * trips
    ops: Counter = Counter()
    for name, d in mod.defs.items():
        ops[name.partition("__")[0]] += runs[name] * sum(
            math.prod(ins.shape) for ins in d.instrs if ins.kind == kind)
    return ops


def trace_fundef(table: FunctionTable, fun: FunDef, example_args,
                 max_statements: int = 200_000) -> KernelArtifact:
    """Trace/specialize one resolved overload into a persistable
    :class:`KernelArtifact` (no executable is built — see
    :func:`load_artifact` for that half)."""
    mod, entry = _trace(table, fun, example_args, max_statements)
    *defs, main = mod.defs.values()
    source = (
        _MODULE_HEADER.format(
            fname=fun.name, spec=main.doc, defs="\n".join(
                f"  {d.doc}  x{mod.calls[d.name]}" for d in defs))
        + "".join(f"{n} = {c}\n" for n, c in mod.consts.values())
        + "\n" * bool(mod.consts) + "\n".join(d.text for d in (*defs, main))
    )
    return KernelArtifact(
        fun.name, source, tuple(p.name for p in fun.params),
        {p.name: coerce_value(a) for p, a in zip(fun.params, example_args)
         if p.name not in entry.params},
        {n: (p.shape, p.dtype) for n, p in entry.params.items()})


def load_artifact(artifact: KernelArtifact) -> CompiledFunction:
    """Build the executable for a (possibly cached) artifact by
    exec-ing its generated module source."""
    namespace: dict = {}
    exec(compile(artifact.source, f"<sac-codegen:{artifact.name}>", "exec"),
         namespace)
    return CompiledFunction(**vars(artifact),
                            _callable=namespace[artifact.name])
