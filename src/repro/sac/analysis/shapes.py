"""Abstract shape and index-range inference for SAC programs.

An abstract interpreter over the AST: every variable is mapped to an
:class:`AValue` describing what is statically known about it — its shape
(per-axis extents as *affine* expressions over symbolic array extents)
and, for integer scalars/vectors, an *interval* of possible values with
affine endpoints.  Array extents are symbols (``ext(u, i)``), so facts
like "``iv`` ranges over ``[1, shape(u)-2]``" survive arithmetic and
prove, e.g., that the stencil access ``u[iv + ov - 1]`` with
``ov in [0,2]`` stays inside the extended grid (the paper's artificial
halo border, Figs. 4-10) — or that a widened stencil escapes it.

Calls to ``inline`` functions are expanded abstractly (depth-limited,
recursion-guarded), which is how generator context reaches the helper
that performs the actual array access (``StencilSum`` etc.).  Non-inline
calls fall back to the declared return type with fresh extent symbols.

Checks emitted here (family ``SAC1xx``):

* **SAC101** — elementwise operation on provably mismatched shapes,
* **SAC102** — array access provably escaping the frame bounds,
* **SAC103** — selection index rank exceeding the array rank,
* **SAC104** — generator rank exceeding the frame rank.

The WITH-loop partition and race checks (``SAC2xx``/``SAC3xx``) plug in
as listeners: every WITH-loop the interpreter visits is handed to them
as a resolved :class:`WithLoopInfo`.

Everything is *prove-or-stay-silent*: a diagnostic is only emitted when
the violation holds for every concrete execution consistent with the
abstract facts, so sound-but-unknown code (the usual case in
shape-polymorphic SAC) produces no noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..ast_nodes import (
    Assign,
    BinOp,
    Block,
    BoolLit,
    Call,
    Dot,
    DoubleLit,
    DoWhile,
    Expr,
    ExprStmt,
    FoldOp,
    For,
    FunDef,
    GenarrayOp,
    If,
    IntLit,
    ModarrayOp,
    Program,
    Return,
    Select,
    Stmt,
    UnOp,
    Var,
    VectorLit,
    While,
    WithLoop,
)
from ..builtins import is_builtin
from ..diagnostics import Diagnostic
from ..errors import SourcePos
from ..sactypes import SacType, ShapeKind

__all__ = [
    "Affine",
    "Interval",
    "AValue",
    "WithLoopInfo",
    "ShapeAnalyzer",
    "UNKNOWN",
]


# ---------------------------------------------------------------------------
# Affine expressions over symbolic extents.
# ---------------------------------------------------------------------------

# Symbols: ('ext', owner, axis) is the (nonnegative) extent of an array
# along one axis; axis '*' stands for "the axis under consideration" of a
# rank-unknown array.  ('int', owner) is an opaque integer (may be
# negative), introduced for int-typed parameters.
Sym = tuple


@dataclass(frozen=True)
class Affine:
    """Integer-affine expression: sum of coeff*symbol terms + const."""

    terms: tuple[tuple[Sym, int], ...] = ()
    const: int = 0

    @staticmethod
    def of(c: int) -> "Affine":
        return Affine((), int(c))

    @staticmethod
    def sym(s: Sym) -> "Affine":
        return Affine(((s, 1),), 0)

    def _combine(self, other: "Affine", sign: int) -> "Affine":
        coeffs: dict[Sym, int] = dict(self.terms)
        for s, k in other.terms:
            coeffs[s] = coeffs.get(s, 0) + sign * k
        terms = tuple(sorted((s, k) for s, k in coeffs.items() if k != 0))
        return Affine(terms, self.const + sign * other.const)

    def add(self, other: "Affine") -> "Affine":
        return self._combine(other, 1)

    def sub(self, other: "Affine") -> "Affine":
        return self._combine(other, -1)

    def scale(self, k: int) -> "Affine":
        if k == 0:
            return Affine.of(0)
        return Affine(tuple((s, c * k) for s, c in self.terms),
                      self.const * k)

    def neg(self) -> "Affine":
        return self.scale(-1)

    @property
    def is_const(self) -> bool:
        return not self.terms

    # -- proofs (symbols of kind 'ext' are >= 0; 'int' is unconstrained) --

    def _ext_only_nonneg_coeffs(self) -> bool:
        return all(s[0] == "ext" and c > 0 for s, c in self.terms)

    def always_nonneg(self) -> bool:
        """Provably >= 0 for every assignment of the symbols."""
        return self._ext_only_nonneg_coeffs() and self.const >= 0

    def always_pos(self) -> bool:
        """Provably >= 1."""
        return self._ext_only_nonneg_coeffs() and self.const >= 1

    def always_neg(self) -> bool:
        """Provably <= -1."""
        return self.neg().always_pos()

    def __str__(self) -> str:
        parts = []
        for (kind, *rest), c in self.terms:
            name = (f"shape({rest[0]})[{rest[1]}]" if kind == "ext"
                    else str(rest[0]))
            parts.append(f"{c}*{name}" if c != 1 else name)
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts).replace("+ -", "- ")


@dataclass(frozen=True)
class Interval:
    """Closed integer interval with affine endpoints (None = unbounded)."""

    lo: Optional[Affine] = None
    hi: Optional[Affine] = None

    @staticmethod
    def point(a: "Affine | int") -> "Interval":
        if isinstance(a, int):
            a = Affine.of(a)
        return Interval(a, a)

    @property
    def is_point(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    @property
    def const_value(self) -> Optional[int]:
        if self.is_point and self.lo.is_const:
            return self.lo.const
        return None

    def add(self, other: "Interval") -> "Interval":
        lo = self.lo.add(other.lo) if self.lo and other.lo else None
        hi = self.hi.add(other.hi) if self.hi and other.hi else None
        return Interval(lo, hi)

    def neg(self) -> "Interval":
        return Interval(self.hi.neg() if self.hi else None,
                        self.lo.neg() if self.lo else None)

    def sub(self, other: "Interval") -> "Interval":
        return self.add(other.neg())

    def scale(self, k: int) -> "Interval":
        scaled = Interval(self.lo.scale(k) if self.lo else None,
                          self.hi.scale(k) if self.hi else None)
        return scaled if k >= 0 else Interval(scaled.hi and scaled.lo and
                                              self.hi.scale(k),
                                              self.lo.scale(k)
                                              if self.lo else None)

    def mul(self, other: "Interval") -> "Interval":
        if (k := other.const_value) is not None:
            return self._scale_checked(k)
        if (k := self.const_value) is not None:
            return other._scale_checked(k)
        return TOP

    def _scale_checked(self, k: int) -> "Interval":
        if k >= 0:
            return Interval(self.lo.scale(k) if self.lo else None,
                            self.hi.scale(k) if self.hi else None)
        return Interval(self.hi.scale(k) if self.hi else None,
                        self.lo.scale(k) if self.lo else None)

    def join(self, other: "Interval") -> "Interval":
        def pick(a, b, want_min):
            if a is None or b is None:
                return None
            if a == b:
                return a
            if a.is_const and b.is_const:
                return Affine.of(min(a.const, b.const) if want_min
                                 else max(a.const, b.const))
            return None

        return Interval(pick(self.lo, other.lo, True),
                        pick(self.hi, other.hi, False))

    def __str__(self) -> str:
        lo = str(self.lo) if self.lo is not None else "-inf"
        hi = str(self.hi) if self.hi is not None else "+inf"
        return f"[{lo}, {hi}]"


TOP = Interval()


# ---------------------------------------------------------------------------
# Abstract values.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AValue:
    """What is statically known about one value.

    ``kind`` is ``'scalar'``, ``'array'`` or ``'unknown'``.  For arrays,
    ``rank``/``extents`` hold the shape (affine extents, None for
    unknown); rank-unknown arrays carry an ``owner`` so their (existing
    but unknown) extents still have a symbol.  Integer vectors
    additionally track per-component value intervals (``comps``, or
    ``uniform`` when the length is unknown); integer scalars track
    ``sval``.
    """

    kind: str = "unknown"
    rank: Optional[int] = None
    extents: Optional[tuple[Optional[Affine], ...]] = None
    owner: Optional[str] = None
    comps: Optional[tuple[Interval, ...]] = None
    uniform: Optional[Interval] = None
    sval: Optional[Interval] = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def scalar(sval: Interval | None = None) -> "AValue":
        return AValue(kind="scalar", sval=sval)

    @staticmethod
    def array(extents: tuple[Optional[Affine], ...]) -> "AValue":
        return AValue(kind="array", rank=len(extents),
                      extents=tuple(extents))

    @staticmethod
    def array_unknown_rank(owner: str | None) -> "AValue":
        return AValue(kind="array", owner=owner)

    @staticmethod
    def int_vector(length: Optional[Affine],
                   comps: Optional[tuple[Interval, ...]] = None,
                   uniform: Optional[Interval] = None) -> "AValue":
        return AValue(kind="array", rank=1, extents=(length,),
                      comps=comps, uniform=uniform)

    # -- accessors ---------------------------------------------------------

    @property
    def is_array(self) -> bool:
        return self.kind == "array"

    @property
    def is_scalar(self) -> bool:
        return self.kind == "scalar"

    def extent(self, i: int) -> Optional[Affine]:
        """Affine extent along axis ``i``, if known (symbolically)."""
        if self.extents is not None:
            return self.extents[i] if i < len(self.extents) else None
        if self.is_array and self.owner is not None:
            return Affine.sym(("ext", self.owner, "*"))
        return None

    def comp(self, i: int) -> Interval:
        """Value interval of vector component ``i``."""
        if self.comps is not None and i < len(self.comps):
            return self.comps[i]
        if self.uniform is not None:
            return self.uniform
        return TOP

    @property
    def vlen(self) -> Optional[int]:
        """Concrete length of a rank-1 int vector, if known."""
        if self.comps is not None:
            return len(self.comps)
        if (self.rank == 1 and self.extents and self.extents[0] is not None
                and self.extents[0].is_const):
            return self.extents[0].const
        return None


UNKNOWN = AValue()


def join_avalue(a: AValue, b: AValue) -> AValue:
    if a == b:
        return a
    if a.kind != b.kind:
        return UNKNOWN
    if a.kind == "scalar":
        if a.sval is not None and b.sval is not None:
            return AValue.scalar(a.sval.join(b.sval))
        return AValue.scalar()
    if a.kind == "array":
        if a.rank is not None and a.rank == b.rank:
            exts = tuple(
                ea if (ea is not None and ea == eb) else None
                for ea, eb in zip(a.extents or (), b.extents or ())
            ) if a.extents and b.extents else None
            comps = None
            if (a.comps is not None and b.comps is not None
                    and len(a.comps) == len(b.comps)):
                comps = tuple(x.join(y) for x, y in zip(a.comps, b.comps))
            if exts is not None:
                return AValue(kind="array", rank=a.rank, extents=exts,
                              comps=comps)
        if a.owner is not None and a.owner == b.owner:
            return AValue.array_unknown_rank(a.owner)
        return AValue(kind="array")
    return UNKNOWN


def avalue_from_type(t: SacType, owner: str | None) -> AValue:
    """Abstract value of a parameter / opaque result of declared type."""
    if t.kind is ShapeKind.SCALAR:
        sval = None
        if owner is not None and t.base.value == "int":
            sval = Interval.point(Affine.sym(("int", owner)))
        return AValue.scalar(sval)
    if t.kind is ShapeKind.AKS:
        return AValue.array(tuple(Affine.of(e) for e in t.shape))
    if t.kind is ShapeKind.AKD:
        if owner is None:
            return AValue(kind="array", rank=t.rank,
                          extents=(None,) * t.rank)
        return AValue.array(tuple(Affine.sym(("ext", owner, i))
                                  for i in range(t.rank)))
    # AUD+/AUD*: rank unknown.
    return AValue.array_unknown_rank(owner)


# ---------------------------------------------------------------------------
# Resolved WITH-loop description, handed to partition/race listeners.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WithLoopInfo:
    """Everything the partition/race checkers need about one WITH-loop."""

    wl: WithLoop
    function: str
    #: 'genarray' | 'modarray' | 'fold'.
    kind: str
    fold_fun: Optional[str]
    #: Abstract frame (result array), None for fold.
    frame: Optional[AValue]
    #: Known generator rank (bound vector length or frame rank).
    rank: Optional[int]
    #: Inclusive-normalized per-component bound intervals (None when the
    #: component count is unknown; then the uniform intervals apply).
    lower: Optional[tuple[Interval, ...]]
    upper: Optional[tuple[Interval, ...]]
    u_lower: Optional[Interval]
    u_upper: Optional[Interval]
    #: Per-component constant step/width (None = unknown); empty tuple
    #: when the generator has no step/width clause.
    step: tuple[Optional[int], ...]
    width: tuple[Optional[int], ...]
    #: True where the corresponding bound was the `.` token.
    dot_lower: bool = False
    dot_upper: bool = False
    #: Lengths of explicit bound vectors, when known.
    lower_len: Optional[int] = None
    upper_len: Optional[int] = None

    @property
    def pos(self) -> Optional[SourcePos]:
        return self.wl.pos

    def bound_pair(self, i: int) -> tuple[Interval, Interval]:
        lo = self.lower[i] if self.lower is not None else (
            self.u_lower or TOP)
        hi = self.upper[i] if self.upper is not None else (
            self.u_upper or TOP)
        return lo, hi


# ---------------------------------------------------------------------------
# The analyzer.
# ---------------------------------------------------------------------------

class ShapeAnalyzer:
    """Abstract interpreter emitting SAC1xx diagnostics.

    ``sink`` receives :class:`Diagnostic` objects; ``listeners`` are
    called with a :class:`WithLoopInfo` for every WITH-loop visited
    (including those inside abstractly-expanded inline calls).
    """

    def __init__(self, program: Program, sink: Callable[[Diagnostic], None],
                 listeners: tuple[Callable[[WithLoopInfo], None], ...] = (),
                 max_inline_depth: int = 6):
        self.program = program
        self.sink = sink
        self.listeners = tuple(listeners)
        self.max_inline_depth = max_inline_depth
        self.functions: dict[str, list[FunDef]] = {}
        for f in program.functions:
            self.functions.setdefault(f.name, []).append(f)
        self._fresh = 0
        self._stack: list[str] = []
        self._fname = "<none>"

    # -- reporting ---------------------------------------------------------

    def report(self, code: str, message: str,
               pos: Optional[SourcePos]) -> None:
        self.sink(Diagnostic.make(code, message, pos, self._fname))

    def _fresh_owner(self, hint: str) -> str:
        self._fresh += 1
        return f"<{hint}#{self._fresh}>"

    # -- program/function level --------------------------------------------

    def analyze_program(self) -> None:
        for fun in self.program.functions:
            self.analyze_function(fun)

    def analyze_function(self, fun: FunDef) -> None:
        self._fname = fun.name
        self._stack = [fun.name]
        env = {
            p.name: avalue_from_type(p.type, f"{fun.name}.{p.name}")
            for p in fun.params
        }
        self._exec_block(fun.body, env)
        self._fname = "<none>"

    # -- statements --------------------------------------------------------

    def _exec_block(self, block: Block, env: dict) -> list[AValue]:
        returns: list[AValue] = []
        for stmt in block.statements:
            returns.extend(self._exec_stmt(stmt, env))
        return returns

    def _exec_stmt(self, stmt: Stmt, env: dict) -> list[AValue]:
        if isinstance(stmt, Assign):
            env[stmt.target] = self.eval(stmt.value, env)
            return []
        if isinstance(stmt, Return):
            return [self.eval(stmt.value, env)]
        if isinstance(stmt, ExprStmt):
            self.eval(stmt.expr, env)
            return []
        if isinstance(stmt, Block):
            return self._exec_block(stmt, env)
        if isinstance(stmt, If):
            self.eval(stmt.cond, env)
            then_env = dict(env)
            returns = self._exec_block(stmt.then, then_env)
            else_env = dict(env)
            if stmt.orelse is not None:
                returns += self._exec_block(stmt.orelse, else_env)
            merged: dict = {}
            for name in set(then_env) | set(else_env):
                a = then_env.get(name, UNKNOWN)
                b = else_env.get(name, UNKNOWN)
                merged[name] = a if a == b else join_avalue(a, b)
            env.clear()
            env.update(merged)
            return returns
        if isinstance(stmt, (While, DoWhile, For)):
            return self._exec_loop(stmt, env)
        return []

    def _exec_loop(self, stmt, env: dict) -> list[AValue]:
        returns: list[AValue] = []
        if isinstance(stmt, For):
            returns += self._exec_stmt(stmt.init, env)
        # Widen every variable the loop may reassign, then interpret the
        # body once for its diagnostics (sound: no fact survives that
        # depends on the iteration count).
        assigned = set()
        _collect_assigned(stmt.body, assigned)
        if isinstance(stmt, For):
            assigned.add(stmt.update.target)
            assigned.add(stmt.init.target)
        for name in assigned:
            env[name] = UNKNOWN
        if isinstance(stmt, (While, For)):
            self.eval(stmt.cond, env)
        body_env = dict(env)
        returns += self._exec_block(stmt.body, body_env)
        if isinstance(stmt, For):
            self._exec_stmt(stmt.update, body_env)
        if isinstance(stmt, DoWhile):
            self.eval(stmt.cond, body_env)
        return returns

    # -- expressions -------------------------------------------------------

    def eval(self, expr: Expr, env: dict) -> AValue:
        if isinstance(expr, IntLit):
            return AValue.scalar(Interval.point(expr.value))
        if isinstance(expr, (DoubleLit, BoolLit)):
            return AValue.scalar()
        if isinstance(expr, Var):
            return env.get(expr.name, UNKNOWN)
        if isinstance(expr, Dot):
            return UNKNOWN
        if isinstance(expr, VectorLit):
            return self._eval_vector(expr, env)
        if isinstance(expr, UnOp):
            v = self.eval(expr.operand, env)
            if expr.op == "-":
                return _map_values(v, Interval.neg)
            return AValue.scalar() if v.is_scalar else v
        if isinstance(expr, BinOp):
            return self._eval_binop(expr, env)
        if isinstance(expr, Select):
            return self._eval_select(expr, env)
        if isinstance(expr, Call):
            return self._eval_call(expr, env)
        if isinstance(expr, WithLoop):
            return self._eval_withloop(expr, env)
        return UNKNOWN

    def _eval_vector(self, expr: VectorLit, env: dict) -> AValue:
        elems = [self.eval(e, env) for e in expr.elements]
        if all(e.is_scalar for e in elems):
            comps = tuple(e.sval or TOP for e in elems)
            return AValue.int_vector(Affine.of(len(elems)), comps=comps)
        # Nested literal: rank = 1 + element rank when uniform.
        ranks = {e.rank for e in elems if e.is_array}
        if len(ranks) == 1 and (r := ranks.pop()) is not None:
            return AValue(kind="array", rank=1 + r)
        return AValue(kind="array")

    # .. arithmetic ........................................................

    def _eval_binop(self, expr: BinOp, env: dict) -> AValue:
        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        op = expr.op
        if op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
            return AValue.scalar()
        # Shape compatibility of elementwise arithmetic.
        self._check_elementwise(left, right, expr)
        if op in ("+", "-", "*", "/", "%"):
            return self._arith(op, left, right)
        return UNKNOWN

    def _check_elementwise(self, left: AValue, right: AValue,
                           expr: BinOp) -> None:
        if not (left.is_array and right.is_array):
            return
        if (left.rank is not None and right.rank is not None
                and left.rank != right.rank):
            self.report(
                "SAC101",
                f"elementwise '{expr.op}' on arrays of different ranks "
                f"{left.rank} and {right.rank}",
                expr.pos,
            )
            return
        if left.extents and right.extents and left.rank == right.rank:
            for ax, (ea, eb) in enumerate(zip(left.extents, right.extents)):
                if ea is None or eb is None:
                    continue
                diff = ea.sub(eb)
                if diff.is_const and diff.const != 0:
                    self.report(
                        "SAC101",
                        f"elementwise '{expr.op}' on mismatched extents "
                        f"{ea} and {eb} along axis {ax}",
                        expr.pos,
                    )
                    return

    def _arith(self, op: str, left: AValue, right: AValue) -> AValue:
        # Scalar x scalar.
        if left.is_scalar and right.is_scalar:
            a, b = left.sval, right.sval
            if a is None or b is None:
                return AValue.scalar()
            if op == "+":
                return AValue.scalar(a.add(b))
            if op == "-":
                return AValue.scalar(a.sub(b))
            if op == "*":
                return AValue.scalar(a.mul(b))
            if op == "%":
                k = b.const_value
                if k is not None and k > 0:
                    return AValue.scalar(Interval(Affine.of(0),
                                                  Affine.of(k - 1)))
                return AValue.scalar()
            if op == "/":
                ka, kb = a.const_value, b.const_value
                if ka is not None and kb not in (None, 0):
                    q = abs(ka) // abs(kb)
                    if (ka < 0) != (kb < 0):
                        q = -q
                    return AValue.scalar(Interval.point(q))
                return AValue.scalar()
            return AValue.scalar()
        # Vector (+ scalar / vector): componentwise on the value track.
        if left.is_array or right.is_array:
            arr = left if left.is_array else right
            other = right if left.is_array else left
            shape_src = arr if (arr.extents or arr.owner) else other
            result_shape = shape_src if shape_src.is_array else arr
            comps = uniform = None
            if op in ("+", "-", "*"):
                fn = {"+": Interval.add, "-": Interval.sub,
                      "*": Interval.mul}[op]
                if left.is_array and right.is_array:
                    if (left.comps is not None and right.comps is not None
                            and len(left.comps) == len(right.comps)):
                        comps = tuple(fn(x, y) for x, y
                                      in zip(left.comps, right.comps))
                    elif (left.comps or left.uniform) and \
                            (right.comps or right.uniform):
                        lu = left.uniform or _hull(left.comps)
                        ru = right.uniform or _hull(right.comps)
                        if lu is not None and ru is not None:
                            uniform = fn(lu, ru)
                else:
                    vec = left if left.is_array else right
                    sc = (right if left.is_array else left).sval
                    if sc is not None:
                        if op == "-" and right.is_array:
                            # scalar - vector
                            if vec.comps is not None:
                                comps = tuple(sc.sub(c) for c in vec.comps)
                            elif vec.uniform is not None:
                                uniform = sc.sub(vec.uniform)
                        elif vec.comps is not None:
                            comps = tuple(fn(c, sc) for c in vec.comps)
                        elif vec.uniform is not None:
                            uniform = fn(vec.uniform, sc)
            elif op == "/":
                vec = left if left.is_array else right
                k = (right.sval.const_value
                     if (left.is_array and right.is_scalar and right.sval)
                     else None)
                if k is not None and k > 0 and vec.comps is not None:
                    comps = tuple(_div_const(c, k) for c in vec.comps)
            return AValue(kind="array", rank=result_shape.rank,
                          extents=result_shape.extents,
                          owner=result_shape.owner,
                          comps=comps, uniform=uniform)
        return UNKNOWN

    # .. selection ..........................................................

    def _eval_select(self, expr: Select, env: dict) -> AValue:
        arr = self.eval(expr.array, env)
        idx = self.eval(expr.index, env)
        if not arr.is_array:
            return UNKNOWN
        # Normalize the index to per-component intervals.
        if idx.is_scalar:
            icomps: Optional[tuple[Interval, ...]] = (
                (idx.sval or TOP,))
            ilen: Optional[int] = 1
        elif idx.is_array and idx.rank == 1:
            icomps = idx.comps
            ilen = idx.vlen
            if icomps is None and ilen is not None:
                icomps = tuple((idx.uniform or TOP) for _ in range(ilen))
        else:
            return UNKNOWN
        if ilen is not None and arr.rank is not None and ilen > arr.rank:
            self.report(
                "SAC103",
                f"selection index of length {ilen} into an array of "
                f"rank {arr.rank}",
                expr.pos,
            )
            return UNKNOWN
        # Halo / bounds check per component.
        if icomps is not None:
            for ax, c in enumerate(icomps):
                self._check_axis_bounds(arr, ax, c, expr.pos)
        elif idx.uniform is not None:
            # Unknown component count: compare against the '*' extent.
            self._check_axis_bounds(arr, 0, idx.uniform, expr.pos,
                                    star=True)
        # Result shape: remaining axes.
        if ilen is not None and arr.rank is not None:
            rest = arr.rank - ilen
            if rest == 0:
                # Full selection; surface component values of tracked
                # int vectors (shape(a)[[0]] and friends).
                if (arr.comps is not None and ilen == 1
                        and icomps is not None
                        and (k := icomps[0].const_value) is not None
                        and 0 <= k < len(arr.comps)):
                    return AValue.scalar(arr.comps[k])
                if arr.uniform is not None:
                    return AValue.scalar(arr.uniform)
                return AValue.scalar()
            if arr.extents is not None:
                return AValue.array(arr.extents[ilen:])
            return AValue(kind="array", rank=rest, owner=arr.owner)
        return UNKNOWN

    def _check_axis_bounds(self, arr: AValue, axis: int, idx: Interval,
                           pos: Optional[SourcePos],
                           star: bool = False) -> None:
        ext = (Affine.sym(("ext", arr.owner, "*"))
               if star and arr.owner is not None
               else arr.extent(axis))
        if idx.hi is not None and idx.hi.always_neg():
            self.report(
                "SAC102",
                f"index along axis {axis} is always negative "
                f"({idx}); access escapes the frame",
                pos,
            )
            return
        if ext is None:
            return
        if idx.lo is not None:
            over = idx.lo.sub(ext)
            if over.always_nonneg():
                self.report(
                    "SAC102",
                    f"index along axis {axis} ({idx}) is always >= the "
                    f"extent {ext}; access escapes the frame",
                    pos,
                )
                return
        # The interesting stencil case: the access *reaches* outside on
        # the boundary iterations — its upper end provably exceeds the
        # last legal index (or its lower end provably undershoots 0).
        if idx.hi is not None:
            over = idx.hi.sub(ext).add(Affine.of(1))
            if over.always_pos():
                self.report(
                    "SAC102",
                    f"access along axis {axis} reaches index {idx.hi} "
                    f"but the frame extent is {ext}; stencil offset "
                    f"escapes the halo",
                    pos,
                )
                return
        if idx.lo is not None and idx.lo.always_neg():
            self.report(
                "SAC102",
                f"access along axis {axis} reaches index {idx.lo}, "
                f"below the frame; stencil offset escapes the halo",
                pos,
            )

    # .. calls ..............................................................

    def _eval_call(self, expr: Call, env: dict) -> AValue:
        args = [self.eval(a, env) for a in expr.args]
        name = expr.name
        handler = _BUILTIN_EVAL.get(name)
        if handler is not None:
            return handler(self, args)
        overloads = self.functions.get(name)
        if not overloads:
            return UNKNOWN  # typecheck reports unknown functions
        matching = [f for f in overloads if f.arity == len(args)]
        if (len(matching) == 1 and matching[0].inline
                and len(self._stack) <= self.max_inline_depth
                and name not in self._stack):
            return self._expand_inline(matching[0], args)
        if matching:
            results = [avalue_from_type(f.return_type,
                                        self._fresh_owner(f.name))
                       for f in matching]
            out = results[0]
            for r in results[1:]:
                out = join_avalue(out, r)
            return out
        return UNKNOWN

    def _expand_inline(self, fun: FunDef, args: list[AValue]) -> AValue:
        callee_env = {}
        for p, a in zip(fun.params, args):
            callee_env[p.name] = self._refine(a, p.type,
                                              self._fresh_owner(p.name))
        self._stack.append(fun.name)
        try:
            returns = self._exec_block(fun.body, callee_env)
        finally:
            self._stack.pop()
        if not returns:
            return UNKNOWN
        out = returns[0]
        for r in returns[1:]:
            out = join_avalue(out, r)
        return out

    def _refine(self, arg: AValue, t: SacType, owner: str) -> AValue:
        """Combine an argument's abstract value with the declared type.

        The argument's value facts (component intervals, scalar value)
        always survive; declared extents fill in axes the caller left
        unknown.
        """
        declared = avalue_from_type(t, owner)
        if arg.kind == "unknown":
            return declared
        if not (arg.is_array and declared.is_array):
            return arg
        extents = arg.extents
        rank = arg.rank
        if (extents is None and arg.owner is None
                and arg.comps is None and arg.uniform is None):
            return declared  # nothing known about the arg at all
        if declared.extents is not None and extents is not None \
                and len(extents) == len(declared.extents):
            extents = tuple(e if e is not None else d
                            for e, d in zip(extents, declared.extents))
            rank = len(extents)
        return AValue(kind="array", rank=rank, extents=extents,
                      owner=arg.owner, comps=arg.comps,
                      uniform=arg.uniform)

    # .. WITH-loops ..........................................................

    def _eval_withloop(self, wl: WithLoop, env: dict) -> AValue:
        op = wl.operation
        frame: Optional[AValue] = None
        kind = "fold"
        fold_fun = None
        if isinstance(op, GenarrayOp):
            kind = "genarray"
            shp = self.eval(op.shape, env)
            frame = self._frame_from_shape_vector(shp)
        elif isinstance(op, ModarrayOp):
            kind = "modarray"
            frame = self.eval(op.array, env)
            if not frame.is_array:
                frame = AValue(kind="array")
        else:
            assert isinstance(op, FoldOp)
            fold_fun = op.fun
            self.eval(op.neutral, env)

        info = self._resolve_generator(wl, kind, fold_fun, frame, env)
        for cb in self.listeners:
            cb(info)
        if (info.rank is not None and frame is not None
                and frame.rank is not None and info.rank > frame.rank):
            self.report(
                "SAC104",
                f"generator rank {info.rank} exceeds the frame rank "
                f"{frame.rank}",
                wl.pos,
            )

        # Bind the index variable and interpret the body.
        iv = self._index_avalue(info)
        body_env = dict(env)
        body_env[wl.generator.var] = iv
        body = self.eval(op.body, body_env)

        if kind == "modarray":
            return frame
        if kind == "genarray":
            if frame is None:
                return AValue(kind="array")
            if body.is_array and body.rank is not None \
                    and frame.extents is not None and body.extents:
                return AValue.array(frame.extents + body.extents)
            result = frame
            # Integer element tracking (e.g. the `unit` vectors): the
            # elements are the body values joined with the default 0 of
            # uncovered positions.
            if body.is_scalar and body.sval is not None \
                    and frame.rank == 1:
                elems = body.sval.join(Interval.point(0))
                return AValue(kind="array", rank=1, extents=frame.extents,
                              uniform=elems)
            return result
        # fold: result has the cell type of body/neutral; stay coarse.
        if body.is_scalar:
            return AValue.scalar()
        return UNKNOWN

    def _frame_from_shape_vector(self, shp: AValue) -> AValue:
        if not shp.is_array:
            if shp.is_scalar:  # genarray(n, v) — rank-1 frame
                ext = (shp.sval.lo if shp.sval and shp.sval.is_point
                       else None)
                return AValue(kind="array", rank=1, extents=(ext,))
            return AValue(kind="array")
        n = shp.vlen
        if n is None:
            return AValue(kind="array",
                          owner=self._fresh_owner("genarray"))
        extents = []
        for i in range(n):
            c = shp.comp(i)
            extents.append(c.lo if c.is_point else None)
        return AValue.array(tuple(extents))

    def _resolve_generator(self, wl: WithLoop, kind: str,
                           fold_fun: Optional[str],
                           frame: Optional[AValue],
                           env: dict) -> WithLoopInfo:
        gen = wl.generator
        rank = frame.rank if frame is not None else None

        def bound(expr, is_upper: bool):
            """-> (comps, uniform, length) with inclusive normalization
            still pending."""
            if isinstance(expr, Dot):
                if frame is None:
                    return None, TOP, None
                if frame.extents is not None:
                    if is_upper:
                        comps = tuple(
                            Interval.point(e.sub(Affine.of(1)))
                            if e is not None else TOP
                            for e in frame.extents)
                    else:
                        comps = tuple(Interval.point(0)
                                      for _ in frame.extents)
                    return comps, None, len(frame.extents)
                ext = frame.extent(0)  # '*' symbol when owner known
                if is_upper:
                    uni = (Interval.point(ext.sub(Affine.of(1)))
                           if ext is not None else TOP)
                else:
                    uni = Interval.point(0)
                return None, uni, None
            v = self.eval(expr, env)
            if v.is_scalar:
                return None, v.sval or TOP, None
            if v.is_array and v.rank == 1:
                if v.comps is not None:
                    return v.comps, None, len(v.comps)
                return None, v.uniform or TOP, v.vlen
            return None, TOP, None

        lo_c, lo_u, lo_len = bound(gen.lower, False)
        hi_c, hi_u, hi_len = bound(gen.upper, True)

        one = Interval.point(1)
        if not gen.lower_inclusive:
            lo_c = tuple(c.add(one) for c in lo_c) if lo_c else lo_c
            lo_u = lo_u.add(one) if lo_u is not None else None
        if not gen.upper_inclusive:
            hi_c = tuple(c.sub(one) for c in hi_c) if hi_c else hi_c
            hi_u = hi_u.sub(one) if hi_u is not None else None

        # Generator rank: bound vector lengths, else the frame rank.
        glen = lo_len if lo_len is not None else hi_len
        if glen is not None:
            rank = glen
        if lo_c is not None and hi_c is not None \
                and len(lo_c) != len(hi_c):
            rank = None  # partition checker reports SAC205

        def consts(expr) -> tuple[Optional[int], ...]:
            if expr is None:
                return ()
            v = self.eval(expr, env)
            n = rank or 1
            if v.is_scalar:
                k = v.sval.const_value if v.sval else None
                return (k,) * n
            if v.is_array and v.comps is not None:
                return tuple(c.const_value for c in v.comps)
            return (None,) * n

        return WithLoopInfo(
            wl=wl, function=self._fname, kind=kind, fold_fun=fold_fun,
            frame=frame, rank=rank, lower=lo_c, upper=hi_c,
            u_lower=lo_u, u_upper=hi_u,
            step=consts(gen.step), width=consts(gen.width),
            dot_lower=isinstance(gen.lower, Dot),
            dot_upper=isinstance(gen.upper, Dot),
            lower_len=lo_len, upper_len=hi_len,
        )

    def _index_avalue(self, info: WithLoopInfo) -> AValue:
        """Abstract value of the index variable over the whole space."""
        def span(lo: Interval, hi: Interval) -> Interval:
            return Interval(lo.lo, hi.hi)

        if info.lower is not None and info.upper is not None \
                and len(info.lower) == len(info.upper):
            comps = tuple(span(lo, hi)
                          for lo, hi in zip(info.lower, info.upper))
            return AValue.int_vector(Affine.of(len(comps)), comps=comps)
        lo = info.u_lower if info.u_lower is not None else (
            _hull(info.lower) or TOP)
        hi = info.u_upper if info.u_upper is not None else (
            _hull(info.upper) or TOP)
        length = Affine.of(info.rank) if info.rank is not None else None
        return AValue.int_vector(length, uniform=span(lo, hi))


# ---------------------------------------------------------------------------
# Small helpers and the builtin evaluation table.
# ---------------------------------------------------------------------------

def _collect_assigned(block: Block, out: set[str]) -> None:
    for stmt in block.statements:
        if isinstance(stmt, Assign):
            out.add(stmt.target)
        elif isinstance(stmt, Block):
            _collect_assigned(stmt, out)
        elif isinstance(stmt, If):
            _collect_assigned(stmt.then, out)
            if stmt.orelse is not None:
                _collect_assigned(stmt.orelse, out)
        elif isinstance(stmt, (While, DoWhile)):
            _collect_assigned(stmt.body, out)
        elif isinstance(stmt, For):
            out.add(stmt.init.target)
            out.add(stmt.update.target)
            _collect_assigned(stmt.body, out)


def _hull(comps: Optional[tuple[Interval, ...]]) -> Optional[Interval]:
    if not comps:
        return None
    out = comps[0]
    for c in comps[1:]:
        out = out.join(c)
    return out


def _div_const(c: Interval, k: int) -> Interval:
    lo = c.lo.const // k if c.lo is not None and c.lo.is_const else None
    hi = c.hi.const // k if c.hi is not None and c.hi.is_const else None
    return Interval(Affine.of(lo) if lo is not None else None,
                    Affine.of(hi) if hi is not None else None)


def _map_values(v: AValue, fn) -> AValue:
    if v.is_scalar:
        return AValue.scalar(fn(v.sval) if v.sval is not None else None)
    if v.is_array:
        comps = tuple(fn(c) for c in v.comps) if v.comps else None
        uniform = fn(v.uniform) if v.uniform is not None else None
        return AValue(kind="array", rank=v.rank, extents=v.extents,
                      owner=v.owner, comps=comps, uniform=uniform)
    return UNKNOWN


def _abs_interval(c: Interval) -> Interval:
    if c.lo is not None and c.lo.always_nonneg():
        return c
    if c.hi is not None and c.hi.neg().always_nonneg():
        return c.neg()
    los = c.lo.const if c.lo is not None and c.lo.is_const else None
    his = c.hi.const if c.hi is not None and c.hi.is_const else None
    if los is not None and his is not None:
        return Interval(Affine.of(0), Affine.of(max(abs(los), abs(his))))
    return Interval(Affine.of(0), None)


def _bi_shape(an: ShapeAnalyzer, args: list[AValue]) -> AValue:
    (a,) = args if len(args) == 1 else (UNKNOWN,)
    if not a.is_array:
        if a.is_scalar:
            return AValue.int_vector(Affine.of(0), comps=())
        return AValue.int_vector(None)
    if a.extents is not None:
        comps = tuple(
            Interval.point(e) if e is not None else Interval(Affine.of(0),
                                                             None)
            for e in a.extents)
        return AValue.int_vector(Affine.of(len(comps)), comps=comps)
    if a.owner is not None:
        ext = Affine.sym(("ext", a.owner, "*"))
        return AValue.int_vector(None, uniform=Interval.point(ext))
    return AValue.int_vector(None, uniform=Interval(Affine.of(0), None))


def _bi_dim(an: ShapeAnalyzer, args: list[AValue]) -> AValue:
    (a,) = args if len(args) == 1 else (UNKNOWN,)
    if a.is_scalar:
        return AValue.scalar(Interval.point(0))
    if a.is_array and a.rank is not None:
        return AValue.scalar(Interval.point(a.rank))
    return AValue.scalar(Interval(Affine.of(0), None))


def _bi_sum(an: ShapeAnalyzer, args: list[AValue]) -> AValue:
    (a,) = args if len(args) == 1 else (UNKNOWN,)
    if a.is_scalar:
        return a
    if a.is_array and a.comps is not None:
        total = Interval.point(0)
        for c in a.comps:
            total = total.add(c)
        return AValue.scalar(total)
    return AValue.scalar()


def _bi_abs(an: ShapeAnalyzer, args: list[AValue]) -> AValue:
    (a,) = args if len(args) == 1 else (UNKNOWN,)
    return _map_values(a, _abs_interval)


def _bi_elementwise_shape(an: ShapeAnalyzer, args: list[AValue]) -> AValue:
    for a in args:
        if a.is_array:
            return AValue(kind="array", rank=a.rank, extents=a.extents,
                          owner=a.owner)
    return AValue.scalar()


_BUILTIN_EVAL: dict[str, Callable] = {
    "shape": _bi_shape,
    "dim": _bi_dim,
    "sum": _bi_sum,
    "prod": lambda an, args: (AValue.scalar() if args and
                              args[0].is_scalar else AValue.scalar()),
    "abs": _bi_abs,
    "min": _bi_elementwise_shape,
    "max": _bi_elementwise_shape,
    "sqrt": _bi_elementwise_shape,
    "tod": _bi_elementwise_shape,
    "toi": _bi_elementwise_shape,
}

assert all(is_builtin(n) for n in _BUILTIN_EVAL)
