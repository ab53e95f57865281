"""WITH-loop evaluation.

Two execution strategies, tried in order:

1. **Vectorized (abstract) evaluation** — bind the index variable to an
   affine :class:`~repro.sac.values.IndexView` spanning the whole index
   space and evaluate the body once; selections against it become NumPy
   slices/gathers, arithmetic becomes whole-array arithmetic.  This is
   the moral equivalent of what the SAC compiler's WITH-loop code
   generation achieves and is what makes the interpreted MG benchmark
   run at NumPy speed.
2. **Scalar loop** — the defining semantics: iterate every index vector
   of the generator and evaluate the body per point.  Used when the body
   leaves the abstract domain (data-dependent control flow, non-affine
   indexing, ``width`` filters), for a fold over a user function, and as
   the reference implementation in tests.

The strategy can be forced via ``Interpreter(table, vectorize=...)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .ast_nodes import (BinOp, Call, Dot, FoldOp, GenarrayOp, Generator,
                        IntLit, ModarrayOp, Select, UnOp, Var, VectorLit,
                        WithLoop)
from .ast_visit import iter_child_nodes
from .builtins import BUILTINS, FOLD_UFUNCS
from .errors import SacRuntimeError, SacTypeError
from .values import (
    AbstractUnsupported,
    AffineAxis,
    IndexView,
    SpaceValue,
    any_abstract,
    as_index_vector,
    coerce_value,
    dtype_of,
    is_int_vector,
)

__all__ = ["eval_withloop", "IndexSpace"]


@dataclass(frozen=True)
class IndexSpace:
    """Resolved generator: per-axis start/step/count plus width."""

    lower: tuple[int, ...]
    step: tuple[int, ...]
    count: tuple[int, ...]
    width: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.lower)

    @property
    def is_affine(self) -> bool:
        return all(w == 1 for w in self.width)

    @property
    def is_empty(self) -> bool:
        return any(c == 0 for c in self.count)

    def axes(self) -> tuple[AffineAxis, ...]:
        if not self.is_affine:
            raise AbstractUnsupported("width filters are not affine")
        return tuple(
            AffineAxis(lo, st, ct)
            for lo, st, ct in zip(self.lower, self.step, self.count)
        )

    def positions(self, axis: int) -> list[int]:
        """All selected positions along one axis (width-aware)."""
        out = []
        lo, st, ct, w = (
            self.lower[axis],
            self.step[axis],
            self.count[axis],
            self.width[axis],
        )
        for k in range(ct):
            base = lo + k * st
            out.extend(base + off for off in range(w))
        return out

    def iter_indices(self):
        """Iterate all index vectors (as tuples) in row-major order."""
        return itertools.product(*(self.positions(ax) for ax in range(self.rank)))


def _resolve_space(ev, env, gen: Generator,
                   frame_shape: tuple[int, ...] | None) -> IndexSpace:
    """Resolve a generator against its frame — for any evaluator.

    ``ev.static`` evaluates each bound, step and width exactly once and
    refuses a value that is not known before the loop runs.
    """
    def bound(expr, is_upper: bool):
        if isinstance(expr, Dot):
            if frame_shape is None:
                raise SacRuntimeError(
                    "'.' generator bounds need a genarray/modarray frame"
                )
            if is_upper:
                return np.asarray(frame_shape, dtype=np.int64) - 1  # largest legal
            return np.zeros(len(frame_shape), dtype=np.int64)  # smallest legal
        return ev.static(expr, env, "generator bound")

    lo, hi = bound(gen.lower, False), bound(gen.upper, True)
    # A vector bound establishes the rank when there is no frame.
    rank = len(frame_shape) if frame_shape is not None else next(
        (int(v.shape[0]) for v in (lo, hi) if is_int_vector(v)), None)
    lo, hi = as_index_vector(lo, rank), as_index_vector(hi, rank)
    if len(lo) != len(hi):
        raise SacTypeError(
            f"generator bounds have different lengths {len(lo)} and {len(hi)}"
        )
    if not gen.lower_inclusive:
        lo = lo + 1
    if gen.upper_inclusive:
        hi = hi + 1
    rank = len(lo)

    step = width = np.ones(rank, dtype=np.int64)
    if gen.step is not None:
        step = as_index_vector(ev.static(gen.step, env, "generator step"), rank)
        if np.any(step <= 0):
            raise SacRuntimeError("generator step must be positive")
    if gen.width is not None:
        width = as_index_vector(
            ev.static(gen.width, env, "generator width"), rank)
        if np.any(width <= 0) or np.any(width > step):
            raise SacRuntimeError("generator width must be in 1..step")

    span = hi - lo
    count = np.where(span > 0, -(-span // step), 0)  # ceil division
    # With width > 1 the last block may be cut short; positions() handles
    # exact membership, count tracks full/partial blocks.
    space = IndexSpace(
        tuple(int(x) for x in lo),
        tuple(int(x) for x in step),
        tuple(int(x) for x in count),
        tuple(int(x) for x in width),
    )
    if frame_shape is not None:
        # The generator may cover a lower-rank prefix (non-scalar cells).
        _check_region(space, frame_shape[: space.rank])
    return space


def _check_region(space: IndexSpace, shape: tuple[int, ...]) -> None:
    if space.rank != len(shape):
        raise SacTypeError(
            f"generator rank {space.rank} does not match frame rank {len(shape)}"
        )
    for ax in range(space.rank):
        if space.count[ax] == 0:
            continue
        positions = (space.lower[ax],
                     space.lower[ax] + (space.count[ax] - 1) * space.step[ax]
                     + space.width[ax] - 1)
        if positions[0] < 0 or positions[1] >= shape[ax]:
            raise SacRuntimeError(
                f"generator range {positions} exceeds frame extent "
                f"{shape[ax]} on axis {ax}"
            )


def _space_result_to_array(value, space: IndexSpace):
    """Normalize an abstract body result to (data, cell_shape)."""
    if isinstance(value, IndexView):
        value = value.materialize()
    if isinstance(value, SpaceValue):
        if value.space_dims != space.count:
            raise AbstractUnsupported("body result space mismatch")
        return value.data, value.cell_shape
    # Constant across the space.
    cell = np.asarray(value)
    data = np.broadcast_to(cell, space.count + cell.shape)
    return data, cell.shape


def _check_cell(cell: tuple[int, ...], frame: tuple[int, ...],
                space: IndexSpace) -> None:
    """A body's value must fill one cell of the frame, without NumPy's
    broadcasting."""
    if cell != frame[space.rank:]:
        raise SacTypeError(f"modarray cell shape {cell} does not match "
                           f"frame {frame[space.rank:]}")


# ---------------------------------------------------------------------------
# Vectorized path.
# ---------------------------------------------------------------------------

def _eval_vectorized(interp, env, body_env, op, space: IndexSpace,
                     shp: tuple[int, ...] | None, base):
    if isinstance(op, FoldOp):
        ufunc = FOLD_UFUNCS.get(op.fun)
        if ufunc is None:  # a user function: applied per point, in order
            raise AbstractUnsupported(f"fold over {op.fun!r}")
        neutral = coerce_value(interp.eval_expr(op.neutral, env))
        if space.is_empty:
            return neutral
        value = interp.eval_expr(op.body, body_env)
        data, cell = _space_result_to_array(value, space)
        reduced = ufunc.reduce(
            data.reshape((-1,) + cell) if cell else data.reshape(-1), axis=0
        )
        return coerce_value(ufunc(neutral, reduced))
    return store(op, None if space.is_empty
                 else interp.eval_expr(op.body, body_env), space, shp, base)


def store(op, value, space: IndexSpace, shp: tuple[int, ...] | None, base):
    """The array a genarray or modarray over the affine ``space`` makes
    of its body's ``value``: a value per point, or one value for every
    point.  A modarray frame takes the body's type when it is the wider
    one."""
    if space.is_empty:
        # The element type of a genarray is its body's, evaluated
        # nowhere: the scalar path's default, double.
        return np.zeros(shp, dtype=np.float64) \
            if isinstance(op, GenarrayOp) else base.copy()
    data, cell = _space_result_to_array(value, space)
    if isinstance(op, GenarrayOp):
        out = np.zeros(tuple(shp) + cell, dtype=dtype_of(data))
    else:
        _check_cell(cell, base.shape, space)
        out = base.astype(np.promote_types(base.dtype, dtype_of(data)), copy=True)
    region = tuple(ax.as_slice(ext) for ax, ext in zip(space.axes(), out.shape))
    out[region] = data
    return out


# ---------------------------------------------------------------------------
# Scalar (reference) path.
# ---------------------------------------------------------------------------

def _eval_scalar(interp, env, wl: WithLoop, space: IndexSpace,
                 shp: tuple[int, ...] | None, base):
    op = wl.operation
    var = wl.generator.var
    # A head in the body may read the index: none is kept meanwhile.
    heads, interp.heads = interp.heads, None
    try:
        if isinstance(op, FoldOp):
            acc = coerce_value(interp.eval_expr(op.neutral, env))
            for idx in space.iter_indices():
                iv = np.asarray(idx, dtype=np.int64)
                val = coerce_value(interp.eval_expr(op.body, env.child({var: iv})))
                acc = interp.apply_named(op.fun, [acc, val])
            return acc

        out = None if isinstance(op, GenarrayOp) else base.copy()
        for idx in space.iter_indices():
            iv = np.asarray(idx, dtype=np.int64)
            val = coerce_value(interp.eval_expr(op.body, env.child({var: iv})))
            if any_abstract([val]):
                # A cell per point of an enclosing vectorized loop: that
                # loop runs per index instead.
                raise AbstractUnsupported("per-point cell of a nested loop")
            if out is None:
                out = np.zeros(tuple(shp) + np.shape(val), dtype=dtype_of(val))
            elif not np.can_cast(dtype_of(val), out.dtype):
                out = out.astype(np.promote_types(out.dtype, dtype_of(val)))
            _check_cell(np.shape(val), out.shape, space)
            out[idx] = val
        if out is None:  # empty region
            out = np.zeros(tuple(shp), dtype=np.float64)
        return out
    finally:
        interp.heads = heads


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------

def withloop_head(ev, env, wl: WithLoop):
    """What a WITH-loop iterates over, resolved once for any evaluator.

    Evaluates the genarray shape or the modarray frame (once — the frame
    value is handed on, not re-evaluated), resolves the generator against
    it and checks the region.  Returns ``(space, shp, base, body_env)``:
    ``shp`` is the genarray shape, ``base`` the modarray frame (each
    ``None`` for the other operations) and ``body_env`` binds the index
    variable to the affine :class:`IndexView` of the whole space —
    ``None`` when a ``width`` filter makes the space non-affine.

    All but the frame is kept in ``ev.heads`` (None: not kept), by loop
    node and :func:`_head_key`; a kept view keeps the index work its
    body's selections do (:func:`_index_nodes`).
    """
    op = wl.operation
    base = frame_shape = key = head = None
    if isinstance(op, ModarrayOp):
        base = ev.eval_expr(op.array, env)
        if any_abstract([base]):
            raise AbstractUnsupported("per-point modarray frame")
        if not isinstance(base, ev.array_types):
            raise SacTypeError("modarray frame must be an array")
        frame_shape = base.shape
    if ev.heads is not None:
        memo = ev.heads.get(id(wl))
        if memo is None or memo[0] is not wl:  # the id of a freed node
            memo = ev.heads[id(wl)] = wl, _head_reads(ev, wl), {}
        _, reads, entries = memo
        key = None if reads is None else _head_key(env, reads, frame_shape)
        head = entries.get(key)
    if head is None:
        head = _resolve_head(ev, env, wl, frame_shape)
        if key is not None and len(entries) < _MAX_HEADS_PER_LOOP:
            if head[2] is not None:
                head[2].memo = dict.fromkeys(_index_nodes(wl, reads))
            entries[key] = head
    space, shp, view = head
    if view is None:
        return space, shp, base, None
    body_env = env.child({wl.generator.var: view})
    body_env.memo = view.memo
    return space, shp, base, body_env


def _resolve_head(ev, env, wl: WithLoop, frame_shape):
    """``wl``'s space, genarray shape and index view, evaluated."""
    shp = None
    if isinstance(wl.operation, GenarrayOp):
        shp_val = ev.static(wl.operation.shape, env, "genarray shape")
        shp_vec = as_index_vector(shp_val, None if is_int_vector(shp_val) else 1)
        if np.any(shp_vec < 0):
            raise SacRuntimeError("genarray shape must be non-negative")
        shp = frame_shape = tuple(int(x) for x in shp_vec)
    space = _resolve_space(ev, env, wl.generator, frame_shape)
    if shp is not None and space.rank != len(shp):
        # genarray's cells extend its shape: the generator spans all of it.
        raise SacTypeError(f"generator rank {space.rank} does not match "
                           f"genarray shape rank {len(shp)}")
    return space, shp, IndexView(space.axes()) if space.is_affine else None


#: Heads one loop node keeps, at most: one per shape it is called at.
_MAX_HEADS_PER_LOOP = 64
#: Longest vector a head may read by value and still be kept.
_SMALL_VECTOR = 16


def _head_reads(ev, wl: WithLoop) -> dict[str, bool] | None:
    """The free names ``wl``'s head reads, each ``True`` when only a
    ``structural`` builtin reads it (its shape is all that matters).
    None when the head holds a nested WITH-loop or a user call.  By
    position, not node: an optimized tree shares nodes between uses."""
    reads: dict[str, bool] = {}
    stack = [(wl.generator, False), (getattr(wl.operation, "shape", None), False)]
    while stack:
        node, shape_only = stack.pop()
        if isinstance(node, Var):
            reads[node.name] = reads.get(node.name, True) and shape_only
        elif isinstance(node, WithLoop):
            return None
        elif isinstance(node, Call):
            fn = BUILTINS.get(node.name)
            if fn is None or ev.functions.overloads(node.name):
                return None
            stack += [(a, fn.kind == "structural") for a in node.args]
        elif node is not None:
            stack += [(c, False) for c in iter_child_nodes(node)]
    return reads


def _index_nodes(wl: WithLoop, reads: dict[str, bool]) -> list[int]:
    """The ids of the selection indices in ``wl``'s body, outside nested
    loops, that a kept view decides: literals and vector literals over
    the index variable and the names the head is keyed on by value,
    combined by ``+ - * /`` and unary minus."""
    names = {wl.generator.var} | {n for n, shape_only in reads.items()
                                  if not shape_only}

    def decided(node) -> bool:
        if isinstance(node, Var):
            return node.name in names
        if isinstance(node, BinOp):
            return node.op in ("+", "-", "*", "/") and decided(node.left) \
                and decided(node.right)
        if isinstance(node, UnOp):
            return node.op == "-" and decided(node.operand)
        if isinstance(node, VectorLit):
            return all(map(decided, node.elements))
        return isinstance(node, IntLit)

    ids, stack = [], [wl.operation.body]
    while stack:
        node = stack.pop()
        if isinstance(node, Select) and decided(node.index):
            ids.append(id(node.index))
        if not isinstance(node, WithLoop):
            stack += iter_child_nodes(node)
    return ids


def _head_key(env, reads: dict[str, bool], frame_shape) -> tuple | None:
    """What a head's value depends on in ``env``: the frame's shape and,
    per name it reads, the array's shape or the scalar's or small
    vector's value.  None when a name holds anything else (a large
    array read by value, a value per point) or is unbound."""
    key = [frame_shape]
    for name, shape_only in reads.items():
        v = env.lookup(name) if env.contains(name) else None
        if type(v) in (int, float, bool):
            key.append((type(v), repr(v)))
        elif not isinstance(v, np.ndarray):
            return None
        elif shape_only:
            key.append(v.shape)
        elif v.ndim == 1 and v.size <= _SMALL_VECTOR:
            key.append((v.dtype.str, v.tobytes()))
        else:
            return None
    return tuple(key)


def _inside_vectorized_body(env) -> bool:
    """Whether ``env`` binds a per-point value of an enclosing vectorized
    WITH-loop.  A nested space of the same size would pair its points
    with the outer ones instead of crossing them, so such a loop runs
    per index (each step still vectorized over the outer space)."""
    while env is not None:
        if any_abstract(env.bindings.values()):
            return True
        env = env.parent
    return False


def eval_withloop(interp, env, wl: WithLoop):
    """Evaluate a WITH-loop expression in ``env``."""
    space, shp, base, body_env = withloop_head(interp, env, wl)
    if (interp.vectorize and body_env is not None
            and not _inside_vectorized_body(env)):
        try:
            return _eval_vectorized(interp, env, body_env, wl.operation,
                                    space, shp, base)
        except AbstractUnsupported:
            pass
    return _eval_scalar(interp, env, wl, space, shp, base)
