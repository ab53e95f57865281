"""Runtime values of the SAC interpreter.

Concrete values are plain Python scalars (``int``/``float``/``bool``) and
NumPy arrays (``int64``/``float64``/``bool_``), treated as immutable
(value semantics: no SAC operation ever mutates an existing array).

The module also defines the *abstract* values used by the vectorizing
WITH-loop evaluator (:mod:`repro.sac.withloop`):

* :class:`SpaceValue` — "a value per iteration point": a NumPy array of
  shape ``space_dims + cell_shape`` where ``space_dims`` is the shape of
  the WITH-loop's index space and ``cell_shape`` the shape of each
  per-point value (``()`` for scalars).
* :class:`IndexView` — the index variable itself, kept in *affine* form
  (per-axis ``offset + stride * grid``) as long as possible so that
  selections ``a[iv + c]`` lower to basic NumPy slices instead of
  gathers.

When an operation falls outside the abstract domain the evaluator raises
:class:`AbstractUnsupported` and the WITH-loop falls back to an exact
per-index loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SacRuntimeError, SacTypeError
from .sactypes import BOOL, DOUBLE, INT, BaseType, SacType

__all__ = [
    "Value",
    "any_abstract",
    "value_type",
    "coerce_value",
    "is_int_vector",
    "as_index_vector",
    "AbstractUnsupported",
    "SpaceValue",
    "raw",
    "IndexView",
    "AffineAxis",
]

#: Concrete SAC values as Python objects.
Value = object


#: The one dtype -> base type table: concrete arrays, per-point cells of
#: a :class:`SpaceValue` and the code generator's traced arrays all
#: classify through it.
_BASE_OF_DTYPE = {
    np.dtype(np.float64): BaseType.DOUBLE,
    np.dtype(np.int64): BaseType.INT,
    np.dtype(np.bool_): BaseType.BOOL,
}


def _base_of(dtype) -> BaseType:
    base = _BASE_OF_DTYPE.get(dtype)
    if base is None:
        raise SacTypeError(f"unsupported array dtype {dtype}")
    return base


def cell_type(dtype, shape: tuple[int, ...]) -> SacType:
    """Overload-dispatch type of one cell of this dtype and shape (a
    ``()`` cell dispatches as a scalar)."""
    if shape == ():
        return SacType.scalar(_base_of(dtype))
    return SacType.aks(_base_of(dtype), shape)


def value_type(v) -> SacType:
    """The concrete SacType of a runtime value."""
    if isinstance(v, bool):
        return BOOL
    if isinstance(v, (int, np.integer)):
        return INT
    if isinstance(v, (float, np.floating)):
        return DOUBLE
    if isinstance(v, np.ndarray):
        return SacType.aks(_base_of(v.dtype), v.shape)
    raise SacTypeError(f"not a SAC value: {type(v).__name__}")


def coerce_value(v):
    """Normalize NumPy scalars to Python scalars; pass arrays through."""
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.ndarray) and v.ndim == 0:
        return coerce_value(v[()])
    return v


def dtype_of(value) -> np.dtype:
    """The NumPy dtype a concrete value stores as."""
    if isinstance(value, bool):
        return np.dtype(np.bool_)
    if isinstance(value, int):
        return np.dtype(np.int64)
    if isinstance(value, float):
        return np.dtype(np.float64)
    return np.asarray(value).dtype


def is_int_vector(v) -> bool:
    return isinstance(v, np.ndarray) and v.ndim == 1 and v.dtype == np.int64


def as_index_vector(v, rank_hint: int | None = None) -> np.ndarray:
    """Coerce scalars / int vectors to an index vector.

    Scalars replicate to ``rank_hint`` components (the syntactic shortcut
    the paper describes for generator bounds).
    """
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        if rank_hint is None:
            raise SacRuntimeError(
                "scalar index bound used where the rank is unknown"
            )
        return np.full(rank_hint, int(v), dtype=np.int64)
    if is_int_vector(v):
        return v
    raise SacTypeError(f"expected an int vector, got {value_type(v)}")


# ---------------------------------------------------------------------------
# Abstract (vectorized) values.
# ---------------------------------------------------------------------------


class AbstractUnsupported(Exception):
    """The abstract evaluator cannot handle this operation; fall back."""


@dataclass(frozen=True)
class AffineAxis:
    """One component of an affine index: ``offset + stride * g`` with
    ``g`` running over ``0..count-1`` on its own grid axis."""

    offset: int
    stride: int
    count: int

    def values(self) -> np.ndarray:
        return self.offset + self.stride * np.arange(self.count, dtype=np.int64)

    def add(self, k: int) -> "AffineAxis":
        return AffineAxis(self.offset + k, self.stride, self.count)

    def mul(self, k: int) -> "AffineAxis":
        return AffineAxis(self.offset * k, self.stride * k, self.count)

    def floordiv(self, k: int) -> "AffineAxis":
        """Exact division: only valid when offset and stride are multiples
        of ``k`` (then floor division is affine)."""
        if k <= 0 or self.offset % k or self.stride % k:
            raise AbstractUnsupported("non-affine index division")
        return AffineAxis(self.offset // k, self.stride // k, self.count)

    def as_slice(self, extent: int) -> slice:
        """Basic-indexing slice selecting these positions along an axis of
        the given extent (requires positive stride and in-bounds range)."""
        if self.stride <= 0:
            raise AbstractUnsupported("non-positive index stride")
        last = self.offset + self.stride * (self.count - 1)
        if self.offset < 0 or last >= extent:
            raise AbstractUnsupported("index range out of bounds for slicing")
        return slice(self.offset, last + 1, self.stride)


class SpaceValue:
    """A value for every point of a WITH-loop index space."""

    __slots__ = ("data", "space_ndim")

    def __init__(self, data: np.ndarray, space_ndim: int):
        self.data = data
        self.space_ndim = space_ndim

    @property
    def space_dims(self) -> tuple[int, ...]:
        return self.data.shape[: self.space_ndim]

    @property
    def cell_shape(self) -> tuple[int, ...]:
        return self.data.shape[self.space_ndim :]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpaceValue(space={self.space_dims}, cell={self.cell_shape})"


def raw(v):
    """A per-point value's data, space axes first; any other value
    itself."""
    return v.data if isinstance(v, SpaceValue) else v


class IndexView:
    """The WITH-loop index variable in affine form.

    Component ``j`` of the index vector equals
    ``axes[j].offset + axes[j].stride * g_j`` where ``g_j`` is the grid
    coordinate along space axis ``j``.  Materializes lazily to a
    :class:`SpaceValue` with cell shape ``(n,)`` when affine form cannot
    express an operation.
    """

    __slots__ = ("axes", "memo")

    def __init__(self, axes: tuple[AffineAxis, ...]):
        self.axes = axes
        #: What a kept view has worked out, None for any other view: by
        #: node id, an index subexpression's view; by array shape, the
        #: slices of a selection (``withloop.withloop_head``).
        self.memo: dict | None = None

    @property
    def rank(self) -> int:
        return len(self.axes)

    @property
    def space_dims(self) -> tuple[int, ...]:
        return tuple(ax.count for ax in self.axes)

    def materialize(self) -> SpaceValue:
        n = self.rank
        dims = self.space_dims
        data = np.empty(dims + (n,), dtype=np.int64)
        for j, ax in enumerate(self.axes):
            shape = [1] * n
            shape[j] = ax.count
            data[..., j] = ax.values().reshape(shape)
        return SpaceValue(data, n)

    def slices(self, shape: tuple[int, ...]) -> tuple[slice, ...]:
        """Basic-indexing slices selecting these points from an array of
        ``shape``, whole cells along its axes past the view's rank."""
        return tuple(ax.as_slice(ext) for ax, ext in zip(self.axes, shape)) \
            + (slice(None),) * (len(shape) - self.rank)

    # -- affine arithmetic --------------------------------------------------

    def _per_component(self, other) -> list[int] | None:
        """Interpret ``other`` as one integer per component, else None."""
        other = coerce_value(other)
        if isinstance(other, bool):
            return None
        if isinstance(other, int):
            return [other] * self.rank
        if is_int_vector(other) and other.shape[0] == self.rank:
            return [int(x) for x in other]
        return None

    def add(self, other, negate_self: bool = False):
        ks = self._per_component(other)
        if ks is None or negate_self:
            raise AbstractUnsupported("non-affine index addition")
        return IndexView(tuple(ax.add(k) for ax, k in zip(self.axes, ks)))

    def sub(self, other):
        ks = self._per_component(other)
        if ks is None:
            raise AbstractUnsupported("non-affine index subtraction")
        return IndexView(tuple(ax.add(-k) for ax, k in zip(self.axes, ks)))

    def mul(self, other):
        ks = self._per_component(other)
        if ks is None:
            raise AbstractUnsupported("non-affine index scaling")
        return IndexView(tuple(ax.mul(k) for ax, k in zip(self.axes, ks)))

    def floordiv(self, other):
        ks = self._per_component(other)
        if ks is None:
            raise AbstractUnsupported("non-affine index division")
        return IndexView(tuple(ax.floordiv(k) for ax, k in zip(self.axes, ks)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IndexView({self.axes})"


def any_abstract(values) -> bool:
    """Whether any value is per-point: the index variable, or something
    computed from it, inside a WITH-loop body."""
    return any(isinstance(v, (IndexView, SpaceValue)) for v in values)
