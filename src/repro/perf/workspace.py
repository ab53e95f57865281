"""Per-level scratch-buffer pool for the allocation-free hot path.

The paper's §5 attributes SAC's residual performance gap to memory
management whose per-operation cost is *invariant against grid sizes*:
every WITH-loop result is a fresh reference-counted array, so the small
grids at the bottom of the V-cycle pay proportionally more.  The NPB
reference codes avoid the issue entirely with a static workspace layout
— every temporary lives in a preallocated buffer reused across
iterations.

:class:`Workspace` gives the NumPy solvers that static layout: a keyed
pool of scratch arrays, one buffer per ``(name, shape, dtype)`` key,
handed out by :meth:`get`/:meth:`zeros` and reused on every subsequent
request.  Shapes differ per V-cycle level, so keying by shape
yields exactly one set of extended-grid scratch arrays per level; the
threaded chunk kernels take disjoint plane-range views of those
level-wide buffers, so the footprint does not depend on the partition.

The same §5 argument applies to the Python set-up a kernel pays per
call (block split, slices, scratch requests): it does not shrink with
the grid.  :meth:`plan` memoises that set-up per key — a kernel body's
``(op, operand shapes, range, block length)`` — next to the buffers
its views point into, so a warm pooled solve asks the pool only for
the grids it returns (33 requests at class S, 401 at W) and
:meth:`clear` drops plans and buffers together.

The pool counts its misses, hits and bytes under the lock that guards
the buffers.  The steady-state claim the benchmarks assert is: after
the first V-cycle iteration warms the pool, :attr:`allocations` stops
growing and :meth:`buffers_by_shape` is constant — the timed section
performs zero heap allocations of extended-grid temporaries.

Buffer contents are *undefined* on reuse: :meth:`get` callers must
fully overwrite the buffer (the in-place kernels do — every first ufunc
into a scratch buffer is a full write), :meth:`zeros` clears it first.
Arrays returned by a pooled solve (e.g. ``MGResult.r``) may reference
pool buffers; reusing the workspace for another solve overwrites them.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Any, Callable, Hashable, TypeVar

import numpy as np

__all__ = ["Workspace", "WorkspaceCounters"]

_T = TypeVar("_T")

#: Pooled buffers start on a page boundary: ``np.empty`` promises only 16
#: bytes, so a 64-byte vector access to one could span two cache lines.
_PAGE = 4096


@dataclass(frozen=True)
class WorkspaceCounters:
    """Point-in-time snapshot of a workspace's accounting."""

    #: Pool misses — real heap allocations performed so far.
    allocations: int
    #: Pool hits — requests served by reusing an existing buffer.
    hits: int
    #: Total bytes ever allocated (the pool never frees until clear()).
    bytes_allocated: int
    #: Buffers currently live in the pool.
    live_buffers: int


class Workspace:
    """Thread-safe keyed pool of reusable NumPy scratch arrays."""

    def __init__(self, label: str = "workspace"):
        self.label = label
        self._buffers: dict[tuple, np.ndarray] = {}
        self._plans: dict[Hashable, Any] = {}
        self._lock = threading.Lock()
        self._allocations = 0
        self._hits = 0
        self._bytes = 0

    # -- pool interface -----------------------------------------------------

    def get(self, name: str, shape: tuple[int, ...],
            dtype=np.float64) -> np.ndarray:
        """Return the buffer for ``(name, shape, dtype)``.

        Allocates on first request, reuses afterwards.  Contents are
        undefined on reuse — the caller must fully overwrite them.  The
        buffer is a C-contiguous view that starts on a page boundary of
        a padded block its ``.base`` keeps alive.
        """
        key = (name, tuple(shape), np.dtype(dtype).str)
        with self._lock:
            buf = self._buffers.get(key)
            if buf is not None:
                self._hits += 1
                return buf
            nbytes = np.dtype(dtype).itemsize * math.prod(shape)
            raw = np.empty(nbytes + _PAGE, np.uint8)
            start = -raw.ctypes.data % _PAGE
            buf = raw[start:][:nbytes].view(dtype).reshape(shape)
            self._buffers[key] = buf
            self._allocations += 1
            self._bytes += nbytes
            return buf

    def zeros(self, name: str, shape: tuple[int, ...],
              dtype=np.float64) -> np.ndarray:
        """Like :meth:`get`, but the buffer is zero-filled before return."""
        buf = self.get(name, shape, dtype)
        buf.fill(0.0)
        return buf

    def plan(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """The memoised ``build()`` for ``key``: built on the first call,
        the same object on every later one.

        A plan is what a kernel body works out from shapes alone (block
        split, slices, views of this pool's buffers), so it lives and
        dies with the buffers it views.  It is not a buffer: no counter
        or :meth:`buffers_by_shape` sees it, and a hit is not a request.
        ``build`` may call :meth:`get`; threads racing on a cold key may
        each build one, and the first stored is kept.
        """
        plan = self._plans.get(key)
        if plan is None:
            plan = build()
            with self._lock:
                plan = self._plans.setdefault(key, plan)
        return plan

    def clear(self) -> None:
        """Drop every pooled buffer and every plan that views them."""
        with self._lock:
            self._buffers.clear()
            self._plans.clear()

    # -- accounting ---------------------------------------------------------

    @property
    def allocations(self) -> int:
        """Pool misses so far — real heap allocations performed."""
        return self._allocations

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def bytes_allocated(self) -> int:
        return self._bytes

    @property
    def live_buffers(self) -> int:
        return len(self._buffers)

    def buffers_by_shape(self) -> dict[tuple[int, ...], int]:
        """Live buffer count per array shape (per V-cycle level, since
        levels have distinct extended shapes)."""
        out: dict[tuple[int, ...], int] = {}
        with self._lock:
            for _, shape, _ in self._buffers:
                out[shape] = out.get(shape, 0) + 1
        return out

    def counters(self) -> WorkspaceCounters:
        return WorkspaceCounters(
            allocations=self.allocations,
            hits=self.hits,
            bytes_allocated=self.bytes_allocated,
            live_buffers=self.live_buffers,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Workspace({self.label!r}, buffers={self.live_buffers}, "
                f"allocs={self.allocations}, hits={self.hits}, "
                f"bytes={self.bytes_allocated})")
