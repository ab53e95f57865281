"""Extended-grid representation with periodic ghost layers.

NPB MG stores every grid level as an array of shape ``(m+2, m+2, m+2)``
where ``m`` is the number of owned points per dimension.  The outermost
layer holds *artificial boundary elements* replicating the opposite face
(the technique illustrated in the paper's Fig. 5), so that all stencil
operators become plain fixed-boundary relaxations on the interior.

Axis convention: arrays are C-ordered and indexed ``[i3, i2, i1]`` so the
Fortran fastest-varying index ``i1`` maps to the contiguous last axis.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "make_grid",
    "make_extended",
    "zero3",
    "interior",
    "comm3",
    "ghost_fill",
    "setup_periodic_border",
    "grid_levels",
    "level_shape",
]


def make_grid(m: int, dtype=np.float64) -> np.ndarray:
    """Allocate a zeroed extended grid with ``m`` owned points per dim."""
    if m < 2:
        raise ValueError(f"grid interior must be >= 2 points, got {m}")
    n = m + 2
    return np.zeros((n, n, n), dtype=dtype)


def zero3(u: np.ndarray) -> None:
    """Clear a grid in place (NPB ``zero3``)."""
    u[...] = 0.0


def interior(u: np.ndarray) -> np.ndarray:
    """View of the owned points (everything but the ghost layers)."""
    return u[1:-1, 1:-1, 1:-1]


def comm3(u: np.ndarray) -> np.ndarray:
    """Refresh the periodic ghost layers in place (NPB ``comm3``):
    :func:`ghost_fill` with its default periodic contract.

    Sequential full-face copies along axes x, y, z.  Later copies pick up
    ghost values written by earlier ones, which reproduces the corner and
    edge values of the Fortran loop nest exactly.

    Returns ``u`` for call chaining.
    """
    return ghost_fill(u)


def make_extended(m: int, ndim: int = 3, dtype=np.float64) -> np.ndarray:
    """Allocate a zeroed rank-``ndim`` extended grid (``m`` owned points
    per dimension plus one ghost layer per face)."""
    if m < 2:
        raise ValueError(f"grid interior must be >= 2 points, got {m}")
    if ndim < 1:
        raise ValueError(f"grid rank must be >= 1, got {ndim}")
    return np.zeros((m + 2,) * ndim, dtype=dtype)


def ghost_fill(u: np.ndarray, kind: str = "periodic",
               value: float = 0.0, axes=None) -> np.ndarray:
    """Refresh the ghost layers of an extended array in place.

    Rank-polymorphic generalisation of :func:`comm3`, dispatching on the
    boundary ``kind``:

    ``"periodic"``
        ghost faces replicate the opposite interior face (exactly
        :func:`comm3` on rank-3 arrays, including corner semantics).
    ``"dirichlet"``
        cell-centred physical boundary: the ghost cell mirrors the
        adjacent interior cell through the boundary value so that
        ``(ghost + interior) / 2 == value`` on the face.
    ``"neumann"``
        zero-flux mirror: the ghost cell copies the adjacent interior
        cell, so the normal difference across the face vanishes.

    Faces are filled sequentially per axis (last axis first, matching
    ``comm3``); later axes read ghost values written by earlier ones,
    which fixes the edge/corner semantics.  ``axes`` restricts the fill
    to those axes, in the order given (an SPMD slab fills x and y
    locally and exchanges z).  Returns ``u`` for chaining.
    """
    nd = u.ndim
    for axis in range(nd - 1, -1, -1) if axes is None else axes:
        lo = [slice(None)] * nd
        hi = [slice(None)] * nd
        in_lo = [slice(None)] * nd
        in_hi = [slice(None)] * nd
        lo[axis] = 0
        hi[axis] = -1
        in_lo[axis] = 1
        in_hi[axis] = -2
        if kind == "periodic":
            u[tuple(lo)] = u[tuple(in_hi)]
            u[tuple(hi)] = u[tuple(in_lo)]
        elif kind == "dirichlet":
            u[tuple(lo)] = 2.0 * value - u[tuple(in_lo)]
            u[tuple(hi)] = 2.0 * value - u[tuple(in_hi)]
        elif kind == "neumann":
            u[tuple(lo)] = u[tuple(in_lo)]
            u[tuple(hi)] = u[tuple(in_hi)]
        else:
            raise ValueError(f"unknown boundary kind {kind!r} "
                             "(choose periodic, dirichlet or neumann)")
    return u


def setup_periodic_border(u: np.ndarray) -> np.ndarray:
    """Pure-functional spelling of :func:`comm3` (paper's
    ``SetupPeriodicBorder``): returns a new array, input untouched."""
    return comm3(u.copy())


def level_shape(k: int) -> tuple[int, int, int]:
    """Extended-array shape of multigrid level ``k`` (owned size ``2**k``)."""
    if k < 1:
        raise ValueError(f"multigrid level must be >= 1, got {k}")
    n = (1 << k) + 2
    return (n, n, n)


def grid_levels(lt: int) -> list[tuple[int, int, int]]:
    """Shapes of levels ``1..lt`` (coarsest first), as NPB lays them out."""
    return [level_shape(k) for k in range(1, lt + 1)]
