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

from functools import lru_cache

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

    The face index tuples are worked out once per ``(ndim, axes)``.  A
    Dirichlet face is computed straight into the ghost face (``out=``);
    a copied face is one assignment (``np.copyto`` is the same copy,
    three times slower per call on small grids).
    """
    faces = _faces(u.ndim, None if axes is None else tuple(axes))
    if kind == "periodic":
        for lo, hi, in_lo, in_hi in faces:
            u[lo] = u[in_hi]
            u[hi] = u[in_lo]
    elif kind == "dirichlet":
        for lo, hi, in_lo, in_hi in faces:
            np.subtract(2.0 * value, u[in_lo], out=u[lo])
            np.subtract(2.0 * value, u[in_hi], out=u[hi])
    elif kind == "neumann":
        for lo, hi, in_lo, in_hi in faces:
            u[lo] = u[in_lo]
            u[hi] = u[in_hi]
    else:
        raise ValueError(f"unknown boundary kind {kind!r} "
                         "(choose periodic, dirichlet or neumann)")
    return u


@lru_cache(maxsize=64)
def _faces(ndim: int, axes: tuple[int, ...] | None
           ) -> tuple[tuple[tuple, ...], ...]:
    """Per axis filled, in fill order: the index tuples of its low and
    high ghost faces and of the interior faces next to them (one-plane
    slices, so a face of a rank-1 array is a view too)."""
    faces = []
    for axis in range(ndim - 1, -1, -1) if axes is None else axes:
        at = []
        for face in (slice(0, 1), slice(-1, None), slice(1, 2),
                     slice(-2, -1)):
            index = [slice(None)] * ndim
            index[axis] = face
            at.append(tuple(index))
        faces.append(tuple(at))
    return tuple(faces)


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
