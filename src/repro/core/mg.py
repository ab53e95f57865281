"""The NAS MG V-cycle multigrid solver (reference core).

This is the verified reference implementation the rest of the repository
is checked against.  It follows the NPB 2.3 serial ``mg.f`` control flow
exactly (``mg3P``, ``resid``, ``psinv``, ``rprj3``, ``interp``) while
using vectorized NumPy kernels; the paper's high-level formulation
(SetupPeriodicBorder + generic RelaxKernel + condense/scatter/embed/take)
is the SAC program ``mg_sac/mg.sac``, compiled by :mod:`repro.sac` and
equivalence-tested against this module.

Two things are written here once and nowhere else:

* **the arithmetic** — one plane-range body per operator
  (:func:`resid_chunk`, :func:`psinv_chunk`, :func:`rprj3_chunk`,
  :func:`interp_chunk`), run over the range it is given in the
  consecutive cache blocks of :func:`plane_blocks`, :func:`block_planes`
  planes long, that share one block-sized scratch — a length computed
  from the array shapes, so a small grid is one block and every caller
  (``repro.pde``'s face operator too) gets the same blocking.
  The two 27-point sweeps (``resid``, ``psinv``) run each block as one
  contiguous range of the raveled grid (:func:`flat_interior`), every
  term a 1-D slice at a neighbour's offset, so no ufunc pays NumPy's
  per-row iterator step; the stride-2 transfers keep 3-D bodies.
  Everything a body works out from shapes alone — the split, the flat
  ranges, the slices, the scratch views — is its *plan*, built once per
  ``(op, operand shapes, range, block length)`` and kept on the
  :class:`~repro.perf.workspace.Workspace` whose buffers it views
  (:func:`_plan`; without a workspace it is built on every call), so a
  call on a coarse grid pays for its ufuncs and little else.  The
  serial kernels are the full-range call plus a ghost fill; the
  threaded runtime forks the same bodies over plane ranges and the SPMD
  runtime hands them one z-slab per rank;
* **the schedule** — :func:`correction` (project down, smooth the
  coarsest grid, interpolate / residual / smooth back up),
  :func:`vcycle` and the benchmark loop :func:`run`, written over an
  :class:`MGKernels` table.  Serial, the comparison styles, threaded and
  SPMD are tables; workspace, halo refresh and timing are bound when a
  table is built, not threaded through the schedule.

The class vectors are NPB's (:mod:`repro.core.stencils`), the ghost
contract periodic; the solver-family members of :mod:`repro.pde` run on
their own cell-centred solver and pass nothing in here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from math import prod
from typing import Callable

import numpy as np

from .classes import SizeClass, get_class
from .grid import comm3, make_grid
from .norms import norm2u3
from .stencils import (A_COEFFS, P_COEFFS, Q_COEFFS, S_COEFFS_A, S_COEFFS_B,
                       _scratch)
from .zran3 import zran3

__all__ = [
    "resid_chunk",
    "psinv_chunk",
    "rprj3_chunk",
    "interp_chunk",
    "block_planes",
    "plane_blocks",
    "flat_interior",
    "resid",
    "psinv",
    "rprj3",
    "interp_add",
    "MGKernels",
    "numpy_kernels",
    "timed_kernels",
    "correction",
    "vcycle",
    "mg3P",
    "MGResult",
    "checked_rhs",
    "run",
    "solve",
    "synthesize_mg_trace",
]


# The interior along one axis.
_C = slice(1, -1)


def _planes(ws, name: str, planes: int, tail: tuple[int, ...],
            z0: int, z1: int) -> np.ndarray:
    """Uninitialized scratch for planes ``[z0, z1)`` of a level; a body
    reads no position of it that it has not written.

    With a :class:`~repro.perf.workspace.Workspace` this is a
    plane-range view of one pooled ``(planes, *tail)`` buffer: disjoint
    chunks get disjoint memory, and the pool's footprint is the same for
    every partition and team size.  A chunk asks for the first
    block's worth of its own range and reuses it for every block.
    """
    if ws is None:
        return np.empty((z1 - z0,) + tail)
    return ws.get(name, (planes,) + tail)[z0:z1]


def _plan(ws, key: tuple, build: Callable[[], tuple]) -> tuple:
    """A blocked body's per-call set-up: ``build()`` memoised on the
    workspace under ``key`` (``(op, operand shapes, range, block
    length)``), built afresh on every call without one.

    A plan holds only what the shapes decide — the split, flat ranges,
    slices and the scratch views of :func:`_planes` — never an operand;
    the block length is in the key, so a forced :func:`block_planes`
    (or a patched ``_BLOCK_BYTES``) gets a plan of its own."""
    return build() if ws is None else ws.plan(key, build)


def _floats(c) -> tuple:
    """A coefficient vector as the tuple the bodies index: a tuple (NPB's
    class vectors are tuples of floats) passes through as it is, any
    other sequence becomes a tuple of floats."""
    return c if type(c) is tuple else tuple(float(x) for x in c)


#: Bytes one cache block of an operator body may touch: a per-core L2
#: (the measured plateau, docs/PERF.md "Cache blocking").
_BLOCK_BYTES = 2 << 20


def block_planes(bytes_per_plane: int) -> int:
    """Planes per cache block for a body that touches ``bytes_per_plane``
    (operand planes plus scratch planes) per output plane.

    A pure function of the array shapes: small grids come out as one
    block, a class-W stencil as blocks of a few planes whose operands
    and block-local scratch stay in L2 across the body's ~16 ufunc
    passes instead of streaming every whole-range pass through L3.
    """
    return max(1, _BLOCK_BYTES // bytes_per_plane)


@lru_cache(maxsize=1024)
def plane_blocks(z0: int, z1: int,
                 planes: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Planes ``[z0, z1)`` cut into ``ceil(n / planes)`` consecutive
    blocks ``(lo, hi)`` whose lengths differ by at most one, and the
    longest length (what a block's scratch is sized for).  The one
    split every blocked body runs; ``planes`` is a
    :func:`block_planes` result."""
    n = z1 - z0
    if n <= 0:
        return 0, ()
    nblk = -(-n // planes)
    return -(-n // nblk), tuple(
        (z0 + i * n // nblk, z0 + (i + 1) * n // nblk) for i in range(nblk))


@lru_cache(maxsize=1024)
def flat_interior(shape: tuple[int, ...], lo: int,
                  hi: int) -> tuple[int, int]:
    """The flat range ``[k0, k1)`` of a C-ordered grid of extended shape
    ``shape`` (any rank) that runs from the first interior point of
    interior plane ``lo``, ``(lo+1, 1, ..., 1)``, to the last of plane
    ``hi - 1``, ``(hi, n_1-2, ..., n_r-2)``; interior plane ``p`` lives
    at extended index ``p + 1``.  ``shape[0]`` is not read, so a z-slab
    gets the same range as the whole grid."""
    first = last = 0
    for n in shape[1:]:
        first, last = first * n + 1, last * n + n - 2
    plane = prod(shape[1:])
    return (lo + 1) * plane + first, hi * plane + last + 1


# ---------------------------------------------------------------------------
# The arithmetic: one plane-range body per operator.
# ---------------------------------------------------------------------------

def _flat(grid: np.ndarray, written: bool = False) -> np.ndarray:
    """``grid`` raveled: a view of a C-contiguous grid, else a copy —
    right for an operand that is only read.  A grid the sweep writes
    must be C-contiguous (``ValueError``): raveling it must not cost a
    whole-grid copy per call, which pooled solves run without."""
    if written and not grid.flags.c_contiguous:
        raise ValueError("a 27-point sweep writes a C-contiguous grid; "
                         f"got strides {grid.strides}")
    return grid.reshape(-1)


def _plane_sums_into(uf: np.ndarray, at: tuple[slice, ...],
                     u1: np.ndarray, u2: np.ndarray) -> None:
    """NPB's shared auxiliary buffers over the flat range ``[k0 - 1,
    k1 + 1)`` of the raveled grid ``uf``.

    ``u1(i1) = u(i1,i2-1,i3) + u(i1,i2+1,i3) + u(i1,i2,i3-1) + u(i1,i2,i3+1)``
    ``u2(i1) = u(i1,i2-1,i3-1) + u(i1,i2+1,i3-1) + u(i1,i2-1,i3+1) + u(i1,i2+1,i3+1)``

    ``at`` holds the eight terms, in that order, as the range moved by
    a neighbour's offset (``i2 +- 1`` is ``+-n1``, ``i3 +- 1`` is
    ``+-n2*n1``).  Built with in-place adds in exactly the left-to-right
    order of the Fortran source, term by term, so the whole solver stays
    bit-reproducible against NPB 2.3.
    """
    np.add(uf[at[0]], uf[at[1]], out=u1)
    np.add(u1, uf[at[2]], out=u1)
    np.add(u1, uf[at[3]], out=u1)
    np.add(uf[at[4]], uf[at[5]], out=u2)
    np.add(u2, uf[at[6]], out=u2)
    np.add(u2, uf[at[7]], out=u2)


def _stencil_setup(op: str, u: np.ndarray, z0: int, z1: int, ws,
                   grids: int) -> tuple:
    """The plan of a 27-point sweep over interior planes ``[z0, z1)`` of
    (a z-slab of) ``u``; ``grids`` counts the grids the sweep reads or
    writes one plane of per output plane (the block length is looked up
    here, on every call)."""
    planes = block_planes(8 * (grids + 4) * u.shape[1] * u.shape[2])
    return _plan(ws, (op, u.shape, z0, z1, planes),
                 lambda: _stencil_plan(u.shape, z0, z1, ws, planes))


def _stencil_plan(shape: tuple[int, ...], z0: int, z1: int, ws,
                  planes: int) -> tuple:
    """Per cache block of a 27-point sweep: one flat range ``[k0, k1)``
    of the raveled grid, from the block's first interior point
    ``(lo+1, 1, 1)`` to its last ``(hi, n2-2, n1-2)`` (interior plane
    ``p`` lives at extended index ``p + 1``), as

    * the eight neighbour slices of :func:`_plane_sums_into`, over
      ``[k0 - 1, k1 + 1)``;
    * the range moved by ``-1``, ``0`` and ``+1``;
    * the ``u1`` and ``u2`` buffers over ``[k0 - 1, k1 + 1)``, each with
      its views at ``-1``, ``0`` and ``+1`` over ``[k0, k1)``;
    * ``acc`` and ``tmp`` over ``[k0, k1)``;
    * the block's interior as an index of the extended grid, and the
      same interior of the plane-shaped buffer that ``acc`` is a flat
      range of.

    The range also covers the x/y ghost positions between interior
    rows: they are computed like any point, never stored.  The four
    buffers are whole planes too.
    """
    m, n2, n1 = shape[0] - 2, shape[1], shape[2]
    plane = n2 * n1
    nb, split = plane_blocks(z0, z1, planes)
    bufs = [_planes(ws, name, m, (n2, n1), z0, z0 + nb)
            for name in ("mg.u1", "mg.u2", "mg.acc", "mg.tmp")]
    u1, u2, acc, tmp = (b.reshape(-1) for b in bufs)
    blocks = []
    for lo, hi in split:
        k0, k1 = flat_interior(shape, lo, hi)
        size = k1 - k0
        at = tuple(slice(k0 - 1 + off, k1 + 1 + off) for off in (
            -n1, n1, -plane, plane,
            -plane - n1, -plane + n1, plane - n1, plane + n1))
        b1, b2 = u1[:size + 2], u2[:size + 2]
        blocks.append((
            at, (slice(k0 - 1, k1 - 1), slice(k0, k1), slice(k0 + 1, k1 + 1)),
            (b1, b1[:-2], b1[1:-1], b1[2:]), (b2, b2[:-2], b2[1:-1], b2[2:]),
            acc[n1 + 1:n1 + 1 + size], tmp[:size],
            (slice(lo + 1, hi + 1), _C, _C), bufs[2][:hi - lo, 1:-1, 1:-1]))
    return tuple(blocks)


def resid_chunk(u: np.ndarray, v: np.ndarray, a, r: np.ndarray,
                z0: int, z1: int, ws=None) -> None:
    """``r = v - A u`` on interior planes ``[z0, z1)``; ``r``'s ghost
    cells are not touched.

    For the NPB operator (``a1 == 0``) this reproduces the Fortran
    ``resid`` bit for bit, including its omission of the zero
    coefficient.  ``r`` may alias ``v`` (NPB updates ``r`` in place):
    each block reads its own planes of ``v`` once, before writing them.
    ``r`` must be C-contiguous (else ``ValueError``).
    """
    a = _floats(a)
    uf, vf = _flat(u), _flat(v)
    _flat(r, written=True)
    # u, v and r are the grids a block reads or writes a plane of.
    for (at, (m, c, p), (u1, u1m, u1c, u1p), (u2, u2m, u2c, u2p), acc, tmp,
         out, interior) in _stencil_setup("resid", u, z0, z1, ws, 3):
        _plane_sums_into(uf, at, u1, u2)
        np.multiply(uf[c], a[0], out=tmp)
        np.subtract(vf[c], tmp, out=acc)
        if a[1] != 0.0:
            np.add(uf[m], uf[p], out=tmp)
            np.add(tmp, u1c, out=tmp)
            np.multiply(tmp, a[1], out=tmp)
            np.subtract(acc, tmp, out=acc)
        np.add(u2c, u1m, out=tmp)
        np.add(tmp, u1p, out=tmp)
        np.multiply(tmp, a[2], out=tmp)
        np.subtract(acc, tmp, out=acc)
        np.add(u2m, u2p, out=tmp)
        np.multiply(tmp, a[3], out=tmp)
        np.subtract(acc, tmp, out=acc)
        r[out] = interior


def psinv_chunk(r: np.ndarray, u: np.ndarray, c,
                z0: int, z1: int, ws=None) -> None:
    """``u += S r`` on interior planes ``[z0, z1)``; ``u``'s ghost cells
    are not touched.

    Bit-exact against NPB's ``psinv`` for its coefficient sets
    (``c3 == 0``); the ``c3`` term is included for generic stencils.
    ``u`` must be C-contiguous (else ``ValueError``).
    """
    c = _floats(c)
    rf, uf = _flat(r), _flat(u, written=True)
    for (at, (m, k, p), (r1, r1m, r1c, r1p), (r2, r2m, r2c, r2p), acc, tmp,
         out, interior) in _stencil_setup("psinv", r, z0, z1, ws, 2):
        _plane_sums_into(rf, at, r1, r2)
        np.multiply(rf[k], c[0], out=tmp)
        np.add(uf[k], tmp, out=acc)
        np.add(rf[m], rf[p], out=tmp)
        np.add(tmp, r1c, out=tmp)
        np.multiply(tmp, c[1], out=tmp)
        np.add(acc, tmp, out=acc)
        np.add(r2c, r1m, out=tmp)
        np.add(tmp, r1p, out=tmp)
        np.multiply(tmp, c[2], out=tmp)
        np.add(acc, tmp, out=acc)
        if c[3] != 0.0:
            np.add(r2m, r2p, out=tmp)
            np.multiply(tmp, c[3], out=tmp)
            np.add(acc, tmp, out=acc)
        u[out] = interior


def rprj3_chunk(r: np.ndarray, s: np.ndarray, j0: int, j1: int,
                ws=None) -> None:
    """Project fine ``r`` onto coarse interior planes ``[j0, j1)`` of
    ``s`` (NPB ``rprj3``).

    Full weighting with the distance-class coefficients ``P_COEFFS``:
    1/2 for the (fine) center, 1/4 / 1/8 / 1/16 for face/edge/corner
    neighbours.  Expression order follows the Fortran source exactly
    (the ``x1``/``y1`` shared buffers at odd fine x positions, then the
    four-class combination), so results are bit-identical to NPB 2.3.
    ``r`` may be a z-slab: the x/y slicing is derived from the (cubic)
    x/y extent, the plane indices from the given range.
    """
    p = P_COEFFS
    n = r.shape[1]
    mh = (n - 2) // 2
    # Per coarse plane a block holds two fine planes of r, one of s and
    # the six scratch planes.
    planes = block_planes(
        8 * (2 * n * n + (mh + 2) ** 2 + 2 * mh * (mh + 1) + 4 * mh * mh))
    (c1, m1, p1, ox), blocks = _plan(
        ws, ("rprj3", r.shape, j0, j1, planes),
        lambda: _rprj3_plan(r.shape, j0, j1, ws, planes))
    for (zc, zm, zp, (x1, x1l, x1h), (y1, y1l, y1h), x2, y2, acc, tmp,
         out) in blocks:
        np.add(r[zc, m1, ox], r[zc, p1, ox], out=x1)
        np.add(x1, r[zm, c1, ox], out=x1)
        np.add(x1, r[zp, c1, ox], out=x1)
        np.add(r[zm, m1, ox], r[zp, m1, ox], out=y1)
        np.add(y1, r[zm, p1, ox], out=y1)
        np.add(y1, r[zp, p1, ox], out=y1)
        np.add(r[zc, m1, c1], r[zc, p1, c1], out=x2)
        np.add(x2, r[zm, c1, c1], out=x2)
        np.add(x2, r[zp, c1, c1], out=x2)
        np.add(r[zm, m1, c1], r[zp, m1, c1], out=y2)
        np.add(y2, r[zm, p1, c1], out=y2)
        np.add(y2, r[zp, p1, c1], out=y2)
        np.multiply(r[zc, c1, c1], p[0], out=acc)
        np.add(r[zc, c1, m1], r[zc, c1, p1], out=tmp)
        np.add(tmp, x2, out=tmp)
        np.multiply(tmp, p[1], out=tmp)
        np.add(acc, tmp, out=acc)
        np.add(x1l, x1h, out=tmp)
        np.add(tmp, y2, out=tmp)
        np.multiply(tmp, p[2], out=tmp)
        np.add(acc, tmp, out=acc)
        np.add(y1l, y1h, out=tmp)
        np.multiply(tmp, p[3], out=tmp)
        np.add(acc, tmp, out=acc)
        s[out] = acc


def _rprj3_plan(shape: tuple[int, ...], j0: int, j1: int, ws,
                planes: int) -> tuple:
    """The fine x/y slices of :func:`rprj3_chunk` for a fine grid (or
    z-slab) of ``shape``, and per block of coarse planes: its fine
    center/lower/upper plane slices, the six scratch views (``x1`` and
    ``y1`` with their lower/upper halves along x) and its coarse
    interior in ``s``."""
    n = shape[1]
    mj, mh = (shape[0] - 2) // 2, (n - 2) // 2
    xy = (slice(2, n - 1, 2),  # fine centers along i2/i1 (0-based even)
          slice(1, n - 2, 2),
          slice(3, n, 2),
          slice(1, n, 2))      # all odd x positions (the x1/y1 extent)
    nb, split = plane_blocks(j0, j1, planes)
    # Shared buffers over the odd x extent (NPB's x1, y1), per-point sums
    # at center x (NPB's x2, y2), accumulator and term.
    bufs = (_planes(ws, "rprj3.x1", mj, (mh, mh + 1), j0, j0 + nb),
            _planes(ws, "rprj3.y1", mj, (mh, mh + 1), j0, j0 + nb),
            _planes(ws, "rprj3.x2", mj, (mh, mh), j0, j0 + nb),
            _planes(ws, "rprj3.y2", mj, (mh, mh), j0, j0 + nb),
            _planes(ws, "rprj3.acc", mj, (mh, mh), j0, j0 + nb),
            _planes(ws, "rprj3.tmp", mj, (mh, mh), j0, j0 + nb))
    blocks = []
    for lo, hi in split:
        x1, y1, x2, y2, acc, tmp = (b[:hi - lo] for b in bufs)
        # Fine center planes for coarse interior planes j (0-based interior).
        blocks.append((slice(2 * (lo + 1), 2 * hi + 1, 2),
                       slice(2 * (lo + 1) - 1, 2 * hi, 2),
                       slice(2 * (lo + 1) + 1, 2 * hi + 2, 2),
                       (x1, x1[:, :, :-1], x1[:, :, 1:]),
                       (y1, y1[:, :, :-1], y1[:, :, 1:]),
                       x2, y2, acc, tmp, (slice(lo + 1, hi + 1), _C, _C)))
    return xy, tuple(blocks)


def interp_chunk(z: np.ndarray, u: np.ndarray, j0: int, j1: int,
                 ws=None) -> None:
    """Add the trilinear prolongation of coarse plane rows ``[j0, j1)``
    (of the 0..m inclusive range) into fine ``u`` (NPB ``interp``).

    The distance-class weights are ``Q_COEFFS``, NPB's trilinear
    1 / 1/2 / 1/4 / 1/8 (the unit center weight is a plain add).  Each
    coarse row ``j`` owns fine planes ``2j`` and ``2j+1``, so slabs of
    distinct ``j`` never overlap; over the full range the whole fine
    extent is written, ghost cells included.  ``z``/``u`` may be
    z-slabs: the x/y slicing derives from the (cubic) x/y extent.

    Whole-slab ufunc chains — a handful of large GIL-releasing calls
    per chunk — with the ``z1``/``z2``/``z3`` buffer sums in the Fortran
    order term by term, so the update is bit-identical to NPB 2.3.
    """
    q = Q_COEFFS
    L = slice(0, -1)        # z(i)
    H = slice(1, None)      # z(i+1)
    n, nc = u.shape[1], z.shape[1]
    # Per coarse row a block holds two fine planes of u, one of z and
    # the four scratch planes.
    planes = block_planes(8 * (2 * n * n + nc * nc + (nc - 1) * (4 * nc - 1)))
    (E, O), blocks = _plan(
        ws, ("interp", z.shape, u.shape, j0, j1, planes),
        lambda: _interp_plan(z.shape, u.shape, j0, j1, ws, planes))
    for (zi, zj, fe, fo, (z1, z1l, z1h), (z2, z2l, z2h), (z3, z3l, z3h),
         tmp) in blocks:
        zc, zn, ue, uo = z[zi], z[zj], u[fe], u[fo]
        np.add(zc[:, H, :], zc[:, L, :], out=z1)   # z(i2+1,i3) + z(i2,i3)
        np.add(zn[:, L, :], zc[:, L, :], out=z2)   # z(i2,i3+1) + z(i2,i3)
        np.add(zn[:, H, :], zn[:, L, :], out=z3)   # z(i2+1,i3+1) + z(i2,i3+1) + z1
        np.add(z3, z1, out=z3)
        ue[:, E, E] += zc[:, L, L]
        np.add(zc[:, L, H], zc[:, L, L], out=tmp)
        np.multiply(tmp, q[1], out=tmp)
        ue[:, E, O] += tmp
        np.multiply(z1l, q[1], out=tmp)
        ue[:, O, E] += tmp
        np.add(z1l, z1h, out=tmp)
        np.multiply(tmp, q[2], out=tmp)
        ue[:, O, O] += tmp
        np.multiply(z2l, q[1], out=tmp)
        uo[:, E, E] += tmp
        np.add(z2l, z2h, out=tmp)
        np.multiply(tmp, q[2], out=tmp)
        uo[:, E, O] += tmp
        np.multiply(z3l, q[2], out=tmp)
        uo[:, O, E] += tmp
        np.add(z3l, z3h, out=tmp)
        np.multiply(tmp, q[3], out=tmp)
        uo[:, O, O] += tmp


def _interp_plan(zshape: tuple[int, ...], ushape: tuple[int, ...], j0: int,
                 j1: int, ws, planes: int) -> tuple:
    """The fine even/odd x/y targets of :func:`interp_chunk`, and per
    block of coarse rows: the slices of its coarse rows ``i`` and
    ``i+1`` in ``z`` and of its even and odd fine planes in ``u``, then
    the ``z1``/``z2``/``z3`` views (each with its lower/upper halves
    along x) and ``tmp``."""
    n, rows, nc = ushape[1], zshape[0] - 1, zshape[1]
    eo = (slice(0, n - 1, 2),  # fine 0-based even targets (Fortran 2i-1)
          slice(1, n, 2))      # fine 0-based odd targets  (Fortran 2i)
    nb, split = plane_blocks(j0, j1, planes)
    bufs = (_planes(ws, "interp.z1", rows, (nc - 1, nc), j0, j0 + nb),
            _planes(ws, "interp.z2", rows, (nc - 1, nc), j0, j0 + nb),
            _planes(ws, "interp.z3", rows, (nc - 1, nc), j0, j0 + nb),
            _planes(ws, "interp.tmp", rows, (nc - 1, nc - 1), j0, j0 + nb))
    blocks = []
    for lo, hi in split:
        z1, z2, z3, tmp = (b[:hi - lo] for b in bufs)
        blocks.append((slice(lo, hi), slice(lo + 1, hi + 1),
                       slice(2 * lo, 2 * hi, 2),
                       slice(2 * lo + 1, 2 * hi + 1, 2),
                       *((b, b[:, :, :-1], b[:, :, 1:]) for b in (z1, z2, z3)),
                       tmp))
    return eo, tuple(blocks)


# ---------------------------------------------------------------------------
# The serial kernels: the full plane range, then the ghost fill.
# ---------------------------------------------------------------------------

def coarse_interior(r: np.ndarray) -> int:
    """Interior size of the grid ``r`` projects onto."""
    nf = r.shape[0] - 2
    if nf < 4 or nf % 2:
        raise ValueError(f"cannot project a grid with interior {nf}")
    return nf // 2


def check_interp_shapes(z: np.ndarray, u: np.ndarray) -> None:
    m, nf = z.shape[0] - 2, u.shape[0] - 2
    if nf != 2 * m:
        raise ValueError(f"interp shape mismatch: coarse {m} fine {nf}")


def resid(u: np.ndarray, v: np.ndarray, a=A_COEFFS, *,
          out: np.ndarray | None = None, ws=None,
          boundary=comm3) -> np.ndarray:
    """Residual ``r = v - A u`` on an extended grid, ghosts refreshed.

    ``u`` and ``v`` must have valid borders.  ``boundary`` is the
    ghost-fill callable applied to the result: the NPB periodic
    ``comm3``, or the SPMD runtime's slab halo refresh.

    ``out`` (or the workspace buffer used when ``ws`` is given) is fully
    overwritten — interior by the accumulation, ghosts by the trailing
    ``comm3`` — so a reused buffer cannot leak stale values.  ``out``
    may alias ``v`` (see :func:`resid_chunk`).
    """
    if out is None:
        out = _scratch(ws, "resid.out", u.shape)
    resid_chunk(u, v, a, out, 0, u.shape[0] - 2, ws)
    boundary(out)
    return out


def psinv(r: np.ndarray, u: np.ndarray, c, *, ws=None,
          boundary=comm3) -> np.ndarray:
    """Smoothing step ``u += S r`` in place, ghosts refreshed via
    ``boundary`` (default: periodic ``comm3``)."""
    psinv_chunk(r, u, c, 0, u.shape[0] - 2, ws)
    boundary(u)
    return u


def rprj3(r: np.ndarray, *, ws=None, boundary=comm3) -> np.ndarray:
    """Project a fine residual (or a z-slab of one) onto the next
    coarser grid (see :func:`rprj3_chunk`); ``boundary`` refreshes the
    coarse ghosts (default: periodic ``comm3``).  The result (the pooled
    buffer when ``ws`` is given) is fully overwritten."""
    mh = coarse_interior(r)
    out = _scratch(ws, "rprj3.out", tuple((n - 2) // 2 + 2 for n in r.shape))
    rprj3_chunk(r, out, 0, mh, ws)
    boundary(out)
    return out


def interp_add(z: np.ndarray, u: np.ndarray, *, ws=None) -> np.ndarray:
    """Add the trilinear prolongation of coarse ``z`` into fine ``u``
    (see :func:`interp_chunk`).

    Writes the whole fine extent including ghost cells; because ``z``
    has valid periodic borders the result's borders come out periodic
    too, exactly as in the serial NPB ``interp`` (which needs no
    trailing ``comm3``).
    """
    check_interp_shapes(z, u)
    interp_chunk(z, u, 0, z.shape[0] - 1, ws)
    return u


# ---------------------------------------------------------------------------
# Kernel tables.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MGKernels:
    """The operators of one implementation of the V-cycle, hooks bound.

    Grids are whatever the table's kernels agree on (full extended
    arrays, z-slabs of them); the schedule only passes them along.
    """

    #: ``resid(u, v, a, out=None) -> r``; with ``out`` (which may be
    #: ``v``) the kernel may write there instead of a buffer of its own.
    resid: Callable
    #: ``psinv(r, u, c) -> u``, in place.
    psinv: Callable
    #: ``rprj3(r) -> s``, the next coarser residual.
    rprj3: Callable
    #: ``interp_add(z, u) -> u``, in place.
    interp_add: Callable
    #: ``zeros(shape) -> grid``: the zero first guess of a correction.
    zeros: Callable = np.zeros
    #: ``coarsest(r, a, c, lb) -> z``: the correction on level ``lb``;
    #: ``None`` is NPB's one smoothing step from a zero guess.
    coarsest: Callable | None = None


def numpy_kernels(ws=None) -> MGKernels:
    """The serial NumPy table; ``ws`` pools every temporary (per-level
    residuals and correction grids included)."""
    return MGKernels(
        resid=partial(resid, ws=ws),
        psinv=partial(psinv, ws=ws),
        rprj3=partial(rprj3, ws=ws),
        interp_add=partial(interp_add, ws=ws),
        zeros=np.zeros if ws is None else partial(ws.zeros, "mg3P.u"),
    )


def timed_kernels(kernels: MGKernels, monitor) -> MGKernels:
    """Wrap a table so each operator call books its wall time on
    ``monitor.add(section, seconds)``."""
    def wrap(section: str, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                monitor.add(section, time.perf_counter() - t0)
        return timed

    return replace(kernels,
                   resid=wrap("resid", kernels.resid),
                   psinv=wrap("psinv", kernels.psinv),
                   rprj3=wrap("rprj3", kernels.rprj3),
                   interp_add=wrap("interp", kernels.interp_add))


# ---------------------------------------------------------------------------
# The schedule.
# ---------------------------------------------------------------------------

def correction(kernels: MGKernels, r: dict[int, np.ndarray], a, c,
               top: int, lb: int = 1) -> np.ndarray:
    """The V-cycle operator on level ``top``: the correction grid ``z``
    with ``A z ~ r[top]``.

    ``r`` is NPB's per-level residual storage: levels below ``top`` are
    overwritten by the down cycle, and on the way up each ``r[k]``
    becomes ``r[k] - A z_k`` in place.
    """
    for k in range(top, lb, -1):
        r[k - 1] = kernels.rprj3(r[k])
    if kernels.coarsest is not None:
        z = kernels.coarsest(r, a, c, lb)
    else:
        z = kernels.zeros(r[lb].shape)
        kernels.psinv(r[lb], z, c)
    for k in range(lb + 1, top + 1):
        zk = kernels.zeros(r[k].shape)
        kernels.interp_add(z, zk)
        r[k] = kernels.resid(zk, r[k], a, out=r[k])
        kernels.psinv(r[k], zk, c)
        z = zk
    return z


def vcycle(kernels: MGKernels, u: np.ndarray, v: np.ndarray,
           r: dict[int, np.ndarray], a, c, lt: int, lb: int = 1) -> None:
    """One V-cycle (NPB ``mg3P``), updating ``u`` in place: the
    correction of level ``lt - 1`` is added to the solution itself.

    ``r[lt]`` holds the current finest residual on entry and the
    residual before the last smoothing step on return.
    """
    r[lt - 1] = kernels.rprj3(r[lt])
    kernels.interp_add(correction(kernels, r, a, c, lt - 1, lb), u)
    r[lt] = kernels.resid(u, v, a, out=r[lt])
    kernels.psinv(r[lt], u, c)


def mg3P(u: np.ndarray, v: np.ndarray, r_levels: dict[int, np.ndarray],
         a, c, lt: int, lb: int = 1, *, ws=None) -> None:
    """:func:`vcycle` over :func:`numpy_kernels`: one serial V-cycle."""
    vcycle(numpy_kernels(ws), u, v, r_levels, a, c, lt, lb)


@dataclass
class MGResult:
    """Outcome of a full MG benchmark run."""

    size_class: SizeClass
    #: Final L2 residual norm (the NPB verification quantity).
    rnm2: float
    #: Final max-abs residual.
    rnmu: float
    #: Final solution grid (extended).
    u: np.ndarray
    #: Final residual grid (extended).
    r: np.ndarray

    @property
    def verified(self) -> bool:
        """NPB acceptance test (:meth:`SizeClass.verifies`): relative
        error vs the official value within ``1e-8``.

        Our kernels follow the Fortran expression order exactly, so this
        passes at ~1e-12 even for class W, whose 40 iterations drive the
        residual into the roundoff regime."""
        return self.size_class.verifies(self.rnm2)


def checked_rhs(sc: SizeClass, v: np.ndarray) -> np.ndarray:
    """``v`` itself, once it has the extended shape of class ``sc``.

    Every solver entry takes ``v=None``: ``None`` is NPB's ``zran3``
    right-hand side of the class, built by the entry; a given ``v`` was
    prepared by the caller outside its timed region (``mg.f`` calls
    ``zran3`` before ``timer_start``), is only read, and ``zran3`` is
    not called.
    """
    if np.shape(v) != sc.shape:
        raise ValueError(f"v has shape {np.shape(v)}; class {sc.name} "
                         f"needs the extended grid {sc.shape}")
    return v


def run(kernels: MGKernels, size_class: str | SizeClass,
        nit: int | None = None, *, v: np.ndarray | None = None,
        on_iteration=None, monitor=None) -> MGResult:
    """The timed section of NPB ``mg.f`` over a kernel table: ``u = 0``,
    ``r = v - A u``; then ``nit`` times (V-cycle; top-level residual);
    finally the verification norm.

    ``v`` is the right-hand side (see :func:`checked_rhs`); with
    ``v=None`` the call builds it with ``zran3`` first, which is set-up,
    not timed section — time a solve with ``v`` passed.
    ``on_iteration(iteration, rnm2)``, if given, is called after each
    V-cycle with the current residual norm (the supervisor's numerical
    watchdog hooks in here); an exception it raises aborts the solve.
    ``monitor`` (any object with ``add(section, seconds)``) receives
    per-operator wall time.
    """
    sc = get_class(size_class) if isinstance(size_class, str) else size_class
    iters = sc.nit if nit is None else nit
    a = A_COEFFS
    c = S_COEFFS_A if sc.smoother == "a" else S_COEFFS_B
    lt = sc.lt
    if monitor is not None:
        kernels = timed_kernels(kernels, monitor)

    u = make_grid(sc.nx)
    v = zran3(sc.nx) if v is None else checked_rhs(sc, v)
    r = {lt: kernels.resid(u, v, a)}
    for it in range(iters):
        vcycle(kernels, u, v, r, a, c, lt)
        r[lt] = kernels.resid(u, v, a, out=r[lt])
        if on_iteration is not None:
            on_iteration(it, norm2u3(r[lt])[0])
    rnm2, rnmu = norm2u3(r[lt])
    return MGResult(sc, rnm2, rnmu, u, r[lt])


def solve(size_class: str | SizeClass, nit: int | None = None, *,
          v: np.ndarray | None = None, on_iteration=None, ws=None,
          monitor=None) -> MGResult:
    """Run the full NAS MG benchmark for a size class (see :func:`run`;
    ``v`` as there).

    ``ws`` (a :class:`~repro.perf.workspace.Workspace`) pools every
    extended-grid temporary of the timed section — after the first
    V-cycle warms the pool, iterations run allocation-free and
    bit-identical to the allocating path.  ``MGResult.r`` then
    references a pool buffer (copy it before reusing the workspace).
    """
    return run(numpy_kernels(ws), size_class, nit, v=v,
               on_iteration=on_iteration, monitor=monitor)


def synthesize_mg_trace(nx: int, nit: int) -> list[tuple[str, int]]:
    """The exact ``(kind, level)`` sequence MG(nx, nit) executes, without
    running it (level 1 is the coarsest).

    Mirrors :func:`run`: initial residual, then per iteration a V-cycle
    (down-projections, coarsest smooth, up-interpolate/residual/smooth)
    and a top residual, with the border exchange (``comm3``) that ends
    each ``resid``, ``psinv`` and ``rprj3`` and the clear (``zero3``) of
    each correction grid; finally the ``norm2u3`` reduction.  The
    schedule tests hold every solve mode against this independent
    spelling of the schedule; count it with :class:`collections.Counter`.
    """
    lt = nx.bit_length() - 1
    if (1 << lt) != nx:
        raise ValueError(f"nx must be a power of two, got {nx}")
    lb = 1
    ops: list[tuple[str, int]] = []

    def stencil(kind: str, k: int) -> None:
        ops.extend(((kind, k), ("comm3", k)))

    stencil("resid", lt)  # r = v - A u, u = 0
    for _ in range(nit):
        # Down cycle.
        for k in range(lt, lb, -1):
            stencil("rprj3", k - 1)
        # Coarsest grid.
        ops.append(("zero3", lb))
        stencil("psinv", lb)
        # Up cycle.
        for k in range(lb + 1, lt):
            ops.extend((("zero3", k), ("interp", k)))
            stencil("resid", k)
            stencil("psinv", k)
        ops.append(("interp", lt))
        stencil("resid", lt)
        stencil("psinv", lt)
        # Top-of-iteration residual.
        stencil("resid", lt)
    ops.append(("norm2u3", lt))
    return ops
