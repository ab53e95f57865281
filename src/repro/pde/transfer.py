"""Rank-polymorphic cell-centred grid-transfer operators.

On a cell-centred hierarchy each coarse cell is the union of ``2**d``
fine children, so restriction is the volume average of the children and
prolongation is per-axis linear interpolation between the two nearest
coarse centres (weights ``3/4`` and ``1/4`` — the fine centre sits a
quarter of a coarse cell away from the nearest coarse centre).  Both
are written as per-axis sweeps over arbitrary rank, the same structural
trick the NPB ``rprj3``/``interp`` pair uses for its 3-D class weights
(and the vertex-centred NPB path keeps its exact coefficients in
``core.mg``; these are the cell-centred members of the same family).
"""

from __future__ import annotations

from itertools import product

import numpy as np

from repro.core.stencils import _scratch

from .specs import FloatArray

__all__ = ["restrict_cc", "prolong_cc"]


def restrict_cc(r: FloatArray, out: FloatArray | None = None, *,
                ws: object = None) -> FloatArray:
    """Average the ``2**d`` fine children into each coarse cell.

    ``r`` is interior-shaped (no ghosts) with even extents; the result
    has half the extent along every axis.
    """
    nd = r.ndim
    if any(n % 2 for n in r.shape):
        raise ValueError(f"cannot coarsen odd extents {r.shape}")
    coarse = tuple(n // 2 for n in r.shape)
    if out is None:
        out = _scratch(ws, "pde.restrict", coarse)
    out.fill(0.0)
    for corner in product((0, 1), repeat=nd):
        view = r[tuple(slice(c, None, 2) for c in corner)]
        np.add(out, view, out=out)
    np.multiply(out, 1.0 / (1 << nd), out=out)
    return out


def prolong_cc(uc: FloatArray, out: FloatArray | None = None, *,
               ws: object = None) -> FloatArray:
    """Interpolate a coarse *extended* array onto the fine interior.

    ``uc`` carries valid ghost layers (filled for the correction's
    homogeneous boundary, or the real boundary when prolongating an FMG
    solution), so the boundary stencil needs no special casing.  Axes
    are processed one at a time; after axis ``d`` the array is
    fine-sized along axes ``<= d`` and still ghost-extended along the
    rest.  Returns the fine interior-shaped interpolant.
    """
    nd = uc.ndim
    cur = uc
    for d in range(nd):
        shape = cur.shape
        fine_d = (shape[d] - 2) * 2
        new_shape = shape[:d] + (fine_d,) + shape[d + 1:]
        nxt = _scratch(ws, f"pde.prolong.{d}", new_shape)
        ctr = [slice(None)] * nd
        lo = [slice(None)] * nd
        hi = [slice(None)] * nd
        ctr[d] = slice(1, -1)
        lo[d] = slice(0, -2)
        hi[d] = slice(2, None)
        even = [slice(None)] * nd
        odd = [slice(None)] * nd
        even[d] = slice(0, None, 2)
        odd[d] = slice(1, None, 2)
        c = cur[tuple(ctr)]
        # The 1/4 neighbour term, one scratch per axis for both children.
        quarter = _scratch(ws, f"pde.prolong.q{d}", c.shape)
        # Fine child nearer the lower face: 3/4 centre + 1/4 lower nbr.
        ev = nxt[tuple(even)]
        np.multiply(c, 0.75, out=ev)
        np.add(ev, np.multiply(cur[tuple(lo)], 0.25, out=quarter), out=ev)
        od = nxt[tuple(odd)]
        np.multiply(c, 0.75, out=od)
        np.add(od, np.multiply(cur[tuple(hi)], 0.25, out=quarter), out=od)
        cur = nxt
    return cur
