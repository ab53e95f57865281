"""Rank-polymorphic cell-centred discrete operators.

:class:`FaceOperator` discretises ``sigma*u - div(k grad u)`` on a
cell-centred lattice: ``m`` cells per dimension, cell ``i`` centred at
``x = (i + 0.5) * h`` with ``h = 1/m``, and one diffusivity value per
cell *face*.  All boundary physics lives in the ghost layer (see
:func:`repro.core.grid.ghost_fill`): with Dirichlet mirroring
(``ghost = 2g - u``) the boundary flux becomes ``2k(u - g)/h`` — the
standard half-cell scheme — and with Neumann mirroring the boundary
flux vanishes, both *without* the operator knowing the boundary kind.
Only the exact Jacobi/Gauss-Seidel diagonal needs it, because the ghost
value depends (affinely) on the centre value there.

The sweep is lowered like ``core.mg``'s 27-point sweeps: it runs in the
cache blocks of :func:`repro.core.mg.plane_blocks`, and each block is
one contiguous range of the raveled extended grid
(:func:`repro.core.mg.flat_interior`), every neighbour and coefficient
term a 1-D slice of it at one axis stride, for any rank.  Every method
takes an optional interior plane range ``(z0, z1)`` along the outermost
axis so the threaded runtime can chunk sweeps exactly as
``runtime.parallel_mg`` chunks the NPB kernels; any range and any block
length give the full sweep's bits (the same terms, in the same order,
per element).
"""

from __future__ import annotations

from math import prod
from typing import Iterator, Sequence

import numpy as np

from repro.core import mg as core_mg
from repro.core.stencils import _scratch

from .specs import BoundarySpec, FloatArray

__all__ = ["FaceOperator", "cell_centers", "face_points"]

#: Per axis of one block: the flat slices of the lower and upper
#: neighbours, and the lower and upper face coefficients.
_Term = tuple[slice, slice, FloatArray, FloatArray]
#: One cache block: its planes of the output, the block's interior in
#: the plane-shaped ``acc``, its flat range in the raveled extended
#: grid and in ``acc``, and one term per axis.
_Block = tuple[slice, tuple[slice, ...], slice, slice, tuple[_Term, ...]]


def cell_centers(m: int) -> FloatArray:
    """The ``m`` cell-centre coordinates of the unit interval."""
    out: FloatArray = (np.arange(m, dtype=np.float64) + 0.5) / m
    return out


def face_points(m: int) -> FloatArray:
    """The ``m + 1`` face coordinates of the unit interval."""
    out: FloatArray = np.arange(m + 1, dtype=np.float64) / m
    return out


class FaceOperator:
    """``sigma*I + A`` with ``A = -div(k grad .)`` via face coefficients.

    Parameters
    ----------
    faces:
        One array per axis; ``faces[d]`` holds the diffusivity at cell
        faces normal to axis ``d`` — interior shape along every axis
        except ``d``, where the extent is ``m_d + 1``.
    h:
        Lattice spacing (``1/m`` on the unit box).
    sigma:
        Non-negative Helmholtz shift (``1/dt`` for implicit Euler).
    boundary:
        Needed only for the exact diagonal; ``apply`` itself is
        boundary-blind thanks to the ghost contract.
    """

    def __init__(self, faces: Sequence[FloatArray], h: float,
                 sigma: float, boundary: BoundarySpec):
        shapes = {tuple(np.delete(f.shape, d))
                  for d, f in enumerate(faces)}
        if len(shapes) != 1:
            raise ValueError("face arrays disagree on the interior shape")
        self.ndim = len(faces)
        self.shape: tuple[int, ...] = tuple(
            faces[d].shape[d] - 1 for d in range(self.ndim))
        for d, f in enumerate(faces):
            want = tuple(self.shape[a] + (1 if a == d else 0)
                         for a in range(self.ndim))
            if f.shape != want:
                raise ValueError(f"faces[{d}] has shape {f.shape}, "
                                 f"expected {want}")
        self.h = float(h)
        self.sigma = float(sigma)
        self.boundary = boundary
        self._ext = tuple(m + 2 for m in self.shape)
        self._inner = (slice(1, -1),) * (self.ndim - 1)
        # The coefficients, pre-scaled by 1/h^2 (no division in the
        # sweep), stored once in extended layout: along axis d, K_d[1+i]
        # is the lower face of cell i, so a cell's two faces are at its
        # own flat index and one stride on.  Other positions hold 0.
        self._kflat: list[FloatArray] = []
        views = []
        for d, f in enumerate(faces):
            k = np.zeros(self._ext)
            at = self._inner[:d] + (slice(1, None),) + self._inner[d:]
            np.divide(np.asarray(f, dtype=np.float64), h * h, out=k[at])
            view = k[at]
            view.flags.writeable = False
            views.append(view)
            self._kflat.append(k.reshape(-1))
        self._faces: tuple[FloatArray, ...] = tuple(views)
        self._strides = tuple(prod(self._ext[d + 1:])
                              for d in range(self.ndim))
        # What residual() touches per output plane: u, the ndim
        # coefficient grids, f, the output, acc and tmp.
        self._plane_bytes = 8 * (self.ndim + 5) * self._strides[0]
        self._plans: dict[tuple[int, int, int],
                          tuple[int, tuple[_Block, ...]]] = {}
        self._diag: FloatArray | None = None

    def faces(self, d: int) -> FloatArray:
        """Axis ``d``'s face coefficients scaled by ``1/h^2``: a read-only
        view, shaped like ``faces[d]``, of the copy the sweep reads."""
        return self._faces[d]

    # -- the sweep ----------------------------------------------------------

    def _plan(self, z0: int, z1: int) -> tuple[int, tuple[_Block, ...]]:
        """The cache blocks of interior planes ``[z0, z1)`` and their
        slices, worked out once per range and block length."""
        planes = core_mg.block_planes(self._plane_bytes)
        plan = self._plans.get((z0, z1, planes))
        if plan is not None:
            return plan
        nb, split = core_mg.plane_blocks(z0, z1, planes)
        off = sum(self._strides[1:])  # (0, 1, ..., 1) in a plane
        blocks = []
        for lo, hi in split:
            k0, k1 = core_mg.flat_interior(self._ext, lo, hi)
            terms = tuple(
                (slice(k0 - s, k1 - s), slice(k0 + s, k1 + s),
                 kf[k0:k1], kf[k0 + s:k1 + s])
                for s, kf in zip(self._strides, self._kflat))
            blocks.append((slice(lo, hi), (slice(0, hi - lo),) + self._inner,
                           slice(k0, k1), slice(off, off + k1 - k0), terms))
        # Team workers racing here build equal plans; either one is kept.
        plan = self._plans[z0, z1, planes] = (nb, tuple(blocks))
        return plan

    def _sweep(self, u: FloatArray, ws: object, z0: int,
               z1: int) -> Iterator[tuple[slice, FloatArray]]:
        """``(sigma*I + A) u`` block by block: yields each block's planes
        of the output and its values, a strided view of ``acc`` that the
        next block overwrites.

        ``acc`` is a flat range of a plane-shaped buffer, so the range
        also computes the ghost positions between interior rows; they
        are never stored.  ``u`` is only read: a non-contiguous one is
        raveled by a copy.
        """
        if u.shape != self._ext:
            raise ValueError(f"u has shape {u.shape}, expected the "
                             f"extended shape {self._ext}")
        nb, blocks = self._plan(z0, z1)
        tail = self._ext[1:]
        acc = core_mg._planes(ws, "pde.acc", self.shape[0], tail, z0, z0 + nb)
        af = acc.reshape(-1)
        tf = core_mg._planes(ws, "pde.tmp", self.shape[0], tail, z0,
                             z0 + nb).reshape(-1)
        uf = u.reshape(-1)
        for sub, interior, c, a, terms in blocks:
            uc, sums, tmp = uf[c], af[a], tf[:a.stop - a.start]
            np.multiply(uc, self.sigma, out=sums)
            for lower, upper, k_lo, k_hi in terms:
                np.subtract(uc, uf[lower], out=tmp)
                np.multiply(tmp, k_lo, out=tmp)
                np.add(sums, tmp, out=sums)
                np.subtract(uc, uf[upper], out=tmp)
                np.multiply(tmp, k_hi, out=tmp)
                np.add(sums, tmp, out=sums)
            yield sub, acc[interior]

    # -- operator -----------------------------------------------------------

    def apply(self, u: FloatArray, out: FloatArray | None = None, *,
              ws: object = None, z0: int = 0,
              z1: int | None = None) -> FloatArray:
        """Interior-shaped ``(sigma*I + A) u`` for planes ``[z0, z1)``.

        ``u`` is the extended array with valid ghosts (any layout; a
        shape other than the extended one raises ``ValueError``).  When
        ``out`` is given it must be the *full* interior-shaped buffer;
        only the ``[z0, z1)`` planes are written, block by block, each
        block's terms 1-D slices of the raveled ``u`` — the same terms,
        in the same order, per element for any range and block length.
        """
        if z1 is None:
            z1 = self.shape[0]
        if out is None:
            out = _scratch(ws, "pde.apply", self.shape)
        for sub, acc in self._sweep(u, ws, z0, z1):
            out[sub] = acc
        return out

    def residual(self, u: FloatArray, f: FloatArray,
                 out: FloatArray | None = None, *, ws: object = None,
                 z0: int = 0, z1: int | None = None) -> FloatArray:
        """Interior-shaped ``f - (sigma*I + A) u`` for planes
        ``[z0, z1)`` (same buffer contract as :meth:`apply`)."""
        if z1 is None:
            z1 = self.shape[0]
        if out is None:
            out = _scratch(ws, "pde.resid", self.shape)
        for sub, acc in self._sweep(u, ws, z0, z1):
            np.subtract(f[sub], acc, out=out[sub])
        return out

    def diag(self) -> FloatArray:
        """The exact operator diagonal (cached).

        Interior cells see ``sigma + sum_d (kW + kE)/h^2``; at physical
        boundaries the ghost's affine dependence on the centre value
        folds in: Dirichlet mirroring doubles the boundary-face term,
        Neumann mirroring cancels it, periodic leaves it unchanged.
        """
        if self._diag is not None:
            return self._diag
        d_arr = np.full(self.shape, self.sigma)
        for d in range(self.ndim):
            k = self.faces(d)
            lower = [slice(None)] * self.ndim
            upper = [slice(None)] * self.ndim
            lower[d] = slice(0, -1)
            upper[d] = slice(1, None)
            d_arr += k[tuple(lower)]
            d_arr += k[tuple(upper)]
            if self.boundary.kind == "periodic":
                continue
            sign = 1.0 if self.boundary.kind == "dirichlet" else -1.0
            first = [slice(None)] * self.ndim
            last = [slice(None)] * self.ndim
            first[d] = slice(0, 1)
            last[d] = slice(-1, None)
            d_arr[tuple(first)] += sign * k[tuple(first)]
            d_arr[tuple(last)] += sign * k[tuple(last)]
        self._diag = d_arr
        return d_arr
