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

Every method takes an optional interior plane range ``(z0, z1)`` along
the outermost axis so the threaded runtime can chunk sweeps exactly as
``runtime.parallel_mg`` chunks the NPB kernels; chunked evaluation is
bitwise identical to the full sweep (same slice ufuncs per element).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.stencils import _scratch

from .specs import BoundarySpec, FloatArray

__all__ = ["FaceOperator", "cell_centers", "face_points"]


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
        # Pre-scale by 1/h^2: apply() then needs no division.
        self._sf: tuple[FloatArray, ...] = tuple(
            np.ascontiguousarray(f, dtype=np.float64) / (h * h)
            for f in faces)
        self._diag: FloatArray | None = None

    # -- index helpers ------------------------------------------------------

    def _ctr(self, z0: int, z1: int) -> tuple[slice, ...]:
        """Extended-array view of interior planes ``[z0, z1)``."""
        return ((slice(1 + z0, 1 + z1),)
                + (slice(1, -1),) * (self.ndim - 1))

    def _nbr(self, d: int, off: int, z0: int,
             z1: int) -> tuple[slice, ...]:
        """Extended-array view of the ``off``-shifted neighbour along
        axis ``d`` for interior planes ``[z0, z1)``."""
        sl = list(self._ctr(z0, z1))
        if d == 0:
            sl[0] = slice(1 + z0 + off, 1 + z1 + off)
        else:
            sl[d] = slice(1 + off, (-1 + off) or None)
        return tuple(sl)

    def _faces(self, d: int, side: int, z0: int,
               z1: int) -> FloatArray:
        """Scaled face coefficients (lower ``side=0`` / upper ``side=1``)
        of every cell in interior planes ``[z0, z1)`` along axis ``d``."""
        sl = [slice(z0, z1)] + [slice(None)] * (self.ndim - 1)
        if d == 0:
            sl[0] = slice(z0 + side, z1 + side)
        else:
            sl[d] = slice(side, (side - 1) or None)
        return self._sf[d][tuple(sl)]

    # -- operator -----------------------------------------------------------

    def apply(self, u: FloatArray, out: FloatArray | None = None, *,
              ws: object = None, z0: int = 0,
              z1: int | None = None) -> FloatArray:
        """Interior-shaped ``(sigma*I + A) u`` for planes ``[z0, z1)``.

        ``u`` is the extended array with valid ghosts.  When ``out`` is
        given it must be the *full* interior-shaped buffer; only the
        ``[z0, z1)`` planes are written.
        """
        if z1 is None:
            z1 = self.shape[0]
        if out is None:
            out = _scratch(ws, "pde.apply", self.shape)
        sub = (slice(z0, z1),)
        acc = out[sub]
        chunk_shape = (z1 - z0,) + self.shape[1:]
        # The chunk start is part of the scratch name: concurrent team
        # workers with equal-sized chunks must not share one buffer.
        tmp = _scratch(ws, f"pde.tmp.{z0}", chunk_shape)
        uc = u[self._ctr(z0, z1)]
        np.multiply(uc, self.sigma, out=acc)
        for d in range(self.ndim):
            np.subtract(uc, u[self._nbr(d, -1, z0, z1)], out=tmp)
            np.multiply(tmp, self._faces(d, 0, z0, z1), out=tmp)
            np.add(acc, tmp, out=acc)
            np.subtract(uc, u[self._nbr(d, +1, z0, z1)], out=tmp)
            np.multiply(tmp, self._faces(d, 1, z0, z1), out=tmp)
            np.add(acc, tmp, out=acc)
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
        self.apply(u, out, ws=ws, z0=z0, z1=z1)
        sub = (slice(z0, z1),)
        np.subtract(f[sub], out[sub], out=out[sub])
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
        m0 = self.shape[0]
        for d in range(self.ndim):
            d_arr += self._faces(d, 0, 0, m0)
            d_arr += self._faces(d, 1, 0, m0)
            if self.boundary.kind == "periodic":
                continue
            sign = 1.0 if self.boundary.kind == "dirichlet" else -1.0
            first = [slice(None)] * self.ndim
            last = [slice(None)] * self.ndim
            first[d] = slice(0, 1)
            last[d] = slice(-1, None)
            d_arr[tuple(first)] += sign * self._sf[d][tuple(first)]
            d_arr[tuple(last)] += sign * self._sf[d][tuple(last)]
        self._diag = d_arr
        return d_arr
