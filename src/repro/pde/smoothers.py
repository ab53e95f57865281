"""Smoothers for the generic multigrid cycle.

Two members of the :class:`~repro.pde.specs.SmootherSpec` taxonomy:

* weighted Jacobi — ``u += w * D^-1 (f - A u)`` computed from the full
  old iterate (the NPB ``S`` stencils are a hand-fused instance);
* red-black Gauss-Seidel — two half-sweeps over the parity colouring of
  the interior lattice.  On faces-only (7/5-point) stencils every
  neighbour of a red cell is black, so each half-sweep is an exact
  simultaneous Gauss-Seidel update and safely data-parallel.

Both are expressed as *masked Jacobi* steps with the exact operator
diagonal, which makes the serial and chunked (threaded) paths bitwise
identical: the team merely computes slices of the same ufunc train.
"""

from __future__ import annotations

import numpy as np

from .operators import FaceOperator
from .specs import BoundarySpec, FloatArray, SmootherSpec

__all__ = ["Smoother", "parity_masks"]


def parity_masks(shape: tuple[int, ...]) -> tuple[FloatArray, FloatArray]:
    """0/1 float masks of the two parity colours of an interior lattice
    (red = even index sum, black = odd)."""
    parity = np.zeros(shape, dtype=np.int64)
    for d, n in enumerate(shape):
        idx = np.arange(n).reshape(
            (1,) * d + (n,) + (1,) * (len(shape) - d - 1))
        parity = parity + idx
    red = np.ascontiguousarray((parity % 2 == 0), dtype=np.float64)
    black = np.ascontiguousarray(1.0 - red)
    return red, black


class Smoother:
    """One level's relaxation, bound to its operator and buffers.

    ``team`` (a :class:`repro.runtime.ThreadTeam`) chunks the residual
    computation over outermost-axis planes where it measured the fork
    faster than one inline chunk; the cheap diagonal update runs on the
    master.  ``tag`` namespaces the workspace scratch buffers per level
    so levels never share pooled storage.
    """

    def __init__(self, spec: SmootherSpec, op: FaceOperator,
                 boundary: BoundarySpec, *, ws: object = None,
                 team: object = None, tag: str = ""):
        self.spec = spec
        self.op = op
        self.boundary = boundary
        self.ws = ws
        self.team = team
        self.tag = tag
        self._masks: tuple[FloatArray, FloatArray] | None = None
        self._r: FloatArray | None = None
        self._tmp: FloatArray | None = None

    def _buffers(self) -> tuple[FloatArray, FloatArray]:
        if self._r is None or self._tmp is None:
            if self.ws is None:
                self._r = np.empty(self.op.shape)
                self._tmp = np.empty(self.op.shape)
            else:
                self._r = self.ws.get(  # type: ignore[attr-defined]
                    f"pde.smooth.r{self.tag}", self.op.shape)
                self._tmp = self.ws.get(  # type: ignore[attr-defined]
                    f"pde.smooth.tmp{self.tag}", self.op.shape)
        return self._r, self._tmp

    def residual(self, u: FloatArray, f: FloatArray,
                 out: FloatArray) -> FloatArray:
        """Full interior residual, chunked over the team when present."""
        if self.team is None:
            self.op.residual(u, f, out, ws=self.ws)
            return out
        self.team.region(  # type: ignore[attr-defined]
            ("pde.resid", self.op.shape),
            lambda c: self.op.residual(u, f, out, ws=self.ws,
                                       z0=c.lo[0], z1=c.hi[0]),
            self.op.shape[0])
        return out

    def sweep(self, u: FloatArray, f: FloatArray) -> None:
        """One smoothing sweep, in place; refreshes ``u``'s ghosts."""
        if self.spec.kind == "weighted-jacobi":
            self._jacobi(u, f)
        else:
            self._rbgs(u, f)

    def _update(self, u: FloatArray, r: FloatArray, tmp: FloatArray,
                weight: float, mask: FloatArray | None) -> None:
        np.divide(r, self.op.diag(), out=tmp)
        if mask is not None:
            np.multiply(tmp, mask, out=tmp)
        if weight != 1.0:
            np.multiply(tmp, weight, out=tmp)
        ui = u[(slice(1, -1),) * u.ndim]
        np.add(ui, tmp, out=ui)
        self.boundary.fill(u)

    def _jacobi(self, u: FloatArray, f: FloatArray) -> None:
        r, tmp = self._buffers()
        self.residual(u, f, r)
        self._update(u, r, tmp, self.spec.weight, None)

    def _rbgs(self, u: FloatArray, f: FloatArray) -> None:
        r, tmp = self._buffers()
        if self._masks is None:
            self._masks = parity_masks(self.op.shape)
        for mask in self._masks:
            self.residual(u, f, r)
            self._update(u, r, tmp, 1.0, mask)
