"""Generic multigrid cycling over a problem-spec hierarchy.

:class:`PDESolver` composes the family members — a
:class:`~repro.pde.specs.StencilSpec` discretised per level by
re-evaluation of the coefficient field (no Galerkin products), a
:class:`~repro.pde.specs.BoundarySpec` owning all ghost physics, a
:class:`~repro.pde.specs.SmootherSpec` and a
:class:`~repro.pde.specs.CycleSpec` (V, W, or FMG) — into the same
coarsest-to-finest machinery ``core.mg`` hard-codes for NPB.

Correction levels always smooth against the *homogeneous* boundary;
the finest level uses the problem's real boundary values.  The FMG
ramp prolongates solutions (not corrections), which is exact for the
homogeneous-value boundaries all shipped workloads use.

Threaded mode chunks every residual evaluation over a
:class:`repro.runtime.ThreadTeam` exactly like ``runtime.parallel_mg``
chunks the NPB kernels; results are bitwise identical to serial mode.
"""

from __future__ import annotations

import math
import time
from typing import Callable

import numpy as np

from .operators import FaceOperator, cell_centers, face_points
from .smoothers import Smoother
from .specs import FloatArray, ProblemSpec
from .transfer import prolong_cc, restrict_cc

__all__ = ["PDESolver", "CoefficientField", "build_operator"]

#: A diffusivity field: maps per-axis coordinate arrays (broadcastable
#: against each other) to the coefficient values at those points.
CoefficientField = Callable[..., FloatArray]


def _level_sizes(nx: int, min_coarse: int = 2) -> list[int]:
    sizes = [nx]
    while sizes[-1] % 2 == 0 and sizes[-1] // 2 >= min_coarse:
        sizes.append(sizes[-1] // 2)
    return sizes


def _axis_points(m: int, ndim: int, face_axis: int) -> list[FloatArray]:
    """Sparse per-axis coordinate grids: face points along
    ``face_axis``, cell centres elsewhere."""
    pts = []
    for a in range(ndim):
        x = face_points(m) if a == face_axis else cell_centers(m)
        pts.append(x.reshape((1,) * a + (-1,) + (1,) * (ndim - a - 1)))
    return pts


def build_operator(problem: ProblemSpec, m: int,
                   coefficient: CoefficientField | None) -> FaceOperator:
    """Discretise one level: evaluate the stencil's coefficient
    taxonomy at that level's cell faces (re-discretisation)."""
    ndim = problem.ndim
    h = 1.0 / m
    faces: list[FloatArray] = []
    for d in range(ndim):
        shape = tuple(m + (1 if a == d else 0) for a in range(ndim))
        if problem.stencil.kind == "variable":
            if coefficient is None:
                raise ValueError(
                    f"problem {problem.name!r} has a variable-coefficient "
                    "stencil but no coefficient field was supplied")
            k = np.broadcast_to(
                coefficient(*_axis_points(m, ndim, d)), shape)
            faces.append(np.ascontiguousarray(k, dtype=np.float64))
        elif problem.stencil.kind == "anisotropic":
            assert problem.stencil.axis_coeffs is not None
            faces.append(np.full(shape, problem.stencil.axis_coeffs[d]))
        else:
            faces.append(np.ones(shape))
    return FaceOperator(faces, h, problem.sigma, problem.boundary)


class _Level:
    """One level's operator, state and pooled buffers."""

    def __init__(self, problem: ProblemSpec, m: int, li: int,
                 coefficient: CoefficientField | None, ws: object,
                 team: object):
        self.m = m
        self.op = build_operator(problem, m, coefficient)
        boundary = (problem.boundary if li == 0
                    else problem.boundary.homogeneous())
        self.boundary = boundary
        self.smoother = Smoother(problem.smoother, self.op, boundary,
                                 ws=ws, team=team, tag=f".L{li}")
        ext = tuple(m + 2 for _ in range(problem.ndim))
        interior = tuple(m for _ in range(problem.ndim))
        if ws is None:
            self.u: FloatArray = np.zeros(ext)
            self.f: FloatArray = np.zeros(interior)
            self.r: FloatArray = np.zeros(interior)
        else:
            self.u = ws.zeros(f"pde.u.L{li}", ext)  # type: ignore[attr-defined]
            self.f = ws.zeros(f"pde.f.L{li}", interior)  # type: ignore[attr-defined]
            self.r = ws.zeros(f"pde.r.L{li}", interior)  # type: ignore[attr-defined]

    @property
    def ui(self) -> FloatArray:
        return self.u[(slice(1, -1),) * self.u.ndim]


class PDESolver:
    """Multigrid solver for one :class:`ProblemSpec` instance.

    Parameters mirror the NPB runtimes: ``workspace`` enables pooled,
    allocation-free steady-state buffers; ``team`` (a started
    :class:`repro.runtime.ThreadTeam`) enables chunked threaded sweeps;
    ``monitor`` accumulates per-phase wall time.
    """

    def __init__(self, problem: ProblemSpec, nx: int, *,
                 coefficient: CoefficientField | None = None,
                 workspace: object = None, team: object = None,
                 monitor: object = None, min_coarse: int = 2):
        if nx < 2:
            raise ValueError(f"nx must be >= 2, got {nx}")
        self.problem = problem
        self.nx = nx
        self.ws = workspace
        self.monitor = monitor
        sizes = _level_sizes(nx, min_coarse)
        self.levels: list[_Level] = [
            _Level(problem, m, li, coefficient, workspace, team)
            for li, m in enumerate(sizes)
        ]

    # -- public surface -----------------------------------------------------

    @property
    def u(self) -> FloatArray:
        """The finest-level extended iterate."""
        return self.levels[0].u

    def set_rhs(self, f: FloatArray) -> None:
        fine = self.levels[0]
        if f.shape != fine.f.shape:
            raise ValueError(f"rhs shape {f.shape} does not match the "
                             f"interior shape {fine.f.shape}")
        fine.f[...] = f

    def reset(self) -> None:
        """Zero the iterate (and its ghosts)."""
        self.levels[0].u.fill(0.0)
        self.levels[0].boundary.fill(self.levels[0].u)

    def residual_norm(self) -> float:
        fine = self.levels[0]
        self._timed("resid", fine.smoother.residual,
                    fine.u, fine.f, fine.r)
        return float(math.sqrt(np.mean(np.square(fine.r))))

    def run(self, *, tol: float = 1.0e-9, max_cycles: int = 60,
            on_iteration: Callable[[int, float], None] | None = None,
            ) -> tuple[int, list[float], bool]:
        """Cycle until the rnm2-style residual norm drops below
        ``tol * max(1, rnm2(f))``; returns
        ``(iterations, history, converged)``."""
        fine = self.levels[0]
        fine.boundary.fill(fine.u)
        fnorm = float(math.sqrt(np.mean(np.square(fine.f))))
        target = tol * max(1.0, fnorm)
        history: list[float] = []
        if self.problem.cycle.kind == "FMG":
            self._timed("fmg", self._fmg_ramp)
        for it in range(1, max_cycles + 1):
            self._timed("cycle", self._cycle, 0)
            rn = self.residual_norm()
            history.append(rn)
            if on_iteration is not None:
                on_iteration(it, rn)
            if not math.isfinite(rn):
                return it, history, False
            if rn <= target:
                return it, history, True
        return max_cycles, history, False

    # -- internals ----------------------------------------------------------

    def _timed(self, section: str, fn: Callable[..., object],
               *args: object) -> None:
        if self.monitor is None:
            fn(*args)
            return
        t0 = time.perf_counter()
        fn(*args)
        self.monitor.add(  # type: ignore[attr-defined]
            section, time.perf_counter() - t0)

    def _smooth(self, lev: _Level, sweeps: int) -> None:
        for _ in range(sweeps):
            lev.smoother.sweep(lev.u, lev.f)

    def _cycle(self, li: int) -> None:
        cyc = self.problem.cycle
        lev = self.levels[li]
        if li == len(self.levels) - 1:
            self._smooth(lev, cyc.coarse_sweeps)
            return
        coarse = self.levels[li + 1]
        self._smooth(lev, cyc.npre)
        lev.smoother.residual(lev.u, lev.f, lev.r)
        restrict_cc(lev.r, coarse.f, ws=self.ws)
        coarse.u.fill(0.0)
        for _ in range(cyc.gamma):
            self._cycle(li + 1)
        corr = prolong_cc(coarse.u, ws=self.ws)
        np.add(lev.ui, corr, out=lev.ui)
        lev.boundary.fill(lev.u)
        self._smooth(lev, cyc.npost)

    def _fmg_ramp(self) -> None:
        """Full-multigrid initialisation: restrict the right-hand side
        to every level, solve coarsest-first, prolongate solutions."""
        cyc = self.problem.cycle
        levels = self.levels
        for li in range(len(levels) - 1):
            restrict_cc(levels[li].f, levels[li + 1].f, ws=self.ws)
        bottom = levels[-1]
        bottom.u.fill(0.0)
        self._smooth(bottom, cyc.coarse_sweeps)
        for li in range(len(levels) - 2, -1, -1):
            lev = levels[li]
            sol = prolong_cc(levels[li + 1].u, ws=self.ws)
            lev.ui[...] = sol
            lev.boundary.fill(lev.u)
            for _ in range(cyc.fmg_cycles):
                self._cycle(li)
