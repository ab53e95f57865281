"""Concrete workloads of the stencil/PDE solver family.

Four shipped members (see ``docs/WORKLOADS.md``):

``npb-mg``
    the paper's benchmark, *unchanged*: the 27-point periodic V-cycle
    solved bit-identically by ``core.mg`` / ``runtime.parallel_mg``
    with its own fixed class vectors, not through a spec.
``variable-poisson``
    3-D variable-coefficient Poisson ``-div(k grad u) = f`` with
    homogeneous Dirichlet boundaries, weighted-Jacobi V-cycles.
``dirichlet-fmg``
    3-D constant-coefficient Poisson with homogeneous Dirichlet
    boundaries, solved by full multigrid with red-black Gauss-Seidel.
``heat2d``
    2-D heat equation with insulated (Neumann) boundaries stepped by
    implicit Euler, each step a V-cycle solve — the rank-polymorphism
    proof: identical solver source, rank 2 instead of 3.

Every workload resolves its grid size from the NPB size classes so the
whole CLI surface (``--problem`` x ``-c``) composes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.classes import get_class

from .cycles import PDESolver
from .specs import (
    BoundarySpec,
    CycleSpec,
    FloatArray,
    ProblemSpec,
    SmootherSpec,
    StencilSpec,
)

__all__ = [
    "PDEResult",
    "Workload",
    "NpbMgWorkload",
    "VariablePoissonWorkload",
    "DirichletFmgWorkload",
    "Heat2DWorkload",
    "PROBLEMS",
    "get_workload",
    "solve_problem",
]


@dataclass
class PDEResult:
    """Result of a family-member solve (duck-compatible with
    :class:`repro.core.mg.MGResult` where the harness and supervisor
    need it: ``u``, ``rnm2``, ``verified``)."""

    problem: str
    nx: int
    mode: str
    u: FloatArray
    rnm2: float
    iterations: int
    history: tuple[float, ...]
    converged: bool

    @property
    def verified(self) -> bool:
        return self.converged


def _centers(nx: int, ndim: int) -> list[FloatArray]:
    """Sparse cell-centre coordinate grids of the unit box."""
    x = (np.arange(nx, dtype=np.float64) + 0.5) / nx
    return [x.reshape((1,) * a + (-1,) + (1,) * (ndim - a - 1))
            for a in range(ndim)]


class Workload:
    """One family member: a frozen spec plus its data (rhs, fields)."""

    #: Overridden by members.
    name = "base"

    def __init__(self, spec: ProblemSpec):
        self.spec = spec

    # -- hooks --------------------------------------------------------------

    def coefficient(self) -> Callable[..., FloatArray] | None:
        """The diffusivity field for variable-coefficient stencils."""
        return None

    def rhs(self, nx: int) -> FloatArray:
        raise NotImplementedError

    def grid_size(self, size_class: str) -> int:
        return get_class(size_class).nx

    # -- solving ------------------------------------------------------------

    def solve(self, size_class: str = "S", *, mode: str = "serial",
              nthreads: int = 4, workspace: object = None,
              monitor: object = None, tol: float = 1.0e-9,
              max_cycles: int = 60,
              on_iteration: Callable[[int, float], None] | None = None,
              ) -> PDEResult:
        nx = self.grid_size(size_class)
        team = None
        try:
            if mode == "threaded":
                from repro.runtime.executor import ThreadTeam
                team = ThreadTeam(nthreads)
            elif mode != "serial":
                raise ValueError(
                    f"problem {self.name!r} supports serial and threaded "
                    f"modes, not {mode!r}")
            solver = PDESolver(self.spec, nx,
                               coefficient=self.coefficient(),
                               workspace=workspace, team=team,
                               monitor=monitor)
            return self._run(solver, nx, mode, tol, max_cycles,
                             on_iteration)
        finally:
            if team is not None:
                team.shutdown()

    def _run(self, solver: PDESolver, nx: int, mode: str, tol: float,
             max_cycles: int,
             on_iteration: Callable[[int, float], None] | None,
             ) -> PDEResult:
        solver.reset()
        solver.set_rhs(self.rhs(nx))
        it, history, converged = solver.run(
            tol=tol, max_cycles=max_cycles, on_iteration=on_iteration)
        return PDEResult(
            problem=self.spec.name, nx=nx, mode=mode, u=solver.u,
            rnm2=history[-1] if history else float("nan"),
            iterations=it, history=tuple(history), converged=converged)


class NpbMgWorkload(Workload):
    """The benchmark itself, routed through the untouched NPB stack."""

    name = "npb-mg"

    def __init__(self) -> None:
        super().__init__(ProblemSpec(
            name="npb-mg", ndim=3,
            stencil=StencilSpec.poisson(),
            boundary=BoundarySpec.periodic(),
            smoother=SmootherSpec.jacobi(weight=1.0),
            cycle=CycleSpec.v(npre=1, npost=1),
        ))

    def solve(self, size_class: str = "S", *, mode: str = "serial",
              nthreads: int = 4, workspace: object = None,
              monitor: object = None, tol: float = 1.0e-9,
              max_cycles: int = 60,
              on_iteration: Callable[[int, float], None] | None = None,
              ) -> PDEResult:
        # NPB verification replaces the residual-tolerance contract, so
        # this returns core.mg's MGResult (duck-compatible per above).
        if mode == "serial":
            from repro.core.mg import solve as serial_solve
            res: PDEResult = serial_solve(size_class, ws=workspace,
                                          monitor=monitor,
                                          on_iteration=on_iteration)
            return res
        if mode == "threaded":
            from repro.runtime.parallel_mg import ParallelMG
            with ParallelMG(nthreads, workspace=workspace is not None,
                            monitor=monitor) as pmg:
                res = pmg.solve(size_class, on_iteration=on_iteration)
            return res
        raise ValueError(f"unsupported mode {mode!r} for npb-mg "
                         "(serial or threaded; distributed runs go "
                         "through runtime.spmd.DistributedMG)")


class VariablePoissonWorkload(Workload):
    """``-div(k grad u) = f`` with ``k`` smooth and positive."""

    name = "variable-poisson"

    def __init__(self) -> None:
        super().__init__(ProblemSpec(
            name="variable-poisson", ndim=3,
            stencil=StencilSpec.variable("k-sines"),
            boundary=BoundarySpec.dirichlet(),
            smoother=SmootherSpec.jacobi(weight=0.8),
            cycle=CycleSpec.v(npre=2, npost=2),
        ))

    def coefficient(self) -> Callable[..., FloatArray]:
        def k(x: FloatArray, y: FloatArray, z: FloatArray) -> FloatArray:
            out: FloatArray = 1.0 + 0.5 * (
                np.sin(2.0 * np.pi * x)
                * np.sin(2.0 * np.pi * y)
                * np.sin(2.0 * np.pi * z))
            return out
        return k

    def rhs(self, nx: int) -> FloatArray:
        x, y, z = _centers(nx, 3)
        out: FloatArray = (np.sin(np.pi * x) * np.sin(np.pi * y)
                           * np.sin(np.pi * z))
        return np.ascontiguousarray(np.broadcast_to(out, (nx,) * 3))


class DirichletFmgWorkload(Workload):
    """Constant-coefficient Dirichlet Poisson by FMG + red-black GS."""

    name = "dirichlet-fmg"

    def __init__(self) -> None:
        super().__init__(ProblemSpec(
            name="dirichlet-fmg", ndim=3,
            stencil=StencilSpec.poisson(),
            boundary=BoundarySpec.dirichlet(),
            smoother=SmootherSpec.rbgs(),
            cycle=CycleSpec.fmg(npre=2, npost=2),
        ))

    def rhs(self, nx: int) -> FloatArray:
        x, y, z = _centers(nx, 3)
        out: FloatArray = (np.sin(np.pi * x) * np.sin(2.0 * np.pi * y)
                           * np.sin(np.pi * z))
        return np.ascontiguousarray(np.broadcast_to(out, (nx,) * 3))


class Heat2DWorkload(Workload):
    """2-D heat equation, insulated boundaries, implicit Euler.

    Solves ``(I/dt + A) u_next = u_prev / dt`` per step with V-cycles;
    rank 2 throughout — the same solver source as the 3-D members.
    """

    name = "heat2d"
    #: Implicit-Euler step size and step count.
    dt = 2.0e-3
    steps = 4

    def __init__(self) -> None:
        super().__init__(ProblemSpec(
            name="heat2d", ndim=2,
            stencil=StencilSpec.poisson(),
            boundary=BoundarySpec.neumann(),
            smoother=SmootherSpec.jacobi(weight=0.8),
            cycle=CycleSpec.v(npre=2, npost=2),
            sigma=1.0 / self.dt,
        ))

    def initial(self, nx: int) -> FloatArray:
        """The initial temperature field (an exact discrete eigenmode
        of the mirrored five-point Laplacian)."""
        x, y = _centers(nx, 2)
        out: FloatArray = np.cos(np.pi * x) * np.cos(np.pi * y)
        return np.ascontiguousarray(np.broadcast_to(out, (nx,) * 2))

    def rhs(self, nx: int) -> FloatArray:
        return self.spec.sigma * self.initial(nx)

    def _run(self, solver: PDESolver, nx: int, mode: str, tol: float,
             max_cycles: int,
             on_iteration: Callable[[int, float], None] | None,
             ) -> PDEResult:
        solver.reset()
        solver.u[(slice(1, -1),) * 2][...] = self.initial(nx)
        self.spec.boundary.fill(solver.u)
        total = 0
        history: list[float] = []
        converged = True
        for _ in range(self.steps):
            solver.set_rhs(
                self.spec.sigma * solver.u[(slice(1, -1),) * 2])
            it, hist, ok = solver.run(tol=tol, max_cycles=max_cycles,
                                      on_iteration=on_iteration)
            total += it
            history.extend(hist)
            converged = converged and ok
        return PDEResult(
            problem=self.spec.name, nx=nx, mode=mode, u=solver.u,
            rnm2=history[-1] if history else float("nan"),
            iterations=total, history=tuple(history),
            converged=converged)


_WORKLOADS: tuple[type[Workload], ...] = (
    NpbMgWorkload,
    VariablePoissonWorkload,
    DirichletFmgWorkload,
    Heat2DWorkload,
)

#: Name -> workload class, the family registry.
PROBLEMS: dict[str, type[Workload]] = {w.name: w for w in _WORKLOADS}


def get_workload(name: str) -> Workload:
    try:
        return PROBLEMS[name]()
    except KeyError:
        raise ValueError(
            f"unknown problem {name!r} "
            f"(choose from {', '.join(sorted(PROBLEMS))})") from None


def solve_problem(name: str, size_class: str = "S", *,
                  mode: str = "serial", nthreads: int = 4,
                  workspace: object = None, monitor: object = None,
                  tol: float = 1.0e-9, max_cycles: int = 60,
                  on_iteration: Callable[[int, float], None] | None = None,
                  ) -> PDEResult:
    """Solve any family member by name (the CLI/supervisor entry)."""
    return get_workload(name).solve(
        size_class, mode=mode, nthreads=nthreads, workspace=workspace,
        monitor=monitor, tol=tol, max_cycles=max_cycles,
        on_iteration=on_iteration)
