"""Frozen problem specifications for the stencil/PDE solver family.

The paper presents NPB MG as *one* instance of what SAC's shape- and
rank-polymorphic WITH-loops express generically.  This module names the
axes along which that family varies:

* :class:`StencilSpec` — what the discrete operator looks like
  (constant-coefficient class stencil, variable-coefficient, or
  anisotropic),
* :class:`BoundarySpec` — how ghost layers are filled (periodic /
  Dirichlet / Neumann), replacing the implicit ``comm3``-everywhere
  assumption,
* :class:`SmootherSpec` — weighted Jacobi (NPB's ``S`` is one) or
  red-black Gauss-Seidel,
* :class:`CycleSpec` — V, W, or full multigrid (FMG),
* :class:`ProblemSpec` — one named family member combining the above.

Specs are frozen dataclasses: hashable, comparable and validated at
construction.  They describe the members :mod:`repro.pde` solves with
its own cell-centred solver; the NPB benchmark (``npb-mg``) keeps its
fixed A/S/P/Q class vectors in :mod:`repro.core.stencils` and its
periodic ``comm3``, and reads nothing here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import numpy.typing as npt

from repro.core.grid import ghost_fill

FloatArray = npt.NDArray[np.float64]

__all__ = [
    "FloatArray",
    "StencilSpec",
    "BoundarySpec",
    "SmootherSpec",
    "CycleSpec",
    "ProblemSpec",
]

_STENCIL_KINDS = ("constant", "variable", "anisotropic")
_BOUNDARY_KINDS = ("periodic", "dirichlet", "neumann")
_SMOOTHER_KINDS = ("weighted-jacobi", "rbgs")
_CYCLE_KINDS = ("V", "W", "FMG")


@dataclass(frozen=True)
class StencilSpec:
    """Coefficient taxonomy of the discrete operator.

    ``kind="constant"``
        one coefficient per Manhattan-distance class (NPB's 4-vectors)
        or per face (the 7/5-point Laplacian, all axes alike).
    ``kind="variable"``
        coefficients vary per point: a named diffusivity field ``k(x)``
        discretised at cell faces (``-div(k grad u)``).
    ``kind="anisotropic"``
        constant per axis but different across axes.
    """

    kind: str
    #: Per-axis diffusivities for ``kind="anisotropic"``.
    axis_coeffs: tuple[float, ...] | None = None
    #: Name of the diffusivity field for ``kind="variable"``.
    coefficient: str = "unit"

    def __post_init__(self) -> None:
        if self.kind not in _STENCIL_KINDS:
            raise ValueError(f"unknown stencil kind {self.kind!r} "
                             f"(choose from {_STENCIL_KINDS})")
        if self.kind == "anisotropic" and not self.axis_coeffs:
            raise ValueError("anisotropic stencils need axis_coeffs")

    @classmethod
    def poisson(cls) -> "StencilSpec":
        """Constant-coefficient ``-laplace(u)`` (7-point in 3-D)."""
        return cls(kind="constant")

    @classmethod
    def variable(cls, coefficient: str) -> "StencilSpec":
        """Variable-coefficient ``-div(k grad u)`` with a named field."""
        return cls(kind="variable", coefficient=coefficient)

    @classmethod
    def anisotropic(cls, axis_coeffs: tuple[float, ...]) -> "StencilSpec":
        return cls(kind="anisotropic", axis_coeffs=axis_coeffs)


@dataclass(frozen=True)
class BoundarySpec:
    """How the ghost layer of an extended grid is filled.

    :meth:`fill` dispatches to :func:`repro.core.grid.ghost_fill`; the
    NPB ``comm3`` path is exactly ``BoundarySpec.periodic().fill``.
    """

    kind: str
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _BOUNDARY_KINDS:
            raise ValueError(f"unknown boundary kind {self.kind!r} "
                             f"(choose from {_BOUNDARY_KINDS})")

    def fill(self, u: FloatArray) -> FloatArray:
        """Refresh ``u``'s ghost layers in place; returns ``u``."""
        return ghost_fill(u, self.kind, self.value)

    def homogeneous(self) -> "BoundarySpec":
        """The matching boundary for correction equations (value 0)."""
        if self.value == 0.0:
            return self
        return replace(self, value=0.0)

    @classmethod
    def periodic(cls) -> "BoundarySpec":
        return cls(kind="periodic")

    @classmethod
    def dirichlet(cls, value: float = 0.0) -> "BoundarySpec":
        return cls(kind="dirichlet", value=value)

    @classmethod
    def neumann(cls) -> "BoundarySpec":
        return cls(kind="neumann")


@dataclass(frozen=True)
class SmootherSpec:
    """The relaxation used inside a cycle.

    ``weighted-jacobi`` damped simultaneous relaxation (NPB's ``S``
    stencils are a hand-tuned instance of this family); ``rbgs``
    red-black Gauss-Seidel, which decouples exactly on faces-only
    (7/5-point) stencils.
    """

    kind: str
    #: Damping factor for weighted Jacobi (ignored by rbgs).
    weight: float = 0.8

    def __post_init__(self) -> None:
        if self.kind not in _SMOOTHER_KINDS:
            raise ValueError(f"unknown smoother kind {self.kind!r} "
                             f"(choose from {_SMOOTHER_KINDS})")
        if not (0.0 < self.weight <= 1.0):
            raise ValueError(f"smoother weight must be in (0, 1], "
                             f"got {self.weight}")

    @classmethod
    def jacobi(cls, weight: float = 0.8) -> "SmootherSpec":
        return cls(kind="weighted-jacobi", weight=weight)

    @classmethod
    def rbgs(cls) -> "SmootherSpec":
        return cls(kind="rbgs", weight=1.0)


@dataclass(frozen=True)
class CycleSpec:
    """Multigrid cycling strategy."""

    kind: str
    #: Pre-smoothing sweeps per level.
    npre: int = 2
    #: Post-smoothing sweeps per level.
    npost: int = 2
    #: Smoother sweeps used as the coarsest-level solve.
    coarse_sweeps: int = 32
    #: V-cycles per level during the FMG ramp-up.
    fmg_cycles: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _CYCLE_KINDS:
            raise ValueError(f"unknown cycle kind {self.kind!r} "
                             f"(choose from {_CYCLE_KINDS})")
        if min(self.npre, self.npost) < 0 or self.npre + self.npost == 0:
            raise ValueError("cycles need at least one smoothing sweep")
        if self.coarse_sweeps < 1:
            raise ValueError("coarse_sweeps must be >= 1")

    @property
    def gamma(self) -> int:
        """Recursive visits per coarse level (1 for V/FMG, 2 for W)."""
        return 2 if self.kind == "W" else 1

    @classmethod
    def v(cls, npre: int = 2, npost: int = 2) -> "CycleSpec":
        return cls(kind="V", npre=npre, npost=npost)

    @classmethod
    def w(cls, npre: int = 2, npost: int = 2) -> "CycleSpec":
        return cls(kind="W", npre=npre, npost=npost)

    @classmethod
    def fmg(cls, npre: int = 2, npost: int = 2,
            fmg_cycles: int = 1) -> "CycleSpec":
        return cls(kind="FMG", npre=npre, npost=npost,
                   fmg_cycles=fmg_cycles)


@dataclass(frozen=True)
class ProblemSpec:
    """One named member of the solver family."""

    name: str
    ndim: int
    stencil: StencilSpec
    boundary: BoundarySpec
    smoother: SmootherSpec
    cycle: CycleSpec
    #: Helmholtz shift: the operator solved is ``sigma*I + A``.
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.ndim < 1:
            raise ValueError(f"ndim must be >= 1, got {self.ndim}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
