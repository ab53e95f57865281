"""The paper's SAC program (``mg_sac/mg.sac``), compiled.

Runs the generated NumPy module of ``mg.sac`` behind the common
comparison interface (see :func:`repro.mg_sac.loader.solve_generated_mg`).
The compiler is imported on the first solve, so importing the baselines
does not load it.
"""

from __future__ import annotations

from .common import MGImplementation

__all__ = ["SacMG"]


class SacMG(MGImplementation):
    """The generated ``mg.sac``: S(a) classes, the residual norm only."""

    name = "sac"
    label = "SAC (generated mg.sac)"

    def solve(self, size_class, nit=None, *, v=None):
        from repro.mg_sac.loader import solve_generated_mg

        return solve_generated_mg(size_class, nit, v=v)
