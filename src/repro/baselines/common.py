"""Shared driver for the comparison implementations.

The paper's evaluation compares three *implementation styles* of the
same benchmark: the Fortran-77 reference, the RWCP C/OpenMP port, and
the high-level SAC program.  The Fortran and C styles provide their
four V-cycle kernels as an :class:`~repro.core.mg.MGKernels` table and
run them through the one NPB control flow, :func:`repro.core.mg.run`,
so that they differ only where the originals differ — in how the
kernels are written; the SAC program is compiled from its own text.
"""

from __future__ import annotations

import numpy as np

from repro.core.classes import SizeClass
from repro.core.mg import MGKernels, MGResult, run

__all__ = ["MGKernels", "MGImplementation"]


class MGImplementation:
    """A named, benchmarkable MG implementation style."""

    #: Short identifier: the ``IMPLEMENTATIONS`` key, used in reports.
    name: str = "base"
    #: Human-readable label as the paper prints it.
    label: str = "base"
    #: The style's kernel table (a style with a control flow of its own
    #: overrides :meth:`solve` instead).
    kernels: MGKernels

    def solve(self, size_class: str | SizeClass, nit: int | None = None, *,
              v: np.ndarray | None = None) -> MGResult:
        """Run the benchmark's timed section on the right-hand side
        ``v`` (``None``: built here with ``zran3``, which is set-up —
        see :func:`repro.core.mg.checked_rhs`).  To observe a style's
        solve, pass its :attr:`kernels` to :func:`repro.core.mg.run`
        with ``monitor=``/``on_iteration=``."""
        return run(self.kernels, size_class, nit, v=v)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
