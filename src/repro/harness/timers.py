"""NPB-style section timers.

``mg.f`` (with ``TIMING_ENABLED``) reports how the benchmark's time
splits across the V-cycle kernels.  :func:`timed_solve` reproduces that:
it runs any implementation's kernel table with a
:class:`~repro.core.timers.SectionTimers` as the monitor, so every
kernel call is attributed to its section, and returns the per-kernel
totals.
"""

from __future__ import annotations

from repro.baselines.common import MGKernels, run_mg
from repro.baselines.fortran_mg import FORTRAN_KERNELS
from repro.core.classes import SizeClass
from repro.core.mg import MGResult, timed_kernels
from repro.core.timers import SectionTimers

__all__ = ["SectionTimers", "timed_kernels", "timed_solve"]


def timed_solve(size_class: str | SizeClass, nit: int | None = None,
                kernels: MGKernels = FORTRAN_KERNELS,
                ) -> tuple[MGResult, SectionTimers]:
    """Run the benchmark with per-kernel timing attribution."""
    timers = SectionTimers()
    return run_mg(kernels, size_class, nit, monitor=timers), timers
