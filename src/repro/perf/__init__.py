"""Performance layer: workspace pooling.

The paper's §5 traces SAC's gap to Fortran to memory management;
:mod:`~repro.perf.workspace` removes the per-operation allocations from
the hot path (the NPB static-workspace layout).  Timing lives in
:mod:`repro.core.timers`; the benchmark is ``benchmarks/e2e/run.py``
(``docs/PERF.md``).
"""

from .workspace import Workspace, WorkspaceCounters

__all__ = ["Workspace", "WorkspaceCounters"]
