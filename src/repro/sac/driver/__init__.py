"""The compiler driver: sessions, the pass manager, the kernel cache.

This package is the seam between the individual compiler components
(parser, typechecker, analyzer, optimization passes, codegen backend)
and their consumers.  It owns three pieces:

* :mod:`repro.sac.driver.passes` — the one table of optimization
  passes, the schedule derived from it, and the instrumented
  :class:`PassManager`: every execution records wall time and rewrite
  counts.
* :mod:`repro.sac.driver.cache` — a content-addressed
  in-process :class:`KernelCache` for optimized programs and
  compiled kernel specializations, keyed by source digest × the
  compile options that decide the program × shape signature.
* :mod:`repro.sac.driver.session` — :class:`CompilationSession`, the
  staged pipeline (parsed → linked → typechecked → analyzed →
  optimized → backend) that owns the artifacts, reports which stages
  were served from cache, and hands consumers a ready interpreter.

See ``docs/COMPILER.md`` for the full stage/artifact model.
"""

from __future__ import annotations

from .cache import (
    KernelCache,
    default_cache,
    kernel_key,
    program_key,
    shape_signature,
    source_digest,
)
from .passes import (
    PASSES,
    PassExecution,
    PassManager,
    PassReport,
    schedule_for,
)
from .session import CompilationSession, StageRecord

__all__ = [
    "CompilationSession",
    "StageRecord",
    "PASSES",
    "PassManager",
    "PassExecution",
    "PassReport",
    "schedule_for",
    "KernelCache",
    "default_cache",
    "kernel_key",
    "program_key",
    "shape_signature",
    "source_digest",
]
