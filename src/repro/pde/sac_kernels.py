"""The SAC expression of the variable-coefficient relax.

``varrelax.sac`` spells the family's variable-coefficient stencil in
the paper's rank-polymorphic style: one coefficient *field* per
Manhattan-distance class, selected per point inside the WITH-loop
(``VarStencilSum`` / ``VarRelaxKernel``).  This module loads that
program through the same driver pipeline as ``mg.sac`` — typecheck,
static analysis gate (every WITH-loop certified race-free, no spurious
memory-effects findings), optimizer — and exposes the kernel to the
NumPy side for twin-testing against
:func:`repro.core.stencils.relax_variable`.

The SAC fold sums the 27 (rank-3) stencil terms in a different
association order than the grouped NumPy kernel, so the twins agree to
floating-point tolerance, not bit-for-bit — the same contract the
compiled NPB kernels carry.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "varrelax_source_path",
    "load_varrelax_program",
    "sac_relax_variable",
]


def varrelax_source_path() -> Path:
    """Filesystem path of the packaged ``varrelax.sac`` source."""
    return Path(__file__).with_name("varrelax.sac")


@lru_cache(maxsize=None)
def load_varrelax_program(optimize: bool = True, analyze: bool = True):
    """Load (and memoize) the variable-coefficient relax program.

    Same build gate as ``mg_sac.loader.load_mg_program``: with
    ``analyze`` on, the program must come out of the static analyzer
    free of error-severity findings and SPMD-certified, or
    :class:`~repro.sac.errors.SacAnalysisError` is raised.
    """
    from repro.sac import CompileOptions
    from repro.sac.module import load_spmd_certified

    return load_spmd_certified(
        varrelax_source_path(),
        CompileOptions(optimize=optimize, analyze=analyze))


def sac_relax_variable(u: np.ndarray,
                       cfields: Sequence[np.ndarray]) -> np.ndarray:
    """``VarRelax(u, c0..c3)`` through the SAC pipeline.

    ``cfields`` are the four per-class coefficient fields in ``u``'s
    extended shape (the :func:`repro.core.stencils.relax_variable`
    calling convention).  Returns a fresh array with zeroed borders.
    """
    if len(cfields) != 4:
        raise ValueError(f"expected 4 coefficient fields, "
                         f"got {len(cfields)}")
    program = load_varrelax_program()
    out = program.call("VarRelax", np.asarray(u, dtype=np.float64),
                       *(np.asarray(c, dtype=np.float64) for c in cfields))
    return np.asarray(out)
