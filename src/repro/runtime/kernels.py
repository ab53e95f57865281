"""Compiled SAC kernels for the parallel and SPMD runtimes.

The runtimes' chunk kernels are hand-vectorized NumPy.  This module
offers the alternative the paper actually describes: the *compiled SAC
program* supplies the stencil kernel, and the runtime supplies the
parallel orchestration around it.  :class:`SacKernelLibrary` compiles
``mg.sac``'s shape-polymorphic ``RelaxKernel`` once per slab shape
through the driver's shared content-addressed cache
(:mod:`repro.sac.driver.cache`) and serves every thread and SPMD rank
from the same compiled artifact — per-rank kernel *reuse*, not per-rank
recompilation.  A warm process (or a second run on the same machine)
loads the specialization from disk without tracing at all.

One kernel serves both sweeps because the coefficient vector stays
symbolic in the specialization (float64 arrays are shape-baked only):

* residual: ``r = v - RelaxKernel(u, CoeffA)`` on the interior,
* smoother: ``u += RelaxKernel(r, CoeffS)`` on the interior.

Only the interior is written — borders stay whatever they were, and the
runtime's existing border machinery (``comm3`` on the master, the SPMD
halo exchange) repairs them exactly as it does for the NumPy kernels.
The SAC fold sums the 27 stencil terms in a different association order
than the expression-exact chunk kernels, so results agree to floating-
point tolerance rather than bit-for-bit; NPB's verification tolerance
(1e-8 relative, ``MGResult.verified``) absorbs this.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["SacKernelLibrary"]

#: Interior of a 3-D extended array.
_INNER = (slice(1, -1), slice(1, -1), slice(1, -1))


class SacKernelLibrary:
    """Shape-indexed compiled ``RelaxKernel`` specializations.

    Thread-safe: any number of worker threads / SPMD ranks may request
    kernels concurrently; each distinct slab shape is compiled once (or
    loaded once from the shared on-disk cache) and then shared.
    """

    def __init__(self, *, session=None):
        self._session = session
        self._lock = threading.Lock()
        self._kernels: dict[tuple[int, ...], object] = {}
        #: Compilation attempts that raised (feeds the supervisor's
        #: compile circuit breaker alongside the cache's per-key
        #: discard counters).
        self.compile_failures = 0

    # -- plumbing -----------------------------------------------------------

    def _get_session(self):
        if self._session is None:
            from repro.mg_sac.loader import load_mg_program

            self._session = load_mg_program().session
        return self._session

    def _compiled(self, shape: tuple[int, ...]):
        kernel = self._kernels.get(shape)
        if kernel is not None:
            return kernel
        with self._lock:
            kernel = self._kernels.get(shape)
            if kernel is None:
                try:
                    # Example values only pin shapes: float64 arrays stay
                    # symbolic, so the coefficient vector is a runtime
                    # argument of the compiled kernel.
                    kernel = self._get_session().compile_kernel(
                        "RelaxKernel", [np.zeros(shape), np.zeros(4)])
                except Exception:
                    self.compile_failures += 1
                    raise
                self._kernels[shape] = kernel
        return kernel

    @property
    def specialization_count(self) -> int:
        """How many distinct slab shapes this library has loaded."""
        return len(self._kernels)

    @property
    def cache_stats(self):
        """The shared kernel cache's counters (hits/misses/stores)."""
        return self._get_session().cache.stats

    # -- the stencil --------------------------------------------------------

    def relax(self, grid: np.ndarray, coeffs) -> np.ndarray:
        """``RelaxKernel(grid, coeffs)``: the 27-point weighted stencil
        on the interior, borders copied from ``grid``."""
        c = np.ascontiguousarray(coeffs, dtype=np.float64)
        kernel = self._compiled(grid.shape)
        return kernel(np.ascontiguousarray(grid), c)

    # -- slab sweeps (interior-only writes; borders are the runtime's) ------

    def resid_slab(self, u: np.ndarray, v: np.ndarray, a,
                   r: np.ndarray, z0: int, z1: int) -> None:
        """``r = v - A u`` on interior planes ``[z0, z1)`` of the
        extended arrays (compare ``core.mg.resid_chunk``)."""
        view = u[z0 : z1 + 2]
        au = self.relax(view, a)
        r[z0 + 1 : z1 + 1, 1:-1, 1:-1] = (
            v[z0 + 1 : z1 + 1, 1:-1, 1:-1] - au[_INNER]
        )

    def psinv_slab(self, r: np.ndarray, u: np.ndarray, c,
                   z0: int, z1: int) -> None:
        """``u += S r`` on interior planes ``[z0, z1)`` of the extended
        arrays (compare ``core.mg.psinv_chunk``)."""
        view = r[z0 : z1 + 2]
        sr = self.relax(view, c)
        u[z0 + 1 : z1 + 1, 1:-1, 1:-1] += sr[_INNER]
