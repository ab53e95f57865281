"""Shared-memory parallel MG kernels (implicit parallelization target).

Each V-cycle kernel is a dispatch of :mod:`repro.core.mg`'s plane-range
body (the *chunk kernel*) through a :class:`ThreadTeam` region —
exactly the code shape the SAC compiler emits for its multithreaded
WITH-loops, including its choice to run small loops sequentially: the
team forks a region or runs it inline as one chunk, whichever it
measured faster for that operator and grid shape once both partitions
were warm.  The master runs the first chunk of a fork and the workers
the rest, each writing a disjoint plane slab of the shared output
array; the border exchange (``comm3``) runs on the master between
regions, as in SAC's runtime.

The chunk kernels are the serial kernels' own arithmetic, so parallel
results are bit-identical to serial ones for any team size and
partition (tested) — determinism the paper's runtime also provides.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.classes import SizeClass
from repro.core.grid import comm3
from repro.core.mg import (
    MGKernels,
    MGResult,
    check_interp_shapes,
    coarse_interior,
    interp_chunk,
    numpy_kernels,
    psinv_chunk,
    resid_chunk,
    rprj3_chunk,
    run,
)
from repro.core.stencils import _scratch

from .executor import ThreadTeam

__all__ = [
    "resid_chunk",
    "psinv_chunk",
    "rprj3_chunk",
    "interp_chunk",
    "parallel_resid",
    "parallel_psinv",
    "parallel_rprj3",
    "parallel_interp_add",
    "ParallelMG",
]


def parallel_resid(u: np.ndarray, v: np.ndarray, a, team: ThreadTeam,
                   _retired=None, ws=None, *, out=None) -> np.ndarray:
    """``r = v - A u``.  ``out`` (default: the pooled buffer when ``ws``
    is given) is fully overwritten — interior by the chunks, which tile
    all planes, ghosts by the master-side ``comm3``.  It may alias ``v``
    as in ``core.mg.resid``.

    The fifth positional slot (here and in :func:`parallel_psinv`) is
    unused; it stays so that callers passing ``ws`` sixth keep working.
    """
    r = _scratch(ws, "resid.out", u.shape) if out is None else out
    team.region(("resid", u.shape), lambda c: resid_chunk(
        u, v, a, r, c.lo[0], c.hi[0], ws), u.shape[0] - 2)
    return comm3(r)


def parallel_psinv(r: np.ndarray, u: np.ndarray, c, team: ThreadTeam,
                   _retired=None, ws=None) -> np.ndarray:
    team.region(("psinv", u.shape), lambda ch: psinv_chunk(
        r, u, c, ch.lo[0], ch.hi[0], ws), u.shape[0] - 2)
    return comm3(u)


def parallel_rprj3(r: np.ndarray, team: ThreadTeam, ws=None) -> np.ndarray:
    mj = coarse_interior(r)
    # Fully overwritten: interior by the chunks, ghosts by comm3.
    s = _scratch(ws, "rprj3.out", (mj + 2,) * 3)
    team.region(("rprj3", r.shape), lambda c: rprj3_chunk(
        r, s, c.lo[0], c.hi[0], ws), mj)
    return comm3(s)


def parallel_interp_add(z: np.ndarray, u: np.ndarray, team: ThreadTeam,
                        ws=None) -> np.ndarray:
    check_interp_shapes(z, u)
    team.region(("interp", u.shape), lambda c: interp_chunk(
        z, u, c.lo[0], c.hi[0], ws), z.shape[0] - 1)
    return u


class ParallelMG:
    """The full benchmark through the fork-join kernels, bit-identical
    to serial.

    The solver keeps one :class:`ThreadTeam` for its lifetime, so the
    team's measured fork policy (see :meth:`ThreadTeam.region`) learned
    in one solve — a warm-up of at least four V-cycles, say — serves
    every later one; :attr:`decisions` shows it.  :meth:`close` (or
    ``with``) joins the workers; an unclosed solver's workers exit when
    it is collected.
    """

    def __init__(self, nthreads: int, *, workspace=False, monitor=None):
        self.nthreads = nthreads
        #: Persistent scratch pool, shared across solves so repeated
        #: runs stay allocation-free.  ``workspace=True`` creates one;
        #: a Workspace instance is used as-is.
        if workspace is True:
            from repro.perf.workspace import Workspace

            self.workspace = Workspace("parallel-mg")
        else:
            self.workspace = workspace or None
        #: Master-side per-operator timer (any ``add(section, dt)``).
        self.monitor = monitor
        self.team = ThreadTeam(nthreads)

    def _table(self) -> MGKernels:
        """The fork-join table over this solver's team and pool."""
        team, ws = self.team, self.workspace
        return replace(
            numpy_kernels(ws),  # its (pooled) correction grids
            resid=lambda u, v, a, out=None: parallel_resid(
                u, v, a, team, ws=ws, out=out),
            psinv=lambda r, u, c: parallel_psinv(r, u, c, team, ws=ws),
            rprj3=lambda r: parallel_rprj3(r, team, ws),
            interp_add=lambda z, u: parallel_interp_add(z, u, team, ws),
        )

    @property
    def decisions(self):
        """The team's fork-policy table: ``(op, grid shape)`` ->
        :class:`~repro.runtime.executor.Decision` (forked?, t_inline,
        t_forked) — why each level ran inline or forked.  The timings
        are each key's third (inline) and fourth (forked) visit, both
        on warm scratch; a key enters the table at its third visit."""
        return self.team.decisions

    def close(self) -> None:
        self.team.shutdown()

    def __enter__(self) -> "ParallelMG":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def solve(self, size_class: str | SizeClass,
              nit: int | None = None, *, v: np.ndarray | None = None,
              on_iteration=None) -> MGResult:
        """The timed section over the fork-join table; ``v`` is the
        right-hand side (``None``: built here with ``zran3``, which is
        set-up — see :func:`repro.core.mg.checked_rhs`)."""
        return run(self._table(), size_class, nit, v=v,
                   on_iteration=on_iteration, monitor=self.monitor)
