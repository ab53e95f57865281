"""Fork-join thread team (the SAC multithreaded runtime's shape).

SAC's compiler emits, for each parallelizable WITH-loop, a fork-join
region: the master wakes a team of worker threads, each executes its
share of the iteration space against shared memory, and a barrier joins
them before sequential execution resumes [13].  :class:`ThreadTeam`
reproduces that structure with the caller as a team member: a team of
``n`` keeps ``n - 1`` persistent worker threads, and the caller runs
the first chunk of every fork itself.  NumPy ufuncs release the GIL on
large arrays, so whole-slab chunk kernels do overlap on a multi-core
box; what does not shrink with the grid is the cost of the fork itself
(the paper's §5 point), which sac2c answers by running small WITH-loops
sequentially.  :meth:`ThreadTeam.region` makes the same choice by
measurement: each (op, grid shape) key runs inline and forked once
untimed, to warm both partitions' pages, then once more each timed, and
keeps the faster.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Hashable, Mapping, Sequence

from .resilience.errors import TeamError
from .scheduler import Chunk, block_partition

__all__ = ["ThreadTeam", "Decision"]


@dataclass(frozen=True)
class Decision:
    """One row of a team's fork policy: the two timed calibration visits
    of a region key and the verdict (``None`` until both are taken)."""

    forked: bool | None = None
    t_inline: float | None = None
    t_forked: float | None = None


class ThreadTeam:
    """A reusable fork-join team: the caller and ``nthreads - 1`` workers.

    Use as a context manager, or call :meth:`shutdown` explicitly::

        with ThreadTeam(4) as team:
            team.run(kernel, chunks)
    """

    def __init__(self, nthreads: int, *, clock=time.perf_counter):
        if nthreads < 1:
            raise ValueError("a team needs at least one thread")
        self.nthreads = nthreads
        self._pool = ThreadPoolExecutor(
            max_workers=nthreads - 1, thread_name_prefix="sac-worker"
        ) if nthreads > 1 else None
        self._closed = False
        #: Regions executed, and how many of them really forked.
        self.regions = 0
        self.forks = 0
        self._clock = clock
        self._decisions: dict[Hashable, Decision] = {}
        self._visits: Counter[Hashable] = Counter()
        self._lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "ThreadTeam":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        if not self._closed:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
            self._closed = True

    # -- execution ----------------------------------------------------------

    def run(self, kernel: Callable[[Chunk], None],
            chunks: Sequence[Chunk]) -> None:
        """Execute ``kernel`` over all chunks; returns after the barrier.

        The caller runs the first chunk (all of them when the team has
        no workers) while the workers run the rest.  Exceptions from the
        caller's chunk and the workers' propagate after every worker
        finished, like a failed SPMD region would abort.  A single
        failure is re-raised as-is; multiple failures surface as one
        composite :class:`~repro.runtime.resilience.errors.TeamError`
        carrying every cause, so no failure is ever shadowed.
        """
        if self._closed:
            raise RuntimeError("team has been shut down")
        work = [c for c in chunks if not c.is_empty]
        mine = 1 if self._pool is not None else len(work)
        with self._lock:
            self.regions += 1
            if len(work) > mine:
                self.forks += 1
        futures = [self._pool.submit(kernel, c) for c in work[mine:]]
        errors = []
        for c in work[:mine]:
            try:
                kernel(c)
            except Exception as exc:
                errors.append(exc)
        wait(futures)
        errors += [exc for f in futures if (exc := f.exception()) is not None]
        if len(errors) == 1:
            raise errors[0]
        if errors:
            raise TeamError(errors)

    @property
    def decisions(self) -> Mapping[Hashable, Decision]:
        """Read-only fork-policy table: region key -> :class:`Decision`."""
        return MappingProxyType(self._decisions)

    def region(self, key: Hashable, kernel: Callable[[Chunk], None],
               extent: int) -> None:
        """Run ``kernel`` over planes ``[0, extent)``, inline as one
        chunk or forked over the team, whichever measured faster.

        The first four visits of a ``key`` calibrate it: inline, forked,
        inline, forked.  The first two are not timed: they absorb pool
        growth and the first touch of each partition's scratch pages, so
        only warm visits are compared under the team's clock.  A visit
        that raised is run again.  Kernels must give the same result for
        any partition, so the choice never shows in the output.  Regions
        are issued by the master, one at a time.
        """
        inline = [Chunk((0,), (extent,))]
        if min(self.nthreads, extent) < 2:  # nothing to fork or to learn
            self.run(kernel, inline)
            return
        d = self._decisions.get(key, Decision())
        visit = self._visits[key]
        fork = visit % 2 == 1 if d.forked is None else d.forked
        chunks = block_partition((extent,), self.nthreads) if fork else inline
        if d.forked is not None:
            self.run(kernel, chunks)
            return
        if visit < 2:  # warm-up, untimed
            self.run(kernel, chunks)
        else:
            t0 = self._clock()
            self.run(kernel, chunks)
            dt = self._clock() - t0
            self._decisions[key] = (
                Decision(dt < d.t_inline, d.t_inline, dt) if fork
                else Decision(t_inline=dt))
        self._visits[key] += 1
