"""Fork-join thread team (the SAC multithreaded runtime's shape).

SAC's compiler emits, for each parallelizable WITH-loop, a fork-join
region: the master wakes a team of worker threads, each executes its
share of the iteration space against shared memory, and a barrier joins
them before sequential execution resumes [13].  :class:`ThreadTeam`
reproduces that structure with a persistent pool of Python threads.
NumPy ufuncs release the GIL on large arrays, so whole-slab chunk
kernels do overlap on a multi-core box; what does not shrink with the
grid is the cost of the fork itself (the paper's §5 point), which
sac2c answers by running small WITH-loops sequentially.
:meth:`ThreadTeam.region` makes the same choice by measurement: each
(op, grid shape) key runs once inline and once forked, then keeps the
faster.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Hashable, Mapping, Sequence

from .resilience.errors import TeamError
from .scheduler import Chunk, block_partition

__all__ = ["ThreadTeam", "Decision"]


@dataclass(frozen=True)
class Decision:
    """One row of a team's fork policy: the two calibration timings of a
    region key and the verdict (``None`` until both are taken)."""

    forked: bool | None = None
    t_inline: float | None = None
    t_forked: float | None = None


class ThreadTeam:
    """A reusable fork-join worker team.

    Use as a context manager, or call :meth:`shutdown` explicitly::

        with ThreadTeam(4) as team:
            team.run(kernel, chunks)
    """

    def __init__(self, nthreads: int, *, clock=time.perf_counter):
        if nthreads < 1:
            raise ValueError("a team needs at least one thread")
        self.nthreads = nthreads
        self._pool = ThreadPoolExecutor(
            max_workers=nthreads, thread_name_prefix="sac-worker"
        )
        self._closed = False
        #: Regions executed, and how many of them really forked.
        self.regions = 0
        self.forks = 0
        self._clock = clock
        self._decisions: dict[Hashable, Decision] = {}
        self._lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "ThreadTeam":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        if not self._closed:
            self._pool.shutdown(wait=True)
            self._closed = True

    # -- execution ----------------------------------------------------------

    def run(self, kernel: Callable[[Chunk], None],
            chunks: Sequence[Chunk]) -> None:
        """Execute ``kernel`` over all chunks; returns after the barrier.

        Exceptions raised by any worker propagate to the caller (after
        all workers finished), like a failed SPMD region would abort.  A
        single failure is re-raised as-is; multiple failures surface as
        one composite :class:`~repro.runtime.resilience.errors.TeamError`
        carrying every cause, so no worker failure is ever shadowed.
        """
        if self._closed:
            raise RuntimeError("team has been shut down")
        work = [c for c in chunks if not c.is_empty]
        with self._lock:
            self.regions += 1
        if not work:
            return
        if len(work) == 1:
            kernel(work[0])  # nothing to fork
            return
        with self._lock:
            self.forks += 1
        futures = [self._pool.submit(kernel, c) for c in work]
        done, _ = wait(futures)
        errors = [exc for f in done if (exc := f.exception()) is not None]
        if len(errors) == 1:
            raise errors[0]
        if errors:
            raise TeamError(errors)

    @property
    def decisions(self) -> Mapping[Hashable, Decision]:
        """Read-only fork-policy table: region key -> :class:`Decision`."""
        return MappingProxyType(self._decisions)

    def region(self, key: Hashable, kernel: Callable[[Chunk], None],
               extent: int, pool=None) -> None:
        """Run ``kernel`` over planes ``[0, extent)``, inline as one
        chunk or forked over the team, whichever measured faster.

        The first two visits of a ``key`` calibrate it (inline, then
        forked) under the team's clock.  A visit during which ``pool``
        (anything with an ``allocations`` counter) grew timed the
        allocator, not the kernel: it is run again.  Kernels must give
        the same result for any partition, so the choice never shows in
        the output.  Regions are issued by the master, one at a time.
        """
        inline = [Chunk((0,), (extent,))]
        if min(self.nthreads, extent) < 2:  # nothing to fork or to learn
            self.run(kernel, inline)
            return
        d = self._decisions.get(key, Decision())
        fork = d.t_inline is not None if d.forked is None else d.forked
        chunks = block_partition((extent,), self.nthreads) if fork else inline
        if d.forked is not None:
            self.run(kernel, chunks)
            return
        if fork:
            # Time the fork with the workers awake, as they are for a
            # level that forks every time; after a run of inline regions
            # they are asleep (or not started yet).
            wait([self._pool.submit(int) for _ in range(self.nthreads)])
        before = getattr(pool, "allocations", 0)
        t0 = self._clock()
        self.run(kernel, chunks)
        dt = self._clock() - t0
        if getattr(pool, "allocations", 0) == before:
            self._decisions[key] = (
                Decision(dt < d.t_inline, d.t_inline, dt) if fork
                else Decision(t_inline=dt))

    def run_partitioned(self, kernel: Callable[[Chunk], None],
                        shape: tuple[int, ...], axis: int = 0) -> None:
        """Block-partition ``shape`` over the team and run the kernel."""
        self.run(kernel, block_partition(shape, self.nthreads, axis))
