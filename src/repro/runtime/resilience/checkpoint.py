"""Checkpoint/restart for the SPMD V-cycle.

The distributed solver's live state at an iteration boundary is small
and well-defined: per rank, the solution slab ``u`` and the finest-level
residual slab ``r`` (``v`` is reproducible — ``zran3`` is deterministic
and replicated — and every coarser residual is recomputed inside each
V-cycle).  :class:`CheckpointStore` snapshots exactly that.

Commit protocol (two-phase, coordinated by the world's own barrier):

1. every rank ``put()``s its slabs for iteration *k* (copies taken);
2. the ranks pass a barrier — proof that every put landed;
3. every rank calls ``commit(k, world_size)`` (idempotent), which
   atomically publishes snapshot *k* as complete.

A rank that dies between (1) and (2) leaves snapshot *k* pending
forever; ``latest()`` only ever reports *complete* snapshots, so restart
resumes from the last iteration the whole world agreed on.  Restarting
replays the remaining iterations with the expression-order-exact
kernels, so the restarted fields are bit-identical to an uninterrupted
run (and the verification norm, an allreduce in rank order, matches
exactly too).

Stores live in memory only: ranks are threads of one process, and
retry and heal restore from the same store object, so no snapshot ever
has to cross a process boundary.

Long chaos soaks checkpoint every iteration, so an unbounded store
would grow without limit.  ``retain`` (default 2) caps the number of
*complete* snapshots kept: committing snapshot *k* prunes every complete
snapshot older than the newest ``retain``.  ``retain`` must be at least
1 (``None`` disables pruning), so the only complete snapshot — the one
restart depends on — is never pruned.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError

__all__ = ["RankState", "CheckpointStore"]

#: Default number of complete snapshots retained after each commit.
DEFAULT_RETAIN = 2


@dataclass(frozen=True)
class RankState:
    """One rank's V-cycle state at an iteration boundary."""

    iteration: int
    rank: int
    #: Solution slab including the two halo planes.
    u: np.ndarray
    #: Finest-level residual slab including the two halo planes.
    r: np.ndarray


class CheckpointStore:
    """Thread-safe store of per-rank V-cycle snapshots.

    Parameters
    ----------
    retain:
        Number of complete snapshots to keep (older ones are pruned on
        commit).  ``None`` keeps all; must be >= 1 otherwise — the last
        complete snapshot is never pruned.
    """

    def __init__(self, *, retain: int | None = DEFAULT_RETAIN) -> None:
        if retain is not None and retain < 1:
            raise ValueError(
                f"retain must be >= 1 (or None for unlimited), got {retain}"
            )
        self.retain = retain
        self._lock = threading.Lock()
        # iteration -> rank -> RankState
        self._pending: dict[int, dict[int, RankState]] = {}
        self._complete: dict[int, dict[int, RankState]] = {}

    # -- writing ------------------------------------------------------------

    def put(self, iteration: int, rank: int, u: np.ndarray,
            r: np.ndarray) -> None:
        """Record one rank's slabs for ``iteration`` (copies are taken)."""
        state = RankState(iteration, rank, np.array(u, copy=True),
                          np.array(r, copy=True))
        with self._lock:
            self._pending.setdefault(iteration, {})[rank] = state

    def commit(self, iteration: int, world_size: int) -> None:
        """Publish snapshot ``iteration`` once all ranks have put theirs.

        Idempotent; called by every rank after the commit barrier.
        """
        with self._lock:
            if iteration in self._complete:
                return
            got = self._pending.get(iteration, {})
            if len(got) != world_size:
                raise CheckpointError(
                    f"cannot commit checkpoint {iteration}: "
                    f"{len(got)}/{world_size} ranks present"
                )
            self._complete[iteration] = self._pending.pop(iteration)
            # Keep the newest ``retain``; ``retain >= 1`` is enforced at
            # construction, so the only complete snapshot is never pruned.
            if self.retain is not None:
                for old in sorted(self._complete)[:-self.retain]:
                    del self._complete[old]

    # -- reading ------------------------------------------------------------

    def latest(self) -> int | None:
        """The newest *complete* iteration, or None."""
        with self._lock:
            return max(self._complete) if self._complete else None

    def iterations(self) -> list[int]:
        with self._lock:
            return sorted(self._complete)

    def restore(self, iteration: int, rank: int) -> RankState:
        with self._lock:
            snap = self._complete.get(iteration)
            if snap is None:
                raise CheckpointError(
                    f"no complete checkpoint for iteration {iteration}"
                )
            if rank not in snap:
                raise CheckpointError(
                    f"checkpoint {iteration} has no state for rank {rank}"
                )
            return snap[rank]

    def world_size(self, iteration: int) -> int:
        with self._lock:
            snap = self._complete.get(iteration)
            if snap is None:
                raise CheckpointError(
                    f"no complete checkpoint for iteration {iteration}"
                )
            return len(snap)
