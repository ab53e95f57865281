"""Elastic world recovery: in-place rank replacement from checkpoint.

:class:`WorldSupervisor` is the heal authority one
:class:`~repro.runtime.spmd.World` consults when a rank dies
(``World.rank_failed``).  Where PR 4's ladder can only *demote* —
permanently giving up parallel width the hardware still has — the world
supervisor tries to keep the world at full width first:

1. **eligibility** — the failure must name a specific failed rank: an
   injected crash, an ordinary exception inside the rank program, or a
   stall that a peer's timeout names (a halo recv's ``src``, the one
   rank missing from a broken barrier).  A timeout that names only its
   observer or several ranks, data-integrity failures, checkpoint
   misuse and world-level aborts are not healable and fall through to
   abort;
2. **budget** — at most ``HealPolicy.max_heals`` replacements per
   world, and never two heals in flight at once (a second death during
   a rejoin aborts and lets the ladder take over).  Several observers
   may time out on the same stalled rank; a report for the rank whose
   heal is already in flight is absorbed, not counted again;
3. **checkpoint** — a *complete* snapshot matching the world width must
   exist; survivors and the replacement all restore from it, so the
   healed run replays the lost iterations bit-identically;
4. **spawn & rejoin** — a replacement thread is spawned for the dead
   rank's next incarnation, the world's fabric is swapped under the
   two-phase rejoin barrier, and the solve resumes at full width.

Every heal is recorded as a :class:`HealRecord` (surfaced on
``SolveReport.heals`` by the supervised solver and in the world's
``heal_log``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..resilience.errors import (
    BarrierTimeout,
    CheckpointError,
    HaloCorruption,
    HaloTimeout,
    HealRejoin,
    RankDeclaredDead,
    RankFailure,
    WorldAborted,
)
from .errors import SupervisionError
from .policy import HealPolicy

__all__ = ["HealRecord", "WorldSupervisor"]

#: Failure causes that can never select a rank to replace:
#: integrity/checkpoint problems (healing cannot fix data), control-flow
#: signals, and aborts.
_UNHEALABLE = (HaloCorruption, CheckpointError, WorldAborted, HealRejoin,
               RankDeclaredDead, SupervisionError)


@dataclass
class HealRecord:
    """One in-place rank replacement, for reports and assertions."""

    epoch: int
    rank: int
    #: The incarnation number of the *replacement* thread.
    incarnation: int
    #: Iteration the failure struck at (None if unknown).
    iteration: int | None
    #: ``TypeName: message`` of the root cause.
    cause: str
    #: Complete checkpoint iteration the heal was approved against.
    restored_from: int
    completed: bool = False
    elapsed: float = 0.0
    #: Monotonic start time; runtime-only, not serialised.
    started: float = field(default=0.0, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "rank": self.rank,
            "incarnation": self.incarnation,
            "iteration": self.iteration,
            "cause": self.cause,
            "restored_from": self.restored_from,
            "completed": self.completed,
            "elapsed": round(self.elapsed, 6),
        }


class WorldSupervisor:
    """Heal authority for one world: budget, eligibility, spawning.

    ``spawner(rank, incarnation) -> Thread`` is provided by the solver
    (it knows how to build a rank program); :meth:`consider` is called
    from ``World.rank_failed`` on the failing thread, and must either
    absorb the failure (returns True: heal under way) or decline
    (returns False: the world aborts as before).
    """

    def __init__(self, policy: HealPolicy, *, store,
                 clock=time.monotonic):
        self.policy = policy
        self.store = store
        self.spawner = None
        self.records: list[HealRecord] = []
        self.heals_started = 0
        self._threads: list[tuple[int, int, threading.Thread]] = []
        self._lock = threading.Lock()
        self._clock = clock

    # -- the heal decision --------------------------------------------------

    def _eligible(self, world, failure: RankFailure) -> bool:
        cause = failure.cause if failure.cause is not None else failure
        if isinstance(cause, _UNHEALABLE):
            return False
        if isinstance(cause, (HaloTimeout, BarrierTimeout)) \
                and not failure.stalled:
            # A timeout that names no single peer: the failed rank is
            # unknown.
            return False
        if failure.rank in world.retired:
            # The "failure" came from a thread whose rank already
            # finished — a stale observation, not a death.
            return False
        if world.retired:
            # Some rank already completed its program: the rejoin
            # barrier could never gather all participants again.
            return False
        return True

    def consider(self, world, failure: RankFailure) -> bool:
        """Try to heal ``failure``; True when the heal is under way."""
        if self.spawner is None or self.store is None:
            return False
        with self._lock:
            if failure.stalled and world.healing == failure.rank:
                # Another observer already reported this stall.
                return True
            if not self._eligible(world, failure):
                return False
            if self.heals_started >= self.policy.max_heals:
                return False
            restored_from = self.store.latest()
            if restored_from is None:
                return False
            try:
                if self.store.world_size(restored_from) != world.size:
                    return False
            except CheckpointError:
                return False
            epoch = world.begin_heal(failure)
            if epoch is None:
                return False
            self.heals_started += 1
            cause = failure.cause if failure.cause is not None else failure
            record = HealRecord(
                epoch=epoch,
                rank=failure.rank,
                incarnation=world.incarnation(failure.rank),
                iteration=failure.iteration,
                cause=f"{type(cause).__name__}: {cause}",
                restored_from=restored_from,
                started=self._clock(),
            )
            self.records.append(record)
        try:
            thread = self.spawner(failure.rank,
                                  world.incarnation(failure.rank))
        except Exception as exc:
            # The heal was announced but the replacement cannot exist:
            # the rejoin barrier would hang, so abort the world now.
            world.abort(RankFailure(failure.rank, op="heal-spawn",
                                    cause=exc))
            return True
        with self._lock:
            self._threads.append(
                (failure.rank, world.incarnation(failure.rank), thread))
        return True

    def heal_completed(self, epoch: int) -> None:
        """Phase-2 commit callback from the world."""
        with self._lock:
            for record in self.records:
                if record.epoch == epoch and not record.completed:
                    record.completed = True
                    record.elapsed = self._clock() - record.started

    def threads(self) -> list[tuple[int, int, threading.Thread]]:
        """Replacement threads spawned so far, as (rank, incarnation, t)."""
        with self._lock:
            return list(self._threads)
