"""Structured exception taxonomy for the resilient SPMD runtime.

Every failure mode of the distributed MG runtime maps to one class here,
and every instance carries enough provenance (rank, operation, level,
iteration) to reconstruct *where* in the SPMD program the fault struck —
replacing the bare ``queue.Empty`` / ``BrokenBarrierError`` a blocked
rank used to die with.

Hierarchy::

    ResilienceError(RuntimeError)
    ├── RankFailure        one rank's primary failure (wraps the cause)
    ├── WorldAborted       the whole world cancelled; names every failed rank
    ├── HaloTimeout        a halo recv exceeded its deadline; names its src
    ├── BarrierTimeout     a barrier wait exceeded its deadline; names the
    │                      ranks that had not arrived (``missing``)
    ├── HaloCorruption     checksum mismatch survived all retransmits
    ├── InjectedFault      a FaultPlan fault firing inside a rank
    ├── RankDeclaredDead   a stale thread noticed its own replacement
    ├── HealRejoin         control flow: roll back and rejoin a healed world
    ├── CheckpointError    checkpoint store misuse / missing snapshot
    └── TeamError          composite worker failure in a fork-join team

A timeout is a symptom seen by the rank that waited.  When it names
exactly one other rank (:attr:`HaloTimeout.peer`,
:attr:`BarrierTimeout.peer`), that peer is the one that stalled, and the
runtime records the failure under the peer, not the observer.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = [
    "ResilienceError",
    "RankFailure",
    "WorldAborted",
    "HaloTimeout",
    "BarrierTimeout",
    "HaloCorruption",
    "InjectedFault",
    "RankDeclaredDead",
    "HealRejoin",
    "CheckpointError",
    "TeamError",
]


class ResilienceError(RuntimeError):
    """Base class of the SPMD runtime failure taxonomy."""


def _where(op: str | None, level: int | None, iteration: int | None) -> str:
    parts = []
    if iteration is not None:
        parts.append(f"iteration {iteration}")
    if op is not None:
        parts.append(f"op {op!r}")
    if level is not None:
        parts.append(f"level {level}")
    return f" ({', '.join(parts)})" if parts else ""


def _failures_note(failures: Sequence["RankFailure"]) -> str:
    """Render the registry contents for a timeout message.

    A timeout during an *unnoticed* rank death is the hard case to
    debug; naming every already-recorded failure in the timeout message
    makes it diagnosable from the exception alone.
    """
    if not failures:
        return "; no rank failures recorded at timeout"
    items = ", ".join(
        f"rank {f.rank} ({type(f.cause).__name__ if f.cause is not None else 'unknown'}"
        + (f" @ iteration {f.iteration}" if f.iteration is not None else "")
        + ")"
        for f in failures
    )
    return f"; known failures at timeout: {items}"


class RankFailure(ResilienceError):
    """One rank's primary failure, with provenance and the wrapped cause."""

    def __init__(self, rank: int, *, op: str | None = None,
                 level: int | None = None, iteration: int | None = None,
                 cause: BaseException | None = None):
        self.rank = rank
        self.op = op
        self.level = level
        self.iteration = iteration
        self.cause = cause
        msg = f"rank {rank} failed{_where(op, level, iteration)}"
        if cause is not None:
            msg += f": {type(cause).__name__}: {cause}"
        super().__init__(msg)

    @property
    def stalled(self) -> bool:
        """True when a peer's timed-out wait named this rank: the rank
        stalled, and the peer (``cause.rank``) only observed it."""
        return (isinstance(self.cause, (HaloTimeout, BarrierTimeout))
                and self.cause.peer == self.rank)


class WorldAborted(ResilienceError):
    """The world was cancelled.

    Raised both by the coordinating ``solve`` (carrying *all* collected
    :class:`RankFailure` records — the composite, no last-writer-wins)
    and inside surviving ranks when the cancellation token trips.
    """

    def __init__(self, failures: Sequence[RankFailure] = (), *,
                 observer: int | None = None, op: str | None = None,
                 level: int | None = None):
        self.failures = tuple(failures)
        self.observer = observer
        ranks = sorted({f.rank for f in self.failures})
        self.failed_ranks = ranks
        if ranks:
            msg = f"world aborted; failed ranks: {ranks}"
            msg += "".join(f"\n  - {f}" for f in self.failures)
        else:
            msg = "world aborted"
        if observer is not None:
            msg += f" [observed by rank {observer}{_where(op, level, None)}]"
        super().__init__(msg)


class HaloTimeout(ResilienceError):
    """A halo-plane receive exceeded its deadline (wraps ``queue.Empty``)."""

    def __init__(self, rank: int, *, op: str | None = None,
                 level: int | None = None, src: int | None = None,
                 timeout: float | None = None,
                 elapsed: float | None = None,
                 failures: Sequence["RankFailure"] = ()):
        self.rank = rank
        self.op = op
        self.level = level
        self.src = src
        self.timeout = timeout
        self.elapsed = elapsed
        self.failures = tuple(failures)
        msg = f"rank {rank}: halo recv timed out{_where(op, level, None)}"
        if src is not None:
            msg += f" waiting on rank {src}"
        if timeout is not None:
            msg += f" after {timeout:g}s"
        if elapsed is not None:
            msg += f" (waited {elapsed:.3f}s)"
        msg += _failures_note(self.failures)
        super().__init__(msg)

    @property
    def peer(self) -> int | None:
        """The rank this recv waited on, unless that is the observer."""
        return _one_peer(self.rank, () if self.src is None else (self.src,))


class BarrierTimeout(ResilienceError):
    """A barrier wait expired (wraps ``threading.BrokenBarrierError``).

    ``missing`` lists the ranks that had not reached the barrier when it
    broke: the ones whose arrival count was behind the observer's.
    """

    def __init__(self, rank: int, *, op: str | None = None,
                 timeout: float | None = None,
                 elapsed: float | None = None,
                 failures: Sequence["RankFailure"] = (),
                 missing: Sequence[int] = ()):
        self.rank = rank
        self.op = op
        self.timeout = timeout
        self.elapsed = elapsed
        self.failures = tuple(failures)
        self.missing = tuple(missing)
        msg = f"rank {rank}: barrier timed out{_where(op, None, None)}"
        if self.missing:
            msg += f" waiting on rank(s) {list(self.missing)}"
        if timeout is not None:
            msg += f" after {timeout:g}s"
        if elapsed is not None:
            msg += f" (waited {elapsed:.3f}s)"
        msg += _failures_note(self.failures)
        super().__init__(msg)

    @property
    def peer(self) -> int | None:
        """The one rank missing from the barrier, if exactly one was."""
        return _one_peer(self.rank, self.missing)


def _one_peer(observer: int, waited_on: tuple[int, ...]) -> int | None:
    """The single rank a timed-out wait names, unless it names several,
    none, or the observer itself."""
    if len(waited_on) == 1 and waited_on[0] != observer:
        return waited_on[0]
    return None


class HaloCorruption(ResilienceError):
    """A halo plane failed its checksum after all bounded retransmits."""

    def __init__(self, rank: int, *, level: int | None = None,
                 src: int | None = None, retries: int = 0):
        self.rank = rank
        self.level = level
        self.src = src
        self.retries = retries
        msg = (f"rank {rank}: halo plane from rank {src} failed checksum "
               f"verification after {retries} retransmit(s)"
               f"{_where(None, level, None)}")
        super().__init__(msg)


class InjectedFault(ResilienceError):
    """A :class:`~repro.runtime.resilience.faults.Fault` firing in a rank."""

    def __init__(self, rank: int, kind: str, *, iteration: int | None = None):
        self.rank = rank
        self.kind = kind
        self.iteration = iteration
        super().__init__(
            f"injected {kind} fault on rank {rank}"
            f"{_where(None, None, iteration)}"
        )


class RankDeclaredDead(ResilienceError):
    """A stale rank thread noticed it has been replaced.

    Raised *inside* a zombie — a thread whose rank was declared dead
    (e.g. named by a peer's timeout during a long stall) and replaced by
    elastic healing, but which later woke up.  The zombie must unwind
    silently without touching results or sending messages; this
    exception is its exit ramp and is never recorded as a failure.
    """

    def __init__(self, rank: int, *, incarnation: int = 0):
        self.rank = rank
        self.incarnation = incarnation
        super().__init__(
            f"rank {rank} (incarnation {incarnation}) was declared dead and "
            f"replaced; stale thread must exit")


class HealRejoin(ResilienceError):
    """Control-flow signal: the world healed, roll back and rejoin.

    Raised inside surviving ranks when the world's heal epoch advances.
    Not a failure — the rank catches it, restores its slab from the
    checkpoint the replacement rank is restoring from, and meets the
    world at the two-phase rejoin barrier.
    """

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(
            f"world heal epoch {epoch}: rank must roll back to the last "
            f"complete checkpoint and rejoin")


class CheckpointError(ResilienceError):
    """Checkpoint store misuse (restart without a usable snapshot, etc.)."""


class TeamError(ResilienceError):
    """Composite failure of a fork-join worker team.

    Collects *every* worker exception from one parallel region rather
    than surfacing an arbitrary one.
    """

    def __init__(self, causes: Iterable[BaseException]):
        self.causes = tuple(causes)
        lines = "".join(
            f"\n  - {type(c).__name__}: {c}" for c in self.causes
        )
        super().__init__(
            f"{len(self.causes)} worker(s) failed in a parallel region:{lines}"
        )
