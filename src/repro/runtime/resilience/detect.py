"""Failure detection primitives: registry, cancellation token, stats.

* :class:`FailureRegistry` — a lock-protected, append-only collection of
  :class:`~repro.runtime.resilience.errors.RankFailure` records, so a
  multi-rank failure surfaces *every* cause;
* :class:`CancellationToken` — a world-wide abort flag that ``recv`` and
  ``barrier`` poll, turning a peer's death into a millisecond-scale
  :class:`~repro.runtime.resilience.errors.WorldAborted` instead of a
  timeout;
* :class:`ResilienceStats` — thread-safe counters for injected faults,
  checksum failures, and retransmissions (chaos tests assert on these).

A stalled rank needs no detector of its own: the peer that times out
waiting for it names it (``HaloTimeout.src``, ``BarrierTimeout.missing``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields

from .errors import RankFailure, WorldAborted

__all__ = ["FailureRegistry", "CancellationToken", "ResilienceStats"]


class FailureRegistry:
    """Append-only, lock-protected record of every rank failure."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._failures: list[RankFailure] = []

    def record(self, failure: RankFailure) -> None:
        if not isinstance(failure, RankFailure):
            raise TypeError("FailureRegistry records RankFailure instances")
        with self._lock:
            self._failures.append(failure)

    def failures(self) -> tuple[RankFailure, ...]:
        with self._lock:
            return tuple(self._failures)

    def failed_ranks(self) -> list[int]:
        return sorted({f.rank for f in self.failures()})

    def composite(self) -> WorldAborted:
        """The composite error naming every failed rank."""
        return WorldAborted(self.failures())

    def __bool__(self) -> bool:
        with self._lock:
            return bool(self._failures)

    def __len__(self) -> int:
        with self._lock:
            return len(self._failures)


class CancellationToken:
    """A one-way world-abort flag checked inside blocking operations."""

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    def is_set(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._event.wait(timeout)


@dataclass
class ResilienceStats:
    """Thread-safe counters of resilience events in one world."""

    sends: int = 0
    drops: int = 0
    delays: int = 0
    corruptions: int = 0
    checksum_failures: int = 0
    retransmits: int = 0
    #: Messages discarded because their (op, level) tag did not match
    #: what the receiver was waiting for (stream desync after a drop).
    tag_mismatches: int = 0
    crashes: int = 0
    slows: int = 0
    checkpoints: int = 0
    #: Elastic healing: heals begun / heals whose two-phase rejoin
    #: barrier committed.
    heals: int = 0
    heals_completed: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + by)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {f.name: getattr(self, f.name) for f in fields(self)}
