"""Failure detection primitives: registry, cancellation token, stats.

The seed runtime stored at most one failure in a bare ``World.failure``
attribute (last-writer-wins across rank threads) and relied on 60-second
library timeouts for a blocked peer to notice anything was wrong.  The
classes here replace that with:

* :class:`FailureRegistry` — a lock-protected, append-only collection of
  :class:`~repro.runtime.resilience.errors.RankFailure` records, so a
  multi-rank failure surfaces *every* cause;
* :class:`CancellationToken` — a world-wide abort flag that ``recv`` and
  ``barrier`` poll, turning a peer's death into a millisecond-scale
  :class:`~repro.runtime.resilience.errors.WorldAborted` instead of a
  timeout;
* :class:`ResilienceStats` — thread-safe counters for injected faults,
  checksum failures, and retransmissions (chaos tests assert on these);
* :class:`HeartbeatMonitor` — *proactive* liveness: each rank publishes
  a monotonic beat from inside its communication checks, and a
  threshold/φ-style detector marks silent ranks **suspected** and then
  **dead**, so a GC pause (suspect, recovers) is no longer conflated
  with a crash (dead, feeds the registry / elastic healing).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, fields

from .errors import RankFailure, WorldAborted

__all__ = ["FailureRegistry", "CancellationToken", "ResilienceStats",
           "HeartbeatConfig", "HeartbeatMonitor",
           "ALIVE", "SUSPECT", "DEAD", "RETIRED"]


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
    #: Heartbeat detector: ranks marked suspected / recovered from
    #: suspicion / declared dead.
    suspects: int = 0
    recoveries: int = 0
    deaths: int = 0
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


# ---------------------------------------------------------------------------
# Heartbeat liveness.
# ---------------------------------------------------------------------------

#: Liveness states a rank moves through.  ``alive <-> suspect`` is
#: reversible (a slow rank recovers); ``dead`` is terminal for an
#: incarnation (elastic healing resets the slot for the replacement);
#: ``retired`` means the rank finished its program normally and beats
#: are no longer expected.
ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"
RETIRED = "retired"


@dataclass(frozen=True)
class HeartbeatConfig:
    """Tuning knobs of the heartbeat liveness detector."""

    #: How often the monitor thread sweeps the beat table, seconds.
    interval: float = 0.1
    #: Silence after which a rank is *suspected* (slow, maybe dead).
    suspect_after: float = 1.0
    #: Silence after which a suspected rank is declared *dead*.  Must
    #: comfortably exceed any legitimate stall (GC pause, slow fault).
    dead_after: float = 30.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        if not (self.interval <= self.suspect_after < self.dead_after):
            raise ValueError(
                "heartbeat thresholds must satisfy "
                "interval <= suspect_after < dead_after")


class HeartbeatMonitor:
    """Threshold/φ-style liveness detector over per-rank beat tables.

    Ranks publish beats (cheap: one timestamp write under a lock) from
    inside their communication checks; :meth:`check` — driven by the
    world's monitor thread — classifies each rank by the age of its
    last beat and returns the state *transitions* since the previous
    sweep, so the caller can count suspicions/recoveries and route a
    death to the failure registry exactly once.

    :meth:`phi` exposes a φ-accrual-style suspicion level — the age of
    the silence normalised by the observed mean beat interval (EWMA) —
    useful for diagnostics; the state machine itself uses plain
    wall-clock thresholds, which are deterministic and explainable.
    """

    def __init__(self, size: int, config: HeartbeatConfig | None = None, *,
                 clock=time.monotonic):
        self.config = config if config is not None else HeartbeatConfig()
        self._clock = clock
        self._lock = threading.Lock()
        now = clock()
        self._last_beat = [now] * size
        self._beat_counts = [0] * size
        self._ewma: list[float | None] = [None] * size
        self._states = [ALIVE] * size
        # Ranks parked at a collective barrier cannot beat but are not
        # stalled: pause() exempts them from suspicion (the barrier's
        # own deadline covers a genuine deadlock there).
        self._paused = [0] * size
        # Recoveries proven by retire(), reported by the next check().
        self._pending: list[tuple[int, str, str]] = []

    def beat(self, rank: int) -> None:
        """Record one liveness beat from ``rank``."""
        now = self._clock()
        with self._lock:
            prev = self._last_beat[rank]
            gap = now - prev
            ewma = self._ewma[rank]
            self._ewma[rank] = gap if ewma is None else 0.8 * ewma + 0.2 * gap
            self._last_beat[rank] = now
            self._beat_counts[rank] += 1

    def pause(self, rank: int) -> None:
        """``rank`` is parking at a collective: suspend suspicion."""
        with self._lock:
            self._paused[rank] += 1

    def resume(self, rank: int) -> None:
        """``rank`` left the collective; expect beats again from now."""
        now = self._clock()
        with self._lock:
            self._paused[rank] = max(0, self._paused[rank] - 1)
            self._last_beat[rank] = now

    def reset(self, rank: int) -> None:
        """Fresh incarnation of ``rank`` (elastic heal): expect beats anew."""
        now = self._clock()
        with self._lock:
            self._last_beat[rank] = now
            self._beat_counts[rank] = 0
            self._ewma[rank] = None
            self._states[rank] = ALIVE
            self._paused[rank] = 0

    def retire(self, rank: int) -> None:
        """``rank`` finished its program; stop expecting beats.

        A suspect that reaches the end of its program has recovered,
        whether or not a sweep ran between its last beat and now: the
        transition is queued for the next :meth:`check`."""
        with self._lock:
            if self._states[rank] == SUSPECT:
                self._pending.append((rank, SUSPECT, ALIVE))
            self._states[rank] = RETIRED

    def state(self, rank: int) -> str:
        with self._lock:
            return self._states[rank]

    def beats(self, rank: int) -> int:
        with self._lock:
            return self._beat_counts[rank]

    def silence(self, rank: int) -> float:
        """Seconds since ``rank``'s last beat."""
        with self._lock:
            return self._clock() - self._last_beat[rank]

    def phi(self, rank: int) -> float:
        """φ-style suspicion: silence over the observed beat cadence."""
        with self._lock:
            age = self._clock() - self._last_beat[rank]
            cadence = self._ewma[rank]
        floor = self.config.interval
        return age / max(cadence if cadence is not None else floor, floor)

    def check(self) -> list[tuple[int, str, str]]:
        """Sweep the beat table; returns ``(rank, old, new)`` transitions."""
        cfg = self.config
        now = self._clock()
        with self._lock:
            transitions, self._pending = self._pending, []
            for rank, state in enumerate(self._states):
                if state in (DEAD, RETIRED):
                    continue
                if self._paused[rank] > 0:
                    # Parked at a barrier: not expected to beat.  Keep
                    # the timestamp fresh so resumption starts clean.
                    self._last_beat[rank] = now
                    continue
                age = now - self._last_beat[rank]
                if state == ALIVE and age >= cfg.suspect_after:
                    self._states[rank] = SUSPECT
                    transitions.append((rank, ALIVE, SUSPECT))
                elif state == SUSPECT:
                    if age >= cfg.dead_after:
                        self._states[rank] = DEAD
                        transitions.append((rank, SUSPECT, DEAD))
                    elif age < cfg.suspect_after:
                        self._states[rank] = ALIVE
                        transitions.append((rank, SUSPECT, ALIVE))
        return transitions

    def suspected(self) -> list[int]:
        with self._lock:
            return [r for r, s in enumerate(self._states) if s == SUSPECT]

    def dead_ranks(self) -> list[int]:
        with self._lock:
            return [r for r, s in enumerate(self._states) if s == DEAD]
