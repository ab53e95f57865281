"""Circuit breaker over the SAC compilation path.

When the compiled ``mg.sac`` keeps failing — repeated ``SacError``
compiles, or a corrupt-entry storm in the content-addressed
:class:`~repro.sac.driver.cache.KernelCache` (surfaced by its per-key
``discards_by_key`` counters) — re-attempting compilation on every
attempt just multiplies the damage.  The breaker converts that
into the classic three-state machine:

* **closed** — compiled rungs run normally; failures accumulate.
* **open** — tripped: the supervisor skips ``sac`` rungs entirely,
  pinning ``core.mg``, until ``cooldown`` seconds pass.
* **half-open** — after the cooldown one probe attempt is let through;
  success closes the circuit, failure re-opens it for another cooldown.

The clock is injectable so tests drive the cooldown deterministically.
"""

from __future__ import annotations

import threading
import time
from enum import Enum

from .policy import BreakerPolicy

__all__ = ["BreakerState", "CompileCircuitBreaker"]


class BreakerState(str, Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CompileCircuitBreaker:
    """Thread-safe compile-path circuit breaker."""

    def __init__(self, policy: BreakerPolicy | None = None, *,
                 clock=time.monotonic):
        self.policy = policy if policy is not None else BreakerPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._failures = 0
        self._opened_at: float | None = None
        self._probe_out = False
        #: Every state transition as ``(state, reason)``, for SolveReport.
        self.transitions: list[tuple[str, str]] = []

    # -- state --------------------------------------------------------------

    @property
    def state(self) -> BreakerState:
        with self._lock:
            return self._state

    def _transition(self, state: BreakerState, reason: str) -> None:
        """Lock held by caller."""
        if state is not self._state:
            self._state = state
            self.transitions.append((state.value, reason))

    def _trip(self, reason: str) -> None:
        self._transition(BreakerState.OPEN, reason)
        self._opened_at = self._clock()
        self._probe_out = False

    # -- inputs -------------------------------------------------------------

    def record_failure(self, reason: str = "compile failure") -> None:
        """One compile/cache failure on the compiled-kernel path."""
        with self._lock:
            self._failures += 1
            if self._state is BreakerState.HALF_OPEN:
                self._trip(f"probe failed: {reason}")
            elif (self._state is BreakerState.CLOSED
                    and self._failures >= self.policy.failure_threshold):
                self._trip(
                    f"{self._failures} consecutive failure(s): {reason}"
                )

    def record_success(self) -> None:
        """A compiled-kernel attempt completed; close the circuit."""
        with self._lock:
            self._failures = 0
            self._probe_out = False
            self._transition(BreakerState.CLOSED, "compiled path healthy")

    def observe_discards(self, discards_by_key: dict) -> None:
        """Feed the kernel cache's per-key discard counters; a key whose
        corrupt/stale entries keep getting discarded trips the circuit
        directly."""
        if not discards_by_key:
            return
        worst_key, worst = max(discards_by_key.items(), key=lambda kv: kv[1])
        if worst >= self.policy.discard_threshold:
            with self._lock:
                if self._state is not BreakerState.OPEN:
                    self._trip(
                        f"cache discard storm: key {worst_key[:12]}... "
                        f"discarded {worst} time(s)"
                    )

    # -- the gate -----------------------------------------------------------

    def allow(self) -> bool:
        """May a compiled-kernel attempt proceed right now?

        An open circuit whose cooldown has elapsed moves to half-open
        and admits exactly one probe; further calls are refused until
        that probe reports success or failure.
        """
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.OPEN:
                elapsed = self._clock() - (self._opened_at or 0.0)
                if elapsed >= self.policy.cooldown:
                    self._transition(BreakerState.HALF_OPEN,
                                     "cooldown elapsed; admitting one probe")
                    self._probe_out = True
                    return True
                return False
            # Half-open: only the single outstanding probe runs.
            if not self._probe_out:
                self._probe_out = True
                return True
            return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<CompileCircuitBreaker {self.state.value} "
                f"failures={self._failures}>")
