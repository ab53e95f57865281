"""Declarative supervision policies.

A :class:`SupervisorPolicy` is pure data: the degradation ladder (an
ordered tuple of :class:`Rung` specs), the retry budget and backoff
curve, the numerical watchdog thresholds, the heal budget, and the
overall deadline budget.  Policies are frozen
dataclasses so a chaos experiment is fully described by (policy, fault
plan, seed) — the determinism tests rely on that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Rung",
    "RetryPolicy",
    "WatchdogPolicy",
    "HealPolicy",
    "SupervisorPolicy",
    "default_ladder",
]

_MODES = ("sac", "distributed", "threaded", "serial")


@dataclass(frozen=True)
class Rung:
    """One execution mode on the degradation ladder.

    ``sac`` runs the paper's program, the generated ``mg.sac``, serial;
    ``distributed``, ``threaded`` and ``serial`` run ``core.mg``'s
    kernels.  ``workers`` is the rank count for ``distributed`` rungs
    and the thread count for ``threaded`` rungs (ignored otherwise).

    ``problem`` names the solver-family member the rung runs (see
    ``repro.pde.PROBLEMS``); the default is the NPB instance.  PDE
    members run serial/threaded only — the supervisor records a
    demotion and skips distributed/sac rungs for them.
    """

    mode: str
    workers: int = 2
    problem: str = "npb-mg"

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"rung mode must be one of {_MODES}, "
                             f"got {self.mode!r}")
        if not self.problem or not isinstance(self.problem, str):
            raise ValueError("rung problem must be a non-empty string")
        if self.workers < 1:
            raise ValueError("rung workers must be >= 1")
        if self.mode == "distributed" and self.workers & (self.workers - 1):
            raise ValueError("distributed rungs need a power-of-two "
                             "worker count")

    def describe(self) -> str:
        suffix = "" if self.problem == "npb-mg" else f"@{self.problem}"
        if self.mode in ("sac", "serial"):
            return f"{self.mode}{suffix}"
        return f"{self.mode} x{self.workers}{suffix}"


def default_ladder(*, nranks: int = 2, nthreads: int = 2,
                   kernels: str = "numpy") -> tuple[Rung, ...]:
    """The canonical fallback chain.

    ``kernels="sac"`` prepends the compiled ``mg.sac``, so a compiler or
    cache failure demotes to ``core.mg`` before the ``distributed →
    threaded → serial`` axis::

        sac → distributed → threaded → serial
    """
    rungs = (Rung("distributed", nranks), Rung("threaded", nthreads),
             Rung("serial"))
    return (Rung("sac"), *rungs) if kernels == "sac" else rungs


@dataclass(frozen=True)
class RetryPolicy:
    """Retry-from-checkpoint budget and backoff curve (per rung)."""

    #: Attempts per rung (first try included).
    max_attempts: int = 3
    #: First backoff sleep, seconds.
    backoff_base: float = 0.05
    #: Multiplier per further retry.
    backoff_factor: float = 2.0
    #: Backoff ceiling, seconds.
    backoff_max: float = 2.0
    #: Uniform jitter fraction added on top (0.25 → up to +25 %).
    jitter: float = 0.25
    #: Seed of the jitter RNG — retries are deterministic per policy.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff(self, retry_index: int, rng) -> float:
        """Backoff before retry ``retry_index`` (0-based), jittered."""
        base = min(self.backoff_base * self.backoff_factor ** retry_index,
                   self.backoff_max)
        return base * (1.0 + self.jitter * rng.random())


@dataclass(frozen=True)
class WatchdogPolicy:
    """Numerical-health thresholds on the residual trajectory."""

    enabled: bool = True
    #: A residual norm above ``divergence_ratio`` times the best seen so
    #: far classifies the run as divergent.  MG contracts the residual
    #: every V-cycle, so a healthy run never gets near this.
    divergence_ratio: float = 1.0e4
    #: Iterations without a new best residual before the run counts as
    #: stagnant.  0 disables (class W sits at roundoff for its last
    #: iterations — stagnation there is healthy convergence).
    stagnation_window: int = 0

    def __post_init__(self) -> None:
        if self.divergence_ratio <= 1.0:
            raise ValueError("divergence_ratio must be > 1")
        if self.stagnation_window < 0:
            raise ValueError("stagnation_window must be >= 0")


@dataclass(frozen=True)
class HealPolicy:
    """Elastic-world recovery budget: replace dead ranks in place.

    Healing is tried *before* the degradation ladder demotes: a
    single-rank death with a complete checkpoint spawns a replacement
    rank on a fresh fabric instead of aborting the world, so the solve
    finishes at full width.  ``max_heals`` bounds how many in-place
    replacements one world may perform; anything beyond the budget (or
    a second death while a heal is in flight) falls back to the normal
    abort → retry → demote path.
    """

    #: In-place rank replacements allowed per world (0 disables).
    max_heals: int = 2

    def __post_init__(self) -> None:
        if self.max_heals < 0:
            raise ValueError("max_heals must be >= 0")


@dataclass(frozen=True)
class SupervisorPolicy:
    """Everything the supervisor needs to drive one solve."""

    #: Ordered fallback chain; earlier rungs are preferred.
    ladder: tuple[Rung, ...] = field(default_factory=default_ladder)
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    watchdog: WatchdogPolicy = field(default_factory=WatchdogPolicy)
    #: Total wall-clock budget for the whole supervised solve, seconds
    #: (None = unbounded).  Distributed blocking ops inherit the
    #: remaining budget as their timeout, honored within one poll tick.
    deadline: float | None = None
    #: Blocking-op timeout override for distributed rungs (None = the
    #: runtime default / remaining deadline, whichever is smaller).
    op_timeout: float | None = None
    #: Abort-poll granularity for distributed rungs (None = runtime
    #: default, ``transport.DEFAULT_POLL_INTERVAL``).
    poll_interval: float | None = None
    #: Checkpoint cadence on distributed rungs (iterations).
    checkpoint_every: int = 1
    #: Complete snapshots retained by a supervisor-owned store.
    checkpoint_retain: int | None = 2
    #: Check ``MGResult.verified`` on full-length solves of classes with
    #: an official NPB value; an unverified result demotes the rung.
    verify: bool = True
    #: Elastic healing on distributed rungs (None disables): replace a
    #: dead rank from checkpoint *before* considering retry/demote.
    heal: HealPolicy | None = None
    #: Communication substrate for distributed rungs ("inproc" or
    #: "socket"; see ``repro.runtime.transport``).
    transport: str = "inproc"

    def __post_init__(self) -> None:
        if not self.ladder:
            raise ValueError("the ladder needs at least one rung")
        for rung in self.ladder:
            if not isinstance(rung, Rung):
                raise TypeError(f"expected Rung, got {type(rung).__name__}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if self.op_timeout is not None and self.op_timeout <= 0:
            raise ValueError("op_timeout must be positive")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.heal is not None and not isinstance(self.heal, HealPolicy):
            raise TypeError("heal must be a HealPolicy or None")
