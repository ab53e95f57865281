"""Self-healing solver supervision for the MG runtime.

:class:`SupervisedSolver` wraps every MG execution mode behind one
``solve(size_class, policy)`` call that guarantees a result or a
structured post-mortem: retry-from-checkpoint with backoff, a
graceful-degradation ladder (``sac → distributed → threaded →
serial``), a per-iteration numerical watchdog on the residual
trajectory, and a circuit breaker over the SAC compile path.
:class:`WorldSupervisor` adds elastic recovery *beneath* the ladder:
with a :class:`HealPolicy` budget, a dead rank is replaced in place
from checkpoint so the solve finishes at full width instead of
demoting.

See ``docs/SUPERVISOR.md``.
"""

from .breaker import BreakerState, CompileCircuitBreaker
from .elastic import HealRecord, WorldSupervisor
from .errors import (
    DeadlineExceeded,
    NumericalDivergence,
    SupervisionError,
    SupervisionFailed,
)
from .policy import (
    BreakerPolicy,
    HealPolicy,
    RetryPolicy,
    Rung,
    SupervisorPolicy,
    WatchdogPolicy,
    default_ladder,
)
from .report import AttemptRecord, DemotionRecord, SolveReport
from .supervisor import SupervisedResult, SupervisedSolver
from .watchdog import NumericalWatchdog

__all__ = [
    "BreakerState",
    "CompileCircuitBreaker",
    "SupervisionError",
    "NumericalDivergence",
    "DeadlineExceeded",
    "SupervisionFailed",
    "Rung",
    "RetryPolicy",
    "WatchdogPolicy",
    "BreakerPolicy",
    "HealPolicy",
    "SupervisorPolicy",
    "default_ladder",
    "AttemptRecord",
    "DemotionRecord",
    "SolveReport",
    "HealRecord",
    "WorldSupervisor",
    "NumericalWatchdog",
    "SupervisedResult",
    "SupervisedSolver",
]
