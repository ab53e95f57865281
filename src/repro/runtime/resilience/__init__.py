"""Resilience layer for the SPMD MG runtime.

Fault injection (:mod:`.faults`), failure detection and fast abort
(:mod:`.detect`, :mod:`.errors`), halo integrity (:mod:`.checksum`) and
checkpoint/restart (:mod:`.checkpoint`) — threaded through :mod:`repro.runtime.spmd` and documented in
``docs/RESILIENCE.md``.
"""

from .checkpoint import CheckpointStore, RankState
from .checksum import SealedMessage, plane_checksum
from .detect import (
    CancellationToken,
    FailureRegistry,
    ResilienceStats,
)
from .errors import (
    BarrierTimeout,
    CheckpointError,
    HaloCorruption,
    HaloTimeout,
    HealRejoin,
    InjectedFault,
    RankDeclaredDead,
    RankFailure,
    ResilienceError,
    TeamError,
    WorldAborted,
)
from .faults import Fault, FaultKind, FaultPlan, RankInjector

__all__ = [
    "BarrierTimeout",
    "CancellationToken",
    "CheckpointError",
    "CheckpointStore",
    "Fault",
    "FaultKind",
    "FaultPlan",
    "FailureRegistry",
    "HaloCorruption",
    "HaloTimeout",
    "HealRejoin",
    "InjectedFault",
    "RankDeclaredDead",
    "RankFailure",
    "RankInjector",
    "RankState",
    "ResilienceError",
    "ResilienceStats",
    "SealedMessage",
    "TeamError",
    "WorldAborted",
    "plane_checksum",
]
