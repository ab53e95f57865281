"""Implicit SMP parallelization substrate: partitioner, thread team,
parallel MG kernels, and the resilience layer (fault injection, failure
detection, checkpointing)."""

from .executor import ThreadTeam
from .parallel_mg import (
    ParallelMG,
    parallel_interp_add,
    parallel_psinv,
    parallel_resid,
    parallel_rprj3,
)
from .resilience import (
    CheckpointStore,
    Fault,
    FaultKind,
    FaultPlan,
    HaloCorruption,
    HaloTimeout,
    RankFailure,
    ResilienceError,
    TeamError,
    WorldAborted,
)
from .scheduler import Chunk, block_partition
from .spmd import DistributedMG, RankComm, World
from .supervisor import (
    HealPolicy,
    HealRecord,
    Rung,
    SolveReport,
    SupervisedResult,
    SupervisedSolver,
    SupervisionFailed,
    SupervisorPolicy,
    WorldSupervisor,
    default_ladder,
)
from .transport import (
    InProcTransport,
    LocalSocketTransport,
    Transport,
    TransportConfig,
    make_transport,
)

__all__ = [
    "ThreadTeam",
    "Chunk",
    "block_partition",
    "ParallelMG",
    "parallel_resid",
    "parallel_psinv",
    "parallel_rprj3",
    "parallel_interp_add",
    "DistributedMG",
    "RankComm",
    "World",
    "CheckpointStore",
    "Fault",
    "FaultKind",
    "FaultPlan",
    "HaloCorruption",
    "HaloTimeout",
    "RankFailure",
    "ResilienceError",
    "TeamError",
    "WorldAborted",
    "HealPolicy",
    "HealRecord",
    "Rung",
    "SolveReport",
    "SupervisedResult",
    "SupervisedSolver",
    "SupervisionFailed",
    "SupervisorPolicy",
    "WorldSupervisor",
    "default_ladder",
    "Transport",
    "TransportConfig",
    "InProcTransport",
    "LocalSocketTransport",
    "make_transport",
]
