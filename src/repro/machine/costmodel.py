"""Cost model of one MG implementation on the simulated SMP.

The paper's testbed (12-CPU SUN Ultra Enterprise 4000) is modelled by a
small set of per-implementation parameters; the simulator
(:mod:`repro.machine.smp`) replays a real operation trace against them.
The model's structure encodes the paper's own §5 analysis:

* stencil/transfer work scales with the grid's point count (per-point
  cost per operation kind, reflecting each style's arithmetic),
* every operation pays a constant overhead — for SAC this is dominated
  by dynamic memory management, which is *"invariant against grid
  sizes"* and therefore governs the small-grid end of the V-cycle,
* a parallel operation pays a fork/join cost growing with the number of
  processors, and grids below a threshold run sequentially,
* the border exchange is surface work (``points**(2/3)``), not volume
  work.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.trace import TraceOp

__all__ = ["MachineProfile", "op_time_seconds", "KIND_IS_SURFACE"]

#: Op kinds whose cost scales with the grid surface, not its volume.
KIND_IS_SURFACE = frozenset({"comm3"})


@dataclass(frozen=True)
class MachineProfile:
    """Calibrated cost parameters of one implementation style."""

    name: str
    label: str
    #: Per-point cost in nanoseconds, by trace op kind.  ``comm3`` is
    #: interpreted per *surface* point (6 * points**(2/3)).
    per_point_ns: dict[str, float]
    #: Fixed overhead per operation in microseconds (loop startup and,
    #: for SAC, dynamic memory management).
    op_overhead_us: float
    #: Trace op kinds this implementation executes in parallel.
    parallel_kinds: frozenset[str]
    #: Fork/join cost of one parallel region: ``base + per_proc * P`` µs.
    fork_base_us: float
    fork_per_proc_us: float
    #: Operations on grids smaller than this run sequentially.
    min_parallel_points: int = 1
    #: Extra per-point cost (ns) on grids with at least
    #: ``large_grid_threshold`` points — models cache-capacity effects
    #: (the RWCP C port degrades relative to Fortran as grids grow,
    #: paper §5).
    large_grid_penalty_ns: float = 0.0
    large_grid_threshold: int = 1 << 20
    #: Fraction of each parallel operation that stays serial no matter
    #: how many CPUs join in — bus saturation and per-loop serial
    #: sections on the Gigaplane-bus Enterprise 4000.
    unparallelizable_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.op_overhead_us < 0 or self.fork_base_us < 0 \
                or self.fork_per_proc_us < 0:
            raise ValueError("cost parameters must be non-negative")
        if self.min_parallel_points < 1:
            raise ValueError("min_parallel_points must be >= 1")
        if self.large_grid_penalty_ns < 0:
            raise ValueError("cost parameters must be non-negative")
        if not 0.0 <= self.unparallelizable_fraction < 1.0:
            raise ValueError("unparallelizable_fraction must be in [0, 1)")


def _work_seconds(profile: MachineProfile, op: TraceOp) -> float:
    ns = profile.per_point_ns.get(op.kind)
    if ns is None:
        return 0.0
    if op.kind in KIND_IS_SURFACE:
        effective_points = 6.0 * op.points ** (2.0 / 3.0)
    else:
        effective_points = float(op.points)
    if (
        profile.large_grid_penalty_ns
        and op.kind not in KIND_IS_SURFACE
        and op.points >= profile.large_grid_threshold
    ):
        ns = ns + profile.large_grid_penalty_ns
    return effective_points * ns * 1e-9


def op_time_seconds(profile: MachineProfile, op: TraceOp,
                    nprocs: int = 1) -> tuple[float, bool]:
    """Simulated wall-clock seconds of one operation.

    Returns ``(seconds, ran_parallel)``.
    """
    work = _work_seconds(profile, op)
    overhead = profile.op_overhead_us * 1e-6
    parallel = (
        nprocs > 1
        and op.kind in profile.parallel_kinds
        and op.points >= profile.min_parallel_points
    )
    if parallel:
        fork = (profile.fork_base_us
                + profile.fork_per_proc_us * nprocs) * 1e-6
        beta = profile.unparallelizable_fraction
        return work * (beta + (1.0 - beta) / nprocs) + fork + overhead, True
    return work + overhead, False
