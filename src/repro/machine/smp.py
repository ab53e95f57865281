"""Trace-driven SMP simulator.

Replays an MG operation trace (real or synthesized — the V-cycle's op
sequence is fully determined by ``(nx, nit)``) against a calibrated
:class:`~repro.machine.costmodel.MachineProfile` and reports simulated
wall-clock time with per-kind and per-level breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.trace import Trace, synthesize_mg_trace

from .costmodel import MachineProfile, op_time_seconds

__all__ = ["SimResult", "simulate", "simulate_class"]


@dataclass
class SimResult:
    """Outcome of one simulated run."""

    seconds: float
    seconds_by_kind: dict[str, float] = field(default_factory=dict)
    seconds_by_level: dict[int, float] = field(default_factory=dict)
    parallel_ops: int = 0
    serial_ops: int = 0

    @property
    def total_ops(self) -> int:
        return self.parallel_ops + self.serial_ops


def simulate(trace: Trace, profile: MachineProfile,
             nprocs: int = 1) -> SimResult:
    """Simulate one run of the traced operations on ``nprocs`` CPUs."""
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    result = SimResult(0.0)
    for op in trace:
        t, parallel = op_time_seconds(profile, op, nprocs)
        result.seconds += t
        result.seconds_by_kind[op.kind] = (
            result.seconds_by_kind.get(op.kind, 0.0) + t
        )
        result.seconds_by_level[op.level] = (
            result.seconds_by_level.get(op.level, 0.0) + t
        )
        if parallel:
            result.parallel_ops += 1
        else:
            result.serial_ops += 1
    return result


def simulate_class(nx: int, nit: int, profile: MachineProfile,
                   nprocs: int = 1) -> SimResult:
    """Synthesize the MG trace for ``(nx, nit)`` and simulate it."""
    return simulate(synthesize_mg_trace(nx, nit), profile, nprocs)
