"""Calibrated SMP simulator standing in for the paper's 12-CPU SUN
Ultra Enterprise 4000 (see DESIGN.md for the substitution rationale)."""

from .calibration import (
    F77_ANCHOR_SECONDS_A,
    KIND_WEIGHTS,
    PAPER,
    PaperTargets,
    get_profile,
    profiles,
)
from .costmodel import MachineProfile, op_time_seconds
from .smp import SimResult, simulate, simulate_class

__all__ = [
    "MachineProfile",
    "op_time_seconds",
    "SimResult",
    "simulate",
    "simulate_class",
    "profiles",
    "get_profile",
    "PAPER",
    "PaperTargets",
    "KIND_WEIGHTS",
    "F77_ANCHOR_SECONDS_A",
]
