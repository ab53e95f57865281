"""The supervised solve's structured post-mortem / flight record.

Every supervised solve — successful or not — produces one
:class:`SolveReport`: each attempt with its rung, wall time, outcome and
error; every demotion with the exception that triggered it; watchdog
verdicts; heals; checkpoint usage.  The report is
plain data (``to_dict`` / ``to_json``) so the harness and the chaos CI
job can archive it as a JSON artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["AttemptRecord", "DemotionRecord", "SolveReport"]


@dataclass
class AttemptRecord:
    """One attempt of one rung."""

    rung: str
    #: 0-based attempt index within this rung.
    attempt: int
    #: "ok" | "retry" | "demote" | "deadline"
    outcome: str = "ok"
    #: Wall time of this attempt, seconds.
    elapsed: float = 0.0
    error_type: str | None = None
    error: str | None = None
    #: Checkpoint iteration this attempt restarted from (None = fresh).
    restarted_from: int | None = None
    #: Watchdog verdict if the attempt died numerically sick.
    watchdog: str | None = None
    #: Backoff slept *after* this attempt before the retry, seconds.
    backoff: float | None = None

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class DemotionRecord:
    """One step down the degradation ladder."""

    from_rung: str
    to_rung: str
    #: Human-readable cause ("retry budget exhausted", a watchdog
    #: verdict, "compiled-kernel path failed (SacError)", ...).
    reason: str

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class SolveReport:
    """The full flight record of one supervised solve."""

    size_class: str
    #: Solver-family member this solve ran (``repro.pde.PROBLEMS`` key).
    problem: str = "npb-mg"
    #: "solved" or "failed".
    outcome: str = "failed"
    attempts: list[AttemptRecord] = field(default_factory=list)
    demotions: list[DemotionRecord] = field(default_factory=list)
    #: Elastic heals performed across all attempts, as
    #: :class:`~repro.runtime.supervisor.elastic.HealRecord` instances
    #: (in-place rank replacements that kept the world at full width).
    heals: list = field(default_factory=list)
    #: The rung that produced the returned result, if any.
    solved_by: str | None = None
    rnm2: float | None = None
    verified: bool | None = None
    #: Total supervised wall time, seconds.
    wall_time: float = 0.0
    #: Last error when ``outcome == "failed"``.
    failure: str | None = None

    @property
    def retries(self) -> int:
        """Same-rung re-attempts performed."""
        return sum(rec.outcome == "retry" for rec in self.attempts)

    @property
    def checkpoints_used(self) -> int:
        """Attempts that restarted from a complete checkpoint snapshot."""
        return sum(rec.restarted_from is not None for rec in self.attempts)

    @property
    def watchdog_verdicts(self) -> list[str]:
        """The watchdog verdict of each attempt that died numerically
        sick, in attempt order."""
        return [rec.watchdog for rec in self.attempts
                if rec.watchdog is not None]

    @property
    def rungs_tried(self) -> list[str]:
        """Rung descriptions in first-attempt order."""
        seen: list[str] = []
        for rec in self.attempts:
            if rec.rung not in seen:
                seen.append(rec.rung)
        return seen

    def to_dict(self) -> dict:
        return {
            "size_class": self.size_class,
            "problem": self.problem,
            "outcome": self.outcome,
            "solved_by": self.solved_by,
            "rnm2": self.rnm2,
            "verified": self.verified,
            "wall_time": self.wall_time,
            "retries": self.retries,
            "checkpoints_used": self.checkpoints_used,
            "rungs_tried": self.rungs_tried,
            "attempts": [a.to_dict() for a in self.attempts],
            "demotions": [d.to_dict() for d in self.demotions],
            "heals": [h.to_dict() for h in self.heals],
            "watchdog_verdicts": list(self.watchdog_verdicts),
            "failure": self.failure,
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        """A terse human-readable synopsis."""
        lines = [
            f"supervised solve, class {self.size_class}"
            + ("" if self.problem == "npb-mg"
               else f", problem {self.problem}")
            + f": {self.outcome}"
            + (f" by {self.solved_by}" if self.solved_by else ""),
            f"  attempts={len(self.attempts)} retries={self.retries} "
            f"checkpoints_used={self.checkpoints_used} "
            f"wall_time={self.wall_time:.3f}s",
        ]
        for rec in self.attempts:
            line = (f"  [{rec.rung} #{rec.attempt}] {rec.outcome} "
                    f"({rec.elapsed:.3f}s)")
            if rec.restarted_from is not None:
                line += f" restart@{rec.restarted_from}"
            if rec.error_type:
                line += f" {rec.error_type}"
            if rec.watchdog:
                line += f" watchdog={rec.watchdog}"
            lines.append(line)
        for heal in self.heals:
            lines.append(
                f"  heal epoch {heal.epoch}: rank {heal.rank} -> "
                f"incarnation {heal.incarnation}, restored from iteration "
                f"{heal.restored_from}"
                + ("" if heal.completed else " (incomplete)"))
        for dem in self.demotions:
            lines.append(f"  demote {dem.from_rung} -> {dem.to_rung}: "
                         f"{dem.reason}")
        if self.rnm2 is not None:
            lines.append(f"  rnm2={self.rnm2:.12e} verified={self.verified}")
        if self.failure:
            lines.append(f"  failure: {self.failure}")
        return "\n".join(lines)
