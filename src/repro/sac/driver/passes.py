"""The optimization passes: one table, the schedule derived from it, and
an instrumented :class:`PassManager` to run it.

:data:`PASSES` is the only place that lists the passes.  Its order is
the schedule; :func:`schedule_for` drops what a
:class:`~repro.sac.module.CompileOptions`' ``pass_overrides`` switch off
and rejects names the table does not have (``SAC010``).

Every execution is instrumented: wall time and how many function bodies
were rewritten, collected in a :class:`PassReport` (``repro.harness
--pass-report`` renders its table).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from ..ast_nodes import Program
from ..errors import SacOptionError
from ..optim.coeffgroup import coeffgroup_pass
from ..optim.constfold import constfold_pass
from ..optim.cse import cse_pass
from ..optim.dce import dce_pass
from ..optim.inline import inline_pass
from ..optim.partialsum import partialsum_pass
from ..optim.unroll import unroll_pass
from ..optim.wlfold import wlfold_pass

__all__ = [
    "PASSES",
    "RERUN_AFTER",
    "PassExecution",
    "PassReport",
    "PassManager",
    "schedule_for",
]


#: The pipeline, in schedule order — the SAC compiler's high-level
#: strategy.
PASSES: dict[str, Callable[[Program], Program]] = {
    "inline": inline_pass,          # expose library WITH-loops at use sites
    "constfold": constfold_pass,    # literalize bounds and pure calls
    "wlfold": wlfold_pass,          # fuse producer/consumer WITH-loops
    "unroll": unroll_pass,          # unroll constant-bounded stencil folds
    "coeffgroup": coeffgroup_pass,  # group equal coefficients (27 -> 4 muls)
    "partialsum": partialsum_pass,  # share partial sums between neighbours
    "cse": cse_pass,                # share structurally equal subexpressions
    "dce": dce_pass,                # drop assignments made dead by folding
}

#: Passes that run again right after another: unrolling exposes
#: per-offset coefficient lookups, and the literal offsets a stepped
#: producer's readers are split by; fold both again.
RERUN_AFTER = {"unroll": ("constfold", "wlfold")}


def _unknown(names) -> SacOptionError:
    return SacOptionError(
        f"unknown pass name(s) {', '.join(repr(n) for n in names)}; "
        f"valid passes: {', '.join(PASSES)}")


def schedule_for(options) -> tuple[str, ...]:
    """The schedule a :class:`~repro.sac.module.CompileOptions` asks
    for: :data:`PASSES` in order, each followed by what
    :data:`RERUN_AFTER` names for it, minus what
    ``options.pass_overrides`` switch off."""
    overrides = dict(options.pass_overrides)
    bad = sorted(n for n in overrides if n not in PASSES)
    if bad:
        raise _unknown(bad)
    schedule: list[str] = []
    for name in PASSES:
        if overrides.get(name, True):
            schedule.append(name)
            schedule += [n for n in RERUN_AFTER.get(name, ())
                         if overrides.get(n, True)]
    return tuple(schedule)


@dataclass(frozen=True)
class PassExecution:
    """Metrics for one run of one pass."""

    name: str
    seconds: float
    rewrites: int  #: function bodies structurally changed by this run


@dataclass
class PassReport:
    """Everything the manager observed while running a schedule."""

    executions: list[PassExecution] = field(default_factory=list)

    def runs(self, name: str | None = None) -> int:
        return sum(1 for e in self.executions
                   if name is None or e.name == name)

    def rewrites(self, name: str | None = None) -> int:
        return sum(e.rewrites for e in self.executions
                   if name is None or e.name == name)

    def total_seconds(self) -> float:
        return sum(e.seconds for e in self.executions)

    def format_table(self) -> str:
        """Aggregate per-pass table (runs, wall time, rewrites)."""
        order: list[str] = []
        for e in self.executions:
            if e.name not in order:
                order.append(e.name)
        header = f"{'pass':<12} {'runs':>5} {'time_ms':>9} {'rewrites':>9}"
        rows = [header, "-" * len(header)]
        for name in order:
            ms = sum(e.seconds for e in self.executions
                     if e.name == name) * 1e3
            rows.append(f"{name:<12} {self.runs(name):>5} "
                        f"{ms:>9.2f} {self.rewrites(name):>9}")
        rows.append("-" * len(header))
        rows.append(f"{'total':<12} {self.runs():>5} "
                    f"{self.total_seconds() * 1e3:>9.2f} "
                    f"{self.rewrites():>9}")
        return "\n".join(rows)


def _count_rewrites(before: Program, after: Program) -> int:
    """How many function bodies a pass changed.  Every pass returns an
    unchanged function, body or program as the same object."""
    if after is before:
        return 0
    old, new = before.functions, after.functions
    if len(old) != len(new):
        return max(len(old), len(new))
    return sum(f_old is not f_new and f_old.body is not f_new.body
               for f_old, f_new in zip(old, new))


class PassManager:
    """Run schedules of :data:`PASSES` with instrumentation.

    One manager can run many schedules; every execution lands in
    :attr:`report`.
    """

    def __init__(self) -> None:
        self.report = PassReport()

    def run(self, program: Program, schedule: tuple[str, ...]) -> Program:
        """Run a schedule of pass names, recording each one's metrics."""
        for name in schedule:
            if name not in PASSES:
                raise _unknown([name])
            t0 = time.perf_counter()
            result = PASSES[name](program)
            seconds = time.perf_counter() - t0
            rewrites = _count_rewrites(program, result)
            self.report.executions.append(
                PassExecution(name, seconds, rewrites))
            if rewrites:
                program = result
        return program
