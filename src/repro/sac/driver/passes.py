"""Declarative, instrumented pass management.

The optimization pipeline used to be a hardwired ``if``-chain in
:mod:`repro.sac.optim.pipeline`.  Here the same passes are *registered*
as :class:`PassSpec` entries — a name, the rewrite function, and the
artifacts a rewrite invalidates — and executed by a :class:`PassManager`
from an explicit schedule.  Schedules are sequences of pass names and
:class:`Fixpoint` groups; a fixpoint group repeats its member passes
until a full round rewrites nothing (the constfold/wlfold and cse/dce
interplays each converge this way).

Every execution is instrumented: wall time, whether the program
changed, and how many function bodies were rewritten, all collected in
a :class:`PassReport` (``repro.harness --pass-report`` renders its
table).  With ``snapshots=True`` the manager additionally keeps
before/after pretty-prints of every changing pass — the compiler
equivalent of ``-v`` tracing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from ..ast_nodes import Program
from ..optim.coeffgroup import coeffgroup_pass
from ..optim.constfold import constfold_pass
from ..optim.cse import cse_pass
from ..optim.dce import dce_pass
from ..optim.inline import inline_pass
from ..optim.ipup import ipup_pass
from ..optim.rewrite import ast_key
from ..optim.unroll import unroll_pass
from ..optim.wlfold import wlfold_pass

__all__ = [
    "PassSpec",
    "Fixpoint",
    "PassExecution",
    "PassReport",
    "PassManager",
    "register_pass",
    "registered_passes",
    "schedule_for",
]


@dataclass(frozen=True)
class PassSpec:
    """One registered rewrite pass.

    ``invalidates`` declares which downstream artifacts can no longer be
    trusted once this pass rewrites the program: ``"analysis"`` (the
    static analyzer's report describes the pre-rewrite WITH-loops) and
    ``"kernels"`` (compiled specializations trace the rewritten
    functions).  The session uses these to decide what must be recomputed
    — and, inversely, the kernel cache keys on the *post*-pipeline
    program digest, so declared invalidations are what make the
    content-addressed keys sound.
    """

    name: str
    fn: Callable[[Program], Program]
    description: str
    invalidates: tuple[str, ...] = ("analysis", "kernels")


@dataclass(frozen=True)
class Fixpoint:
    """A schedule element: repeat ``passes`` until a round changes
    nothing (or ``max_iterations`` rounds have run)."""

    passes: tuple[str, ...]
    max_iterations: int = 8


_REGISTRY: dict[str, PassSpec] = {}


def register_pass(name: str, fn: Callable[[Program], Program],
                  description: str,
                  invalidates: tuple[str, ...] = ("analysis", "kernels"),
                  ) -> PassSpec:
    """Register (or re-register) a pass under ``name``."""
    spec = PassSpec(name, fn, description, invalidates)
    _REGISTRY[name] = spec
    return spec


def registered_passes() -> dict[str, PassSpec]:
    """A snapshot of the registry (name -> spec)."""
    return dict(_REGISTRY)


register_pass("inline", inline_pass,
              "inline library calls to expose WITH-loops at use sites")
register_pass("constfold", constfold_pass,
              "literalize bounds and compile-time-evaluable pure calls")
register_pass("wlfold", wlfold_pass,
              "fuse producer/consumer WITH-loops")
register_pass("unroll", unroll_pass,
              "unroll constant-bounded stencil folds")
register_pass("coeffgroup", coeffgroup_pass,
              "group equal stencil coefficients (27 -> 4 multiplies)")
register_pass("cse", cse_pass,
              "share structurally equal subexpressions")
register_pass("dce", dce_pass,
              "drop assignments made dead by folding")
# Annotation-only: certificates describe the final loop structure, so
# the analysis report stays valid; only compiled kernels must refresh.
register_pass("ipup", ipup_pass,
              "annotate WITH-loops with certified buffer-reuse hints",
              invalidates=("kernels",))


@dataclass(frozen=True)
class PassExecution:
    """Metrics for one run of one pass."""

    name: str
    seconds: float
    rewrites: int  #: function bodies structurally changed by this run
    iteration: int = 0  #: round index within a fixpoint group, else 0

    @property
    def changed(self) -> bool:
        return self.rewrites > 0


@dataclass
class PassReport:
    """Everything the manager observed while running a schedule."""

    executions: list[PassExecution] = field(default_factory=list)
    #: (pass name, before, after) pretty-prints, recorded only for
    #: executions that changed the program and only with snapshots on.
    snapshots: list[tuple[str, str, str]] = field(default_factory=list)

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
    """How many function bodies changed, structurally (position-blind).

    Passes preserve unchanged subtrees by identity *most* of the time,
    but a few rebuild blocks unconditionally, so identity is only the
    fast path; the slow path compares :func:`ast_key` per function.
    """
    if after is before:
        return 0
    old, new = before.functions, after.functions
    if len(old) != len(new):
        return max(len(old), len(new))
    count = 0
    for f_old, f_new in zip(old, new):
        if f_old is f_new:
            continue
        if ast_key(f_old) != ast_key(f_new):
            count += 1
    return count


class PassManager:
    """Run schedules of registered passes with instrumentation.

    One manager can run many schedules; every execution lands in
    :attr:`report`, so a session's report accumulates across stages
    (initial pipeline, later re-optimizations).
    """

    def __init__(self, registry: dict[str, PassSpec] | None = None, *,
                 snapshots: bool = False):
        self.registry = dict(registry) if registry is not None else None
        self.snapshots = snapshots
        self.report = PassReport()

    def _spec(self, name: str) -> PassSpec:
        registry = self.registry if self.registry is not None else _REGISTRY
        try:
            return registry[name]
        except KeyError:
            from ..errors import SacOptionError

            valid = ", ".join(sorted(registry))
            raise SacOptionError(
                f"unknown pass {name!r}; registered passes: {valid}"
            ) from None

    def run_pass(self, program: Program, name: str,
                 iteration: int = 0) -> Program:
        """Run one registered pass, recording metrics (and snapshots)."""
        spec = self._spec(name)
        before_text = None
        if self.snapshots:
            from ..pprint import pprint_program

            before_text = pprint_program(program)
        t0 = time.perf_counter()
        result = spec.fn(program)
        seconds = time.perf_counter() - t0
        rewrites = _count_rewrites(program, result)
        self.report.executions.append(
            PassExecution(name, seconds, rewrites, iteration)
        )
        if self.snapshots and rewrites:
            from ..pprint import pprint_program

            self.report.snapshots.append(
                (name, before_text, pprint_program(result))
            )
        return result if rewrites else program

    def run(self, program: Program,
            schedule: tuple[str | Fixpoint, ...]) -> Program:
        """Run a schedule of pass names and fixpoint groups."""
        for item in schedule:
            if isinstance(item, Fixpoint):
                for round_no in range(item.max_iterations):
                    changed = False
                    for name in item.passes:
                        result = self.run_pass(program, name, round_no)
                        if result is not program:
                            changed = True
                            program = result
                    if not changed:
                        break
            else:
                program = self.run_pass(program, item)
        return program


def schedule_for(options) -> tuple[str | Fixpoint, ...]:
    """Build the schedule a :class:`~repro.sac.optim.pipeline.PassOptions`
    asks for.

    The plain schedule is inline, constfold, wlfold, unroll, constfold
    and wlfold again, coeffgroup, cse, dce, ipup, each subject to its
    toggle.  With ``options.fixpoint`` the interacting pairs run as
    fixpoint groups instead, so repeated folding opportunities exposed
    by a prior round are taken.
    """
    fix = bool(getattr(options, "fixpoint", False))
    on = {name for name in ("inline", "constfold", "wlfold", "unroll",
                            "coeffgroup", "cse", "dce")
          if getattr(options, name)}

    def group(*names: str) -> tuple[str | Fixpoint, ...]:
        members = tuple(n for n in names if n in on)
        if not members:
            return ()
        if fix and len(members) > 1:
            return (Fixpoint(members),)
        if fix and members == ("constfold",):
            return (Fixpoint(members),)
        return members

    schedule: list[str | Fixpoint] = []
    schedule += group("inline")
    schedule += group("constfold", "wlfold")
    if "unroll" in on:
        schedule += group("unroll")
        # Unrolling exposes per-offset coefficient lookups, and the
        # literal offsets a stepped producer's readers are split by;
        # fold both again.
        schedule += group("constfold", "wlfold")
    schedule += group("coeffgroup")
    schedule += group("cse", "dce")
    # ipup runs last and never joins a fixpoint group: its hints are
    # annotations, not rewrites, and must describe the settled loops.
    if getattr(options, "ipup", False):
        schedule.append("ipup")
    return tuple(schedule)
