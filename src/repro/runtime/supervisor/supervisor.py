"""Policy-driven self-healing supervision of MG solves.

:class:`SupervisedSolver` wraps every execution mode of the benchmark —
the compiled ``mg.sac``, the SPMD distributed solver, the fork-join
threaded solver, the serial reference — behind one
``solve(size_class, policy)`` entrypoint that guarantees either a
result or a structured post-mortem
(:class:`~.errors.SupervisionFailed` carrying a
:class:`~.report.SolveReport`).  Four mechanisms compose:

* **retry-from-checkpoint** — a distributed attempt that dies with
  :class:`~repro.runtime.resilience.errors.WorldAborted` (or any other
  retryable runtime failure) is re-run from the last *complete*
  :class:`~repro.runtime.resilience.CheckpointStore` snapshot, with
  seeded exponential backoff + jitter and a bounded attempt budget.
  Restarted runs are bit-identical to uninterrupted ones (the PR 2
  invariant), so a retried solve still passes NPB verification.
* **graceful-degradation ladder** — when a rung's retry budget is
  exhausted (or it fails non-retryably), the supervisor demotes to the
  next :class:`~.policy.Rung`: ``sac → distributed → threaded →
  serial``.  Every demotion is recorded with the exception that
  triggered it.
* **numerical watchdog** — each attempt's residual trajectory is
  guarded per iteration (:class:`~.watchdog.NumericalWatchdog`): a
  NaN/Inf norm, a divergence past ``divergence_ratio`` × best, or a
  stagnation window aborts the attempt *at that iteration boundary*
  and rolls back+demotes instead of burning the iteration budget.  A
  supervised solve never returns a non-finite grid.
* **compile-failure demotion** — a ``sac`` attempt that fails with a
  :class:`~repro.sac.errors.SacError` demotes to ``core.mg`` at once.
  The compile cache memoises the failure under its key, so a later
  solve that asks for the same specialization demotes without tracing
  it again.

See ``docs/SUPERVISOR.md`` for the policy reference.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from repro.core.classes import SizeClass, get_class
from repro.core.mg import MGResult, checked_rhs
from repro.core.mg import solve as serial_solve
from repro.core.zran3 import zran3

from ..parallel_mg import ParallelMG
from ..resilience import CheckpointStore, FaultPlan
from ..resilience.errors import (
    CheckpointError,
    ResilienceError,
    TeamError,
    WorldAborted,
)
from ..spmd import DEFAULT_TIMEOUT, DistributedMG
from .errors import DeadlineExceeded, NumericalDivergence, SupervisionFailed
from .policy import Rung, SupervisorPolicy
from .report import AttemptRecord, DemotionRecord, SolveReport
from .watchdog import NumericalWatchdog

__all__ = ["SupervisedResult", "SupervisedSolver"]


# -- failure classification ---------------------------------------------------


def _walk_causes(exc: BaseException | None, depth: int = 0):
    """Yield ``exc`` and every failure it wraps (composites included)."""
    if exc is None or depth > 8:
        return
    yield exc
    if isinstance(exc, WorldAborted):
        for failure in exc.failures:
            yield from _walk_causes(failure, depth + 1)
    if isinstance(exc, TeamError):
        for cause in exc.causes:
            yield from _walk_causes(cause, depth + 1)
    wrapped = getattr(exc, "cause", None)
    if isinstance(wrapped, BaseException):
        yield from _walk_causes(wrapped, depth + 1)
    if exc.__cause__ is not None:
        yield from _walk_causes(exc.__cause__, depth + 1)


def _find_cause(exc: BaseException, kinds) -> BaseException | None:
    for cause in _walk_causes(exc):
        if isinstance(cause, kinds):
            return cause
    return None


def _compile_failure(exc: BaseException) -> BaseException | None:
    """The :class:`~repro.sac.errors.SacError` buried in ``exc``, if any."""
    from repro.sac.errors import SacError

    return _find_cause(exc, SacError)


def _retryable(exc: BaseException) -> bool:
    """Is this a transient runtime failure worth a same-rung retry?

    The structured runtime taxonomy (world aborts, halo/barrier
    timeouts, team failures) and raw timeouts are transient; watchdog
    verdicts, compile failures and checkpoint misuse are classified
    before this is consulted; anything else (``ValueError`` from an
    incompatible rung, programming errors) demotes immediately.
    """
    return isinstance(exc, (ResilienceError, TimeoutError))


# -- results ------------------------------------------------------------------


@dataclass
class SupervisedResult:
    """A successful supervised solve: the result plus its flight record."""

    #: An ``MGResult``, or a ``SacMGResult`` (no ``u``) from a sac rung.
    result: MGResult
    report: SolveReport

    @property
    def rnm2(self) -> float:
        return self.result.rnm2

    @property
    def verified(self) -> bool:
        return self.result.verified


# -- the supervisor -----------------------------------------------------------


class SupervisedSolver:
    """Self-healing MG solve supervision.

    Parameters
    ----------
    policy:
        Default :class:`~.policy.SupervisorPolicy` (a per-call policy
        can override it).
    checkpoint:
        Optional externally-owned :class:`CheckpointStore`; by default
        each ``solve`` gets a fresh store (pruned to
        ``policy.checkpoint_retain`` snapshots).
    fault_plan:
        Optional deterministic :class:`FaultPlan` threaded into
        distributed rungs — chaos tests drive the supervisor with this.
    clock / sleep:
        Injectable time sources for deterministic tests.
    """

    def __init__(self, *, policy: SupervisorPolicy | None = None,
                 checkpoint: CheckpointStore | None = None,
                 fault_plan: FaultPlan | None = None,
                 clock=time.monotonic, sleep=time.sleep):
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.checkpoint = checkpoint
        self.fault_plan = fault_plan
        self._clock = clock
        self._sleep = sleep

    # -- plumbing -----------------------------------------------------------

    def _run_rung(self, rung: Rung, sc: SizeClass, nit: int | None,
                  v: np.ndarray | None,
                  policy: SupervisorPolicy, store: CheckpointStore,
                  restart: bool, watchdog: NumericalWatchdog | None,
                  deadline: float | None,
                  report: SolveReport | None = None) -> MGResult:
        on_iter = watchdog.observe if watchdog is not None else None
        if rung.problem != "npb-mg":
            # PDE family members: serial/threaded through the pde
            # solver (distributed/sac rungs were skipped by the ladder
            # loop with a demotion record).
            from repro.pde import solve_problem

            return solve_problem(rung.problem, sc.name, mode=rung.mode,
                                 nthreads=rung.workers,
                                 on_iteration=on_iter)
        if rung.mode == "sac":
            from repro.mg_sac.loader import solve_generated_mg

            return solve_generated_mg(sc, nit, v=v)
        if rung.mode == "distributed":
            timeout = policy.op_timeout
            join_timeout = None
            if deadline is not None:
                remaining = max(deadline - self._clock(), 0.01)
                timeout = min(timeout if timeout is not None
                              else DEFAULT_TIMEOUT, remaining)
                join_timeout = remaining
            mg = DistributedMG(rung.workers, timeout=timeout,
                               join_timeout=join_timeout,
                               poll_interval=policy.poll_interval,
                               fault_plan=self.fault_plan,
                               transport=policy.transport,
                               heal=policy.heal)
            try:
                return mg.solve(sc, nit, v=v, checkpoint=store,
                                checkpoint_every=policy.checkpoint_every,
                                restart=restart, on_iteration=on_iter)
            finally:
                # Heals happen inside the world, beneath the ladder —
                # surface them on the report even when the attempt died.
                if report is not None:
                    world = getattr(mg, "last_world", None)
                    if world is not None:
                        report.heals.extend(world.heal_log)
        if rung.mode == "threaded":
            with ParallelMG(rung.workers) as mg:
                return mg.solve(sc, nit, v=v, on_iteration=on_iter)
        return serial_solve(sc, nit, v=v, on_iteration=on_iter)

    # -- the supervised solve ----------------------------------------------

    def solve(self, size_class: str | SizeClass, nit: int | None = None, *,
              v: np.ndarray | None = None,
              policy: SupervisorPolicy | None = None,
              problem: str = "npb-mg") -> SupervisedResult:
        """Solve under supervision: a result or a structured post-mortem.

        Returns a :class:`SupervisedResult`; raises
        :class:`~.errors.SupervisionFailed` (its ``report`` attribute is
        the full :class:`~.report.SolveReport`) only when every ladder
        rung is exhausted or the deadline budget runs out.

        ``problem`` selects the solver-family member; non-default values
        stamp every ladder rung (the rung specs carry the problem name),
        and rungs the member cannot run (distributed, sac) are skipped
        with a demotion record.

        ``v`` is the NPB right-hand side (``None``: built here with
        ``zran3`` — see :func:`repro.core.mg.checked_rhs`); either way
        it is built once and every attempt of every rung reads the same
        array.  Family members other than ``npb-mg`` build their own.
        """
        import dataclasses

        policy = policy if policy is not None else self.policy
        sc = (get_class(size_class) if isinstance(size_class, str)
              else size_class)
        if problem == "npb-mg":
            v = zran3(sc.nx) if v is None else checked_rhs(sc, v)
        elif v is not None:
            raise ValueError(f"problem {problem!r} builds its own "
                             "right-hand side; v belongs to npb-mg")
        report = SolveReport(size_class=sc.name, problem=problem)
        t_start = self._clock()
        deadline = (t_start + policy.deadline
                    if policy.deadline is not None else None)
        rng = random.Random(policy.retry.seed)
        store = self.checkpoint
        if store is None:
            store = CheckpointStore(retain=policy.checkpoint_retain)
        check_verify = (policy.verify and nit is None
                        and sc.verify_value is not None
                        and problem == "npb-mg")
        last_error: BaseException | None = None
        ladder = policy.ladder
        if problem != "npb-mg":
            ladder = tuple(dataclasses.replace(r, problem=problem)
                           for r in ladder)
        try:
            for ri, rung in enumerate(ladder):
                next_desc = (ladder[ri + 1].describe()
                             if ri + 1 < len(ladder) else "(none)")
                if (rung.problem != "npb-mg"
                        and rung.mode in ("distributed", "sac")):
                    report.demotions.append(DemotionRecord(
                        rung.describe(), next_desc,
                        f"problem {rung.problem!r} runs serial/threaded "
                        "only; skipping this rung",
                    ))
                    continue
                outcome = self._attempt_rung(
                    rung, next_desc, sc, nit, v, policy, store, deadline,
                    rng, report, check_verify,
                )
                if isinstance(outcome, SupervisedResult):
                    report.wall_time = self._clock() - t_start
                    return outcome
                last_error = outcome if outcome is not None else last_error
        except DeadlineExceeded as exc:
            last_error = exc
            report.failure = str(exc)
        report.outcome = "failed"
        report.wall_time = self._clock() - t_start
        if report.failure is None and last_error is not None:
            report.failure = f"{type(last_error).__name__}: {last_error}"
        raise SupervisionFailed(report, cause=last_error)

    # -- one rung's attempt loop ---------------------------------------------

    def _attempt_rung(self, rung: Rung, next_desc: str, sc: SizeClass,
                      nit: int | None, v: np.ndarray | None,
                      policy: SupervisorPolicy,
                      store: CheckpointStore, deadline: float | None,
                      rng: random.Random, report: SolveReport,
                      check_verify: bool):
        """Run one rung under its retry budget.

        Returns a :class:`SupervisedResult` on success, or the last
        exception (``None`` for a verification demotion) after writing
        the demotion record — the caller then moves down the ladder.
        """
        attempt = 0
        last_error: BaseException | None = None
        while True:
            if deadline is not None and self._clock() >= deadline:
                raise DeadlineExceeded(policy.deadline)
            watchdog = (NumericalWatchdog(policy.watchdog)
                        if policy.watchdog.enabled else None)
            restart_from = None
            if rung.mode == "distributed":
                latest = store.latest()
                if latest is not None:
                    try:
                        if store.world_size(latest) == rung.workers:
                            restart_from = latest
                    except CheckpointError:
                        restart_from = None
            rec = AttemptRecord(rung=rung.describe(), attempt=attempt,
                                restarted_from=restart_from)
            t0 = self._clock()
            try:
                result = self._run_rung(rung, sc, nit, v, policy, store,
                                        restart_from is not None,
                                        watchdog, deadline, report)
                rec.elapsed = self._clock() - t0
                grid = result.r if rung.mode == "sac" else result.u
                if watchdog is not None and not np.all(np.isfinite(grid)):
                    raise NumericalDivergence(
                        "non-finite",
                        detail="solution grid contains non-finite values",
                    )
            except Exception as exc:
                rec.elapsed = self._clock() - t0
                rec.error_type = type(exc).__name__
                rec.error = str(exc)
                last_error = exc

                verdict = _find_cause(exc, NumericalDivergence)
                if verdict is not None:
                    rec.outcome = "demote"
                    rec.watchdog = verdict.verdict
                    report.attempts.append(rec)
                    rollback = store.latest()
                    where = (f"; rolled back to checkpoint {rollback}"
                             if rollback is not None else "")
                    report.demotions.append(DemotionRecord(
                        rec.rung, next_desc,
                        f"numerical watchdog: {verdict.verdict}{where}",
                    ))
                    return last_error

                if rung.mode == "sac":
                    compile_exc = _compile_failure(exc)
                    if compile_exc is not None:
                        rec.outcome = "demote"
                        report.attempts.append(rec)
                        report.demotions.append(DemotionRecord(
                            rec.rung, next_desc,
                            f"compiled-kernel path failed "
                            f"({type(compile_exc).__name__})",
                        ))
                        return last_error

                if (_find_cause(exc, CheckpointError) is not None
                        or not _retryable(exc)):
                    rec.outcome = "demote"
                    report.attempts.append(rec)
                    report.demotions.append(DemotionRecord(
                        rec.rung, next_desc,
                        f"non-retryable failure: {type(exc).__name__}",
                    ))
                    return last_error

                attempt += 1
                if attempt >= policy.retry.max_attempts:
                    rec.outcome = "demote"
                    report.attempts.append(rec)
                    report.demotions.append(DemotionRecord(
                        rec.rung, next_desc,
                        f"retry budget exhausted "
                        f"({policy.retry.max_attempts} attempts)",
                    ))
                    return last_error
                pause = policy.retry.backoff(attempt - 1, rng)
                if deadline is not None:
                    pause = min(pause, max(0.0, deadline - self._clock()))
                rec.outcome = "retry"
                rec.backoff = pause
                report.attempts.append(rec)
                if pause > 0:
                    self._sleep(pause)
                continue

            if check_verify and not result.verified:
                rec.outcome = "demote"
                rec.error_type = "VerificationFailed"
                rec.error = f"rnm2 {result.rnm2!r} failed the NPB check"
                report.attempts.append(rec)
                report.demotions.append(DemotionRecord(
                    rec.rung, next_desc, "result failed NPB verification",
                ))
                return None

            rec.outcome = "ok"
            report.attempts.append(rec)
            report.outcome = "solved"
            report.solved_by = rec.rung
            report.rnm2 = result.rnm2
            if rung.problem != "npb-mg":
                # PDE members have no official NPB value; ``verified``
                # records converged-to-tolerance.
                report.verified = bool(result.verified)
            else:
                report.verified = (result.verified
                                   if (sc.verify_value is not None
                                       and nit is None)
                                   else None)
            return SupervisedResult(result, report)
