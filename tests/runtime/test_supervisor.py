"""Tests for the self-healing solver supervision layer.

Unit tests cover the watchdog, policy validation and the report; the ``supervisor``-marked end-to-end
tests drive :class:`SupervisedSolver` against real solves under seeded
:class:`FaultPlan`s — retry-from-checkpoint, ladder degradation,
NaN rollback, compile-failure demotion and determinism.
"""

import math
import os

import numpy as np
import pytest

from repro.core.mg import solve as serial_solve
from repro.mg_sac import loader
from repro.runtime.resilience import Fault, FaultKind, FaultPlan
from repro.runtime.supervisor import (
    NumericalDivergence,
    NumericalWatchdog,
    RetryPolicy,
    Rung,
    SolveReport,
    SupervisedSolver,
    SupervisionFailed,
    SupervisorPolicy,
    WatchdogPolicy,
    default_ladder,
)
from repro.sac.errors import SacError

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1234"))

supervisor = pytest.mark.supervisor

#: No-sleep retry policy used throughout the e2e tests.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def broken_compiler(monkeypatch):
    """Every compile of the generated ``mg.sac`` fails like a broken
    sac2c toolchain."""
    def boom(*args):
        raise SacError("sac2c exited with status 1")

    monkeypatch.setattr(loader, "_final_residual", boom)


@pytest.fixture
def untraceable(monkeypatch):
    """Tracing ``mg.sac`` fails below a fresh compile cache; yields the
    names of the functions traced."""
    from repro.sac import codegen
    from repro.sac.driver import cache

    traced = []

    def trace(table, fun, args, **kwargs):
        traced.append(fun.name)
        raise SacError(f"cannot trace {fun.name}")

    monkeypatch.setattr(codegen, "trace_fundef", trace)
    monkeypatch.setattr(cache, "_DEFAULT", cache.KernelCache())
    loader._load.cache_clear()
    loader._final_residual.cache_clear()
    yield traced
    loader._load.cache_clear()
    loader._final_residual.cache_clear()


# ---------------------------------------------------------------------------
# Numerical watchdog.
# ---------------------------------------------------------------------------

class TestNumericalWatchdog:
    def test_healthy_trajectory_passes(self):
        wd = NumericalWatchdog()
        for it, r in enumerate([1e-3, 1e-4, 1e-5, 1e-6]):
            wd.observe(it, r)
        assert wd.verdict is None
        assert wd.iterations_observed == 4

    def test_nan_is_terminal(self):
        wd = NumericalWatchdog()
        wd.observe(0, 1e-3)
        with pytest.raises(NumericalDivergence) as ei:
            wd.observe(1, float("nan"))
        assert ei.value.verdict == "non-finite"
        assert wd.verdict == "non-finite"
        assert ei.value.iteration == 1

    def test_inf_is_terminal_even_first_observation(self):
        wd = NumericalWatchdog()
        with pytest.raises(NumericalDivergence) as ei:
            wd.observe(0, math.inf)
        assert ei.value.verdict == "non-finite"

    def test_divergence_ratio(self):
        wd = NumericalWatchdog(WatchdogPolicy(divergence_ratio=100.0))
        wd.observe(0, 1e-4)
        wd.observe(1, 5e-4)  # worse, but under 100x best
        with pytest.raises(NumericalDivergence) as ei:
            wd.observe(2, 1e-4 * 101)
        assert ei.value.verdict == "divergent"

    def test_stagnation_window(self):
        wd = NumericalWatchdog(WatchdogPolicy(stagnation_window=3))
        wd.observe(0, 1e-4)
        wd.observe(1, 2e-4)
        wd.observe(2, 2e-4)
        with pytest.raises(NumericalDivergence) as ei:
            wd.observe(3, 2e-4)
        assert ei.value.verdict == "stagnant"

    def test_stagnation_disabled_by_default(self):
        wd = NumericalWatchdog()
        wd.observe(0, 1e-4)
        for it in range(1, 50):
            wd.observe(it, 1e-4)  # flat forever: fine
        assert wd.verdict is None

    def test_real_solve_trajectory_is_healthy(self):
        wd = NumericalWatchdog()
        res = serial_solve("T", on_iteration=wd.observe)
        assert wd.iterations_observed == 4
        assert wd.verdict is None
        assert wd.history[-1] == pytest.approx(res.rnm2)


# ---------------------------------------------------------------------------
# Policy validation and the report.
# ---------------------------------------------------------------------------

class TestPolicies:
    def test_default_ladder_shape(self):
        rungs = [r.describe() for r in default_ladder()]
        assert rungs == ["distributed x2", "threaded x2", "serial"]
        rungs = [r.describe() for r in default_ladder(kernels="sac",
                                                      nranks=4)]
        assert rungs == ["sac", "distributed x4", "threaded x2", "serial"]

    def test_rung_validation(self):
        with pytest.raises(ValueError):
            Rung("carrier-pigeon")
        with pytest.raises(ValueError):
            Rung("distributed", workers=3)  # not a power of two
        with pytest.raises(ValueError):
            Rung("threaded", workers=0)

    def test_retry_policy_validation_and_backoff(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        pol = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                          backoff_max=0.3, jitter=0.0)

        class R:
            def random(self):
                return 0.5

        assert pol.backoff(0, R()) == pytest.approx(0.1)
        assert pol.backoff(1, R()) == pytest.approx(0.2)
        assert pol.backoff(5, R()) == pytest.approx(0.3)  # capped

    def test_supervisor_policy_validation(self):
        with pytest.raises(ValueError):
            SupervisorPolicy(ladder=())
        with pytest.raises(ValueError):
            SupervisorPolicy(deadline=0.0)
        with pytest.raises(ValueError):
            SupervisorPolicy(checkpoint_every=0)

    def test_report_roundtrip(self):
        rep = SolveReport(size_class="S")
        d = rep.to_dict()
        assert d["outcome"] == "failed"
        assert d["attempts"] == []
        import json

        assert json.loads(rep.to_json()) == d


# ---------------------------------------------------------------------------
# Supervised solves (end to end).
# ---------------------------------------------------------------------------

@supervisor
class TestSupervisedSolve:
    def test_happy_path_serial(self):
        pol = SupervisorPolicy(ladder=(Rung("serial"),), retry=FAST_RETRY)
        res = SupervisedSolver(policy=pol).solve("T", 4)
        assert res.report.outcome == "solved"
        assert res.report.solved_by == "serial"
        assert len(res.report.attempts) == 1
        ref = serial_solve("T", 4)
        np.testing.assert_array_equal(res.result.u, ref.u)

    def test_happy_path_distributed_verifies(self):
        pol = SupervisorPolicy(ladder=(Rung("distributed", workers=2),
                                       Rung("serial")), retry=FAST_RETRY)
        res = SupervisedSolver(policy=pol).solve("S")
        assert res.verified
        assert res.report.solved_by == "distributed x2"
        assert res.report.retries == 0

    def test_retry_from_checkpoint_after_transient_crash(self, zran3_calls):
        # A plan-scoped (transient) crash kills rank 1 at iteration 2 of
        # the first attempt only; the retry restarts from the last
        # complete snapshot and still verifies.
        plan = FaultPlan([Fault(FaultKind.CRASH, rank=1, iteration=2,
                                scope="plan")])
        pol = SupervisorPolicy(
            ladder=(Rung("distributed", workers=4), Rung("serial")),
            retry=FAST_RETRY,
        )
        res = SupervisedSolver(policy=pol, fault_plan=plan).solve("S")
        rep = res.report
        assert res.verified
        assert rep.solved_by == "distributed x4"
        assert rep.retries >= 1
        assert rep.checkpoints_used >= 1
        restarts = [a.restarted_from for a in rep.attempts
                    if a.restarted_from is not None]
        assert restarts, "the retry should restart from a checkpoint"
        assert all(r >= 1 for r in restarts)
        # One right-hand side for every attempt and rank.
        assert zran3_calls == [32]

    def test_persistent_crash_exhausts_retries_then_demotes(
            self, zran3_calls):
        # A world-scoped crash recurs every attempt: the distributed
        # rung burns its whole retry budget, then the ladder falls
        # through to serial.
        plan = FaultPlan([Fault(FaultKind.CRASH, rank=0, iteration=1)])
        pol = SupervisorPolicy(
            ladder=(Rung("distributed", workers=2), Rung("serial")),
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0),
        )
        res = SupervisedSolver(policy=pol, fault_plan=plan).solve("S")
        rep = res.report
        assert rep.solved_by == "serial"
        assert res.verified
        assert rep.rungs_tried == ["distributed x2", "serial"]
        assert any("retry budget exhausted" in d.reason
                   for d in rep.demotions)
        # ... and one right-hand side for every rung.
        assert zran3_calls == [32]

    def test_nan_watchdog_aborts_and_never_returns_nonfinite(self):
        # NaN-corrupt an interp halo plane: the received u plane feeds
        # the next resid sweep, the residual norm goes NaN, and the
        # watchdog must abort that attempt at the iteration boundary.
        plan = FaultPlan([Fault(FaultKind.CORRUPT, rank=1, iteration=1,
                                op="interp", magnitude=float("nan"))])
        pol = SupervisorPolicy(
            ladder=(Rung("distributed", workers=4), Rung("serial")),
            retry=FAST_RETRY,
        )
        res = SupervisedSolver(policy=pol, fault_plan=plan).solve("S")
        rep = res.report
        assert "non-finite" in rep.watchdog_verdicts
        sick = [a for a in rep.attempts if a.watchdog == "non-finite"]
        assert sick and sick[0].outcome == "demote"
        # The sick attempt died at the iteration that observed the NaN,
        # not after burning the remaining budget.
        assert any("numerical watchdog" in d.reason for d in rep.demotions)
        assert np.all(np.isfinite(res.result.u))
        assert res.verified

    def test_report_counts_are_read_off_the_attempts(self):
        # retries, checkpoints_used and watchdog_verdicts are the
        # attempt records counted, for a retried and a watchdog-demoted
        # solve alike, and the archived report keeps its keys.
        ladder = (Rung("distributed", workers=4), Rung("serial"))
        retried = FaultPlan([Fault(FaultKind.CRASH, rank=1, iteration=2,
                                   scope="plan")])
        sick = FaultPlan([Fault(FaultKind.CORRUPT, rank=1, iteration=1,
                                op="interp", magnitude=float("nan"))])
        pol = SupervisorPolicy(ladder=ladder, retry=FAST_RETRY)
        reports = [SupervisedSolver(policy=pol, fault_plan=plan)
                   .solve("S").report for plan in (retried, sick)]
        assert reports[0].retries >= 1 and reports[1].watchdog_verdicts
        for rep in reports:
            attempts = rep.attempts
            assert rep.retries == sum(a.outcome == "retry" for a in attempts)
            assert rep.checkpoints_used == sum(
                a.restarted_from is not None for a in attempts)
            assert rep.watchdog_verdicts == [a.watchdog for a in attempts
                                             if a.watchdog is not None]
            assert set(rep.to_dict()) == {
                "size_class", "problem", "outcome", "solved_by", "rnm2",
                "verified", "wall_time", "retries", "checkpoints_used",
                "rungs_tried", "attempts", "demotions", "heals",
                "watchdog_verdicts", "failure"}

    def test_sac_rung_runs_the_generated_program(self):
        pol = SupervisorPolicy(ladder=(Rung("sac"), Rung("serial")),
                               retry=FAST_RETRY)
        res = SupervisedSolver(policy=pol).solve("S")
        assert res.report.solved_by == "sac"
        assert res.verified
        assert res.rnm2 == loader.solve_generated_mg("S").rnm2

    def test_compile_failure_lands_on_numpy_rung(self, broken_compiler):
        pol = SupervisorPolicy(
            ladder=(Rung("sac"), Rung("distributed", workers=2),
                    Rung("serial")),
            retry=FAST_RETRY,
        )
        sup = SupervisedSolver(policy=pol)
        res = sup.solve("S")
        rep = res.report
        assert res.verified
        assert rep.solved_by == "distributed x2"
        assert any("compiled-kernel path failed" in d.reason
                   for d in rep.demotions)

    def test_breaker_pins_numpy_path_after_repeated_compile_failures(
            self, untraceable):
        # The failed trace is memoised under its cache key: however many
        # solves ask for the specialization, it is traced once, and each
        # solve demotes with the SacError named.
        pol = SupervisorPolicy(
            ladder=(Rung("sac"), Rung("distributed", workers=2),
                    Rung("serial")),
            retry=FAST_RETRY,
        )
        sup = SupervisedSolver(policy=pol)
        for _ in range(3):
            res = sup.solve("T", 2)
            rep = res.report
            assert rep.solved_by == "distributed x2"
            assert rep.rungs_tried == ["sac", "distributed x2"]
            assert [a.error_type for a in rep.attempts] == ["SacError", None]
            (demotion,) = rep.demotions
            assert demotion.from_rung == "sac"
            assert demotion.reason == "compiled-kernel path failed (SacError)"
        assert untraceable == ["FinalResidual"]

    def test_every_rung_exhausted_raises_structured_postmortem(self):
        plan = FaultPlan([Fault(FaultKind.CRASH, rank=0, iteration=0)])
        pol = SupervisorPolicy(
            ladder=(Rung("distributed", workers=2),),
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0),
        )
        with pytest.raises(SupervisionFailed) as ei:
            SupervisedSolver(policy=pol, fault_plan=plan).solve("T")
        rep = ei.value.report
        assert rep.outcome == "failed"
        assert rep.failure is not None
        assert len(rep.attempts) == 2
        assert rep.rungs_tried == ["distributed x2"]
        d = rep.to_dict()
        assert d["outcome"] == "failed" and len(d["attempts"]) == 2

    def test_deadline_budget_is_enforced(self):
        clock = FakeClock()
        sleeps = []

        def sleep(dt):
            sleeps.append(dt)
            clock.advance(dt)

        plan = FaultPlan([Fault(FaultKind.CRASH, rank=0, iteration=0)])
        pol = SupervisorPolicy(
            ladder=(Rung("distributed", workers=2), Rung("serial")),
            retry=RetryPolicy(max_attempts=100, backoff_base=10.0,
                              backoff_max=10.0, jitter=0.0),
            deadline=5.0,
        )
        with pytest.raises(SupervisionFailed) as ei:
            SupervisedSolver(policy=pol, fault_plan=plan, clock=clock,
                             sleep=sleep).solve("T")
        assert "deadline" in str(ei.value.report.failure)
        # The backoff was clamped to the remaining budget, not 10s.
        assert sleeps and max(sleeps) <= 5.0

    def test_externally_owned_checkpoint_store_is_used(self):
        from repro.runtime.resilience import CheckpointStore

        store = CheckpointStore(retain=None)
        pol = SupervisorPolicy(ladder=(Rung("distributed", workers=2),),
                               retry=FAST_RETRY)
        SupervisedSolver(policy=pol, checkpoint=store).solve("T", 3)
        assert store.iterations() == [0, 1, 2]


# ---------------------------------------------------------------------------
# Determinism: same seed + same plan => same rungs, same grid.
# ---------------------------------------------------------------------------

@supervisor
class TestDeterminism:
    def _run(self):
        plan = FaultPlan(
            [Fault(FaultKind.CRASH, rank=1, iteration=2, scope="plan"),
             Fault(FaultKind.CRASH, rank=0, iteration=3)],
            seed=CHAOS_SEED,
        )
        pol = SupervisorPolicy(
            ladder=(Rung("distributed", workers=4),
                    Rung("threaded", workers=2), Rung("serial")),
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0,
                              seed=CHAOS_SEED),
        )
        res = SupervisedSolver(policy=pol, fault_plan=plan).solve("S")
        return res

    def test_same_seed_same_plan_same_rungs_and_grid(self):
        a = self._run()
        b = self._run()
        assert ([r.rung for r in a.report.attempts]
                == [r.rung for r in b.report.attempts])
        assert ([r.outcome for r in a.report.attempts]
                == [r.outcome for r in b.report.attempts])
        assert a.report.rungs_tried == b.report.rungs_tried
        assert a.report.solved_by == b.report.solved_by
        np.testing.assert_array_equal(a.result.u, b.result.u)
        # And the result is bit-identical to an unsupervised reference
        # of whatever rung finally solved it.
        assert a.verified
