"""Tests for elastic SPMD worlds: in-place rank replacement from checkpoint.

The chaos-matrix acceptance test: a class S distributed solve on 4 ranks
with a seeded plan killing two distinct ranks at different iterations
completes **at width 4** — zero demotions, NPB-verified, bit-identical
to the fault-free run — while the same plan with healing disabled
degrades cleanly through the PR 4 ladder.
"""

import threading

import numpy as np
import pytest

from repro.baselines import FortranMG
from repro.core import zran3
from repro.runtime.resilience import (
    BarrierTimeout,
    CheckpointStore,
    Fault,
    FaultKind,
    FaultPlan,
    HaloTimeout,
    InjectedFault,
    RankFailure,
    WorldAborted,
)
from repro.runtime.spmd import DistributedMG
from repro.runtime.supervisor import (
    HealPolicy,
    RetryPolicy,
    Rung,
    SupervisedSolver,
    SupervisorPolicy,
    WorldSupervisor,
)

elastic = pytest.mark.elastic

#: No-sleep retry budget for the supervised scenarios.
FAST_RETRY = RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0)


def _join_stray_rank_threads(timeout=10.0):
    """Wait out zombie rank threads (stale incarnations sleeping through
    a SLOW fault) so they cannot pollute later leak assertions."""
    for t in threading.enumerate():
        if t.name.startswith("mg-rank-"):
            t.join(timeout=timeout)


# ---------------------------------------------------------------------------
# HealPolicy / WorldSupervisor units.
# ---------------------------------------------------------------------------

class TestHealPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_heals must be >= 0"):
            HealPolicy(max_heals=-1)

    def test_policy_field_typed(self):
        with pytest.raises(TypeError, match="heal must be a HealPolicy"):
            SupervisorPolicy(heal="yes please")

    def test_int_heal_knob_normalized(self):
        mg = DistributedMG(2, heal=3)
        assert mg._heal_policy().max_heals == 3


class TestWorldSupervisorUnits:
    def test_no_spawner_declines(self):
        sup = WorldSupervisor(HealPolicy(), store=CheckpointStore())
        assert not sup.consider(object(), RankFailure(0))

    def test_unhealable_causes_decline(self):
        sup = WorldSupervisor(HealPolicy(), store=CheckpointStore())
        sup.spawner = lambda r, i: None

        class W:
            retired = frozenset()

        failure = RankFailure(0, cause=HaloTimeout(0, timeout=1.0))
        assert not sup._eligible(W(), failure)

    def test_timeout_heals_only_the_one_peer_it_names(self):
        sup = WorldSupervisor(HealPolicy(), store=CheckpointStore())

        class W:
            retired = frozenset()

        def report(rank, missing):
            return RankFailure(rank, cause=BarrierTimeout(0,
                                                          missing=missing))

        assert sup._eligible(W(), report(1, (1,)))
        assert not sup._eligible(W(), report(1, (1, 2)))
        assert not sup._eligible(W(), report(1, ()))
        assert not sup._eligible(W(), report(2, (1,)))

    def test_second_report_of_a_stall_in_heal_is_absorbed(self):
        sup = WorldSupervisor(HealPolicy(max_heals=1),
                              store=CheckpointStore())
        sup.spawner = lambda r, i: None

        class W:
            retired = frozenset()
            healing = 1

            def begin_heal(self, failure):  # pragma: no cover
                raise AssertionError("a second heal must not open")

        stall = RankFailure(1, cause=BarrierTimeout(3, missing=(1,)))
        assert sup.consider(W(), stall)
        assert sup.heals_started == 0 and not sup.records
        # A crash of the rank under heal is no duplicate report.
        assert not sup.consider(W(), RankFailure(1, cause=RuntimeError()))

    def test_retired_world_declines(self):
        sup = WorldSupervisor(HealPolicy(), store=CheckpointStore())

        class W:
            retired = frozenset({2})

        assert not sup._eligible(W(), RankFailure(0,
                                                  cause=RuntimeError("x")))


# ---------------------------------------------------------------------------
# Direct DistributedMG healing.
# ---------------------------------------------------------------------------

@elastic
class TestElasticHeal:
    def test_single_crash_heals_bit_identical(self):
        plan = FaultPlan([Fault(FaultKind.CRASH, rank=1, iteration=1)])
        mg = DistributedMG(2, fault_plan=plan, heal=1, timeout=20.0,
                           workspace=True)
        pools = list(mg.workspaces)
        res = mg.solve("T")
        world = mg.last_world
        # The replacement gets a fresh pool of its own; the survivor
        # keeps its pool.
        assert mg.workspaces[1] is not pools[1]
        assert mg.workspaces[1].label == "spmd-rank1-i1"
        assert mg.workspaces[0] is pools[0]
        # The failure was absorbed, not recorded: the solve succeeded.
        assert len(world.healed) == 1
        assert world.healed[0].rank == 1
        assert isinstance(world.healed[0].cause, InjectedFault)
        assert not world.registry
        assert world.stats.heals == 1
        assert world.stats.heals_completed == 1
        assert world.heal_epoch == 1
        assert world.incarnation(1) == 1
        # Replay from the checkpoint is exact: bit-identical fields.
        ref = FortranMG().solve("T")
        np.testing.assert_array_equal(res.u, ref.u)
        np.testing.assert_array_equal(res.r, ref.r)
        # Heal log records the replacement.
        assert len(world.heal_log) == 1
        rec = world.heal_log[0]
        assert rec.completed and rec.rank == 1 and rec.incarnation == 1
        assert rec.restored_from == 0

    def test_two_sequential_crashes_healed(self, forbid_zran3):
        plan = FaultPlan([
            Fault(FaultKind.CRASH, rank=0, iteration=1),
            Fault(FaultKind.CRASH, rank=1, iteration=2),
        ])
        mg = DistributedMG(2, fault_plan=plan, heal=2, timeout=20.0)
        # The caller's right-hand side reaches the replacements too: no
        # rank, first incarnation or later, builds its own.
        v = zran3(16)
        forbid_zran3()
        res = mg.solve("T", v=v)
        world = mg.last_world
        assert len(world.healed) == 2
        assert world.stats.heals_completed == 2
        assert [rec.restored_from for rec in world.heal_log] == [0, 1]
        np.testing.assert_array_equal(res.u, FortranMG().solve("T", v=v).u)

    def test_heal_budget_exhaustion_aborts(self):
        plan = FaultPlan([
            Fault(FaultKind.CRASH, rank=0, iteration=1),
            Fault(FaultKind.CRASH, rank=1, iteration=2),
        ])
        mg = DistributedMG(2, fault_plan=plan, heal=1, timeout=20.0)
        with pytest.raises(WorldAborted):
            mg.solve("T")
        world = mg.last_world
        assert len(world.healed) == 1       # first crash absorbed
        assert world.registry               # second one aborted the world
        assert world.registry.failed_ranks() == [1]

    def test_heal_zero_behaves_disabled(self):
        plan = FaultPlan([Fault(FaultKind.CRASH, rank=1, iteration=1)])
        mg = DistributedMG(2, fault_plan=plan, heal=0, timeout=20.0)
        with pytest.raises(WorldAborted):
            mg.solve("T")
        assert not mg.last_world.healed

    def test_crash_before_first_checkpoint_aborts(self):
        # Iteration-0 crashes fire before any snapshot is complete:
        # nothing to restore from, so healing must decline.
        plan = FaultPlan([Fault(FaultKind.CRASH, rank=1, iteration=0)])
        mg = DistributedMG(2, fault_plan=plan, heal=1, timeout=20.0)
        with pytest.raises(WorldAborted):
            mg.solve("T")
        world = mg.last_world
        assert not world.healed
        assert world.stats.heals == 0

    def test_healed_world_leaks_nothing(self):
        plan = FaultPlan([Fault(FaultKind.CRASH, rank=1, iteration=1)])
        mg = DistributedMG(2, fault_plan=plan, heal=1, timeout=20.0)
        mg.solve("T")
        world = mg.last_world
        assert world.closed
        assert world.transport.open_wires() == 0
        _join_stray_rank_threads()
        stray = [t.name for t in threading.enumerate()
                 if t.name.startswith(("spmd-", "mg-rank-"))]
        assert not stray, f"leaked threads: {stray}"

    def test_heal_over_socket_transport(self):
        plan = FaultPlan([Fault(FaultKind.CRASH, rank=1, iteration=1)])
        mg = DistributedMG(2, fault_plan=plan, heal=1, timeout=20.0,
                           transport="socket")
        res = mg.solve("T")
        assert len(mg.last_world.healed) == 1
        assert mg.last_world.transport.open_wires() == 0
        np.testing.assert_array_equal(res.u, FortranMG().solve("T").u)

    @staticmethod
    def _assert_stall_healed(nranks, size_class, observers):
        """Rank 1 stalls 1 s at iteration 1 against a 0.3 s op timeout.
        Its peers time out at the iteration's checkpoint barrier, which
        names rank 1 as the one missing; the world heals around the
        sleeping zombie, which wakes, notices its own replacement, and
        exits without side effects."""
        plan = FaultPlan([Fault(FaultKind.SLOW, rank=1, iteration=1,
                                delay=1.0)])
        mg = DistributedMG(nranks, fault_plan=plan, heal=1, timeout=0.3)
        res = mg.solve(size_class)
        world = mg.last_world
        assert not world.registry
        assert [rec.rank for rec in world.heal_log] == [1]
        assert world.heal_log[0].completed
        assert world.heal_log[0].cause.startswith("BarrierTimeout")
        (failure,) = world.healed
        assert failure.rank == 1 and failure.stalled
        assert isinstance(failure.cause, BarrierTimeout)
        assert failure.cause.missing == (1,)
        assert failure.cause.rank in observers
        ref = FortranMG().solve(size_class)
        assert res.u.tobytes() == ref.u.tobytes()
        assert res.rnm2 == DistributedMG(nranks).solve(size_class).rnm2
        _join_stray_rank_threads()

    def test_heartbeat_death_triggers_heal(self):
        self._assert_stall_healed(2, "T", observers={0})

    def test_stall_heals_with_three_racing_observers(self):
        # At P = 4 ranks 0, 2 and 3 all time out on rank 1; the first
        # report opens the heal, the other two are absorbed by it.
        self._assert_stall_healed(4, "S", observers={0, 2, 3})

    def test_delayed_halo_heals_through_its_src(self):
        # Rank 1's first halo plane of iteration 1 is held back 1 s: rank
        # 0 times out in the recv, which names rank 1 as its src.
        plan = FaultPlan([Fault(FaultKind.DELAY, rank=1, iteration=1,
                                delay=1.0)])
        mg = DistributedMG(2, fault_plan=plan, heal=1, timeout=0.3)
        res = mg.solve("T")
        world = mg.last_world
        assert not world.registry
        (failure,) = world.healed
        assert failure.rank == 1 and failure.stalled
        assert isinstance(failure.cause, HaloTimeout)
        assert failure.cause.rank == 0 and failure.cause.src == 1
        assert world.heal_log[0].completed
        np.testing.assert_array_equal(res.u, FortranMG().solve("T").u)
        _join_stray_rank_threads()


# ---------------------------------------------------------------------------
# The supervised chaos acceptance matrix.
# ---------------------------------------------------------------------------

def _two_crash_plan():
    """Kill two distinct ranks at different iterations of a class S run
    (nit=4, so the V-cycle iterations are 0..3)."""
    return FaultPlan([
        Fault(FaultKind.CRASH, rank=1, iteration=1),
        Fault(FaultKind.CRASH, rank=3, iteration=3),
    ])


@elastic
class TestSupervisedElastic:
    def test_two_crashes_heal_at_full_width(self):
        """The acceptance scenario: both deaths healed, zero demotions,
        NPB-verified, bit-identical to the fault-free run."""
        policy = SupervisorPolicy(
            ladder=(Rung("distributed", workers=4),
                    Rung("threaded", workers=2),
                    Rung("serial")),
            retry=FAST_RETRY,
            heal=HealPolicy(max_heals=2),
            op_timeout=30.0,
        )
        solver = SupervisedSolver(fault_plan=_two_crash_plan())
        res = solver.solve("S", policy=policy)
        report = res.report
        assert report.outcome == "solved"
        assert report.solved_by == "distributed x4"   # width 4
        assert report.demotions == []                       # zero demotions
        assert report.retries == 0
        assert len(report.heals) == 2
        assert all(h.completed for h in report.heals)
        assert {h.rank for h in report.heals} == {1, 3}
        assert [h.restored_from for h in report.heals] == [0, 2]
        assert res.verified                                 # NPB value
        ref = FortranMG().solve("S")
        np.testing.assert_array_equal(res.result.u, ref.u)
        assert res.rnm2 == pytest.approx(ref.rnm2, rel=1e-12)
        # The report serializes with the heal records included.
        assert len(report.to_dict()["heals"]) == 2
        assert "heal epoch" in report.summary()

    def test_same_plan_without_healing_demotes(self):
        """Healing disabled: the same fault plan degrades cleanly
        through the ladder instead of finishing at width 4."""
        policy = SupervisorPolicy(
            ladder=(Rung("distributed", workers=4),
                    Rung("threaded", workers=2),
                    Rung("serial")),
            retry=FAST_RETRY,
            heal=None,
            op_timeout=30.0,
        )
        solver = SupervisedSolver(fault_plan=_two_crash_plan())
        res = solver.solve("S", policy=policy)
        report = res.report
        assert report.outcome == "solved"
        assert report.heals == []
        assert report.demotions, "expected a ladder demotion"
        assert report.solved_by != "distributed x4"
        assert res.verified

    def test_checkpoint_reused_across_heal_then_demotion(self):
        """Same-width checkpoint reuse: after one heal the attempt still
        dies (second crash, heal budget 1); the demoted same-width rung
        restarts from the healed attempt's snapshot instead of
        re-running completed iterations."""
        plan = FaultPlan([
            Fault(FaultKind.CRASH, rank=1, iteration=1),
            # Transient second crash: plan scope = fires exactly once
            # across all worlds, so the next attempt runs clean.
            Fault(FaultKind.CRASH, rank=3, iteration=3, scope="plan"),
        ])
        policy = SupervisorPolicy(
            ladder=(Rung("distributed", workers=4),
                    Rung("distributed", workers=4),
                    Rung("serial")),
            retry=RetryPolicy(max_attempts=1, backoff_base=0.0, jitter=0.0),
            heal=HealPolicy(max_heals=1),
            op_timeout=30.0,
        )
        solver = SupervisedSolver(fault_plan=plan)
        res = solver.solve("S", policy=policy)
        report = res.report
        assert report.outcome == "solved"
        assert report.solved_by == "distributed x4"
        # One heal on the first attempt (rank 1 at iteration 1) ...
        assert len(report.heals) == 1
        assert report.heals[0].rank == 1 and report.heals[0].completed
        # ... then the unhealable second crash demoted to the
        # same-width rung, which resumed from the latest snapshot.
        assert len(report.demotions) == 1
        assert len(report.attempts) == 2
        resumed = report.attempts[1]
        assert resumed.restarted_from == 2   # iterations 0-2 not re-run
        assert report.checkpoints_used == 1
        assert res.verified
        np.testing.assert_array_equal(res.result.u,
                                      FortranMG().solve("S").u)
