"""Tests for the resilient SPMD runtime: fault injection, failure
detection/fast abort, halo integrity, and timeout configuration.

Chaos tests (marked ``chaos``) run seeded :class:`FaultPlan`s against
real solves; CI runs them in a dedicated job with a fixed seed.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.baselines import FortranMG
from repro.runtime.resilience import (
    BarrierTimeout,
    CancellationToken,
    FailureRegistry,
    Fault,
    FaultKind,
    FaultPlan,
    HaloTimeout,
    InjectedFault,
    RankFailure,
    ResilienceStats,
    WorldAborted,
    plane_checksum,
)
from repro.runtime.spmd import DistributedMG, World

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "1234"))


# ---------------------------------------------------------------------------
# Failure registry / cancellation primitives.
# ---------------------------------------------------------------------------

class TestFailureRegistry:
    def test_collects_all_failures(self):
        reg = FailureRegistry()
        reg.record(RankFailure(1, op="halo", iteration=2))
        reg.record(RankFailure(3, op="barrier"))
        assert len(reg) == 2
        assert reg.failed_ranks() == [1, 3]
        composite = reg.composite()
        assert isinstance(composite, WorldAborted)
        assert composite.failed_ranks == [1, 3]
        assert "rank 1" in str(composite) and "rank 3" in str(composite)

    def test_concurrent_records_not_lost(self):
        # The seed runtime's single World.failure slot was
        # last-writer-wins; the registry must keep every record.
        reg = FailureRegistry()

        def record(r):
            for i in range(50):
                reg.record(RankFailure(r, iteration=i))

        ts = [threading.Thread(target=record, args=(r,)) for r in range(4)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert len(reg) == 200
        assert reg.failed_ranks() == [0, 1, 2, 3]

    def test_rejects_non_rank_failure(self):
        with pytest.raises(TypeError):
            FailureRegistry().record(RuntimeError("nope"))

    def test_cancellation_token(self):
        tok = CancellationToken()
        assert not tok.is_set()
        tok.cancel()
        assert tok.is_set()
        assert tok.wait(0.01)

    def test_stats_bump_threadsafe(self):
        stats = ResilienceStats()
        ts = [threading.Thread(target=lambda: [stats.bump("sends")
                                               for _ in range(500)])
              for _ in range(4)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert stats.sends == 2000
        assert stats.snapshot()["sends"] == 2000


# ---------------------------------------------------------------------------
# Timeouts: configurable, contextual exceptions.
# ---------------------------------------------------------------------------

class TestTimeouts:
    def test_world_timeout_parameter(self):
        w = World(2, timeout=0.2, join_timeout=5.0)
        assert w.timeout == 0.2
        assert w.join_timeout == 5.0

    def test_poll_interval_parameter(self):
        from repro.runtime.spmd import DEFAULT_POLL_INTERVAL

        assert World(1).poll_interval == DEFAULT_POLL_INTERVAL
        assert World(1, poll_interval=0.005).poll_interval == 0.005
        with pytest.raises(ValueError, match="poll_interval"):
            World(1, poll_interval=0.0)
        with pytest.raises(ValueError, match="timeouts must be positive"):
            World(1, timeout=0.0)
        with pytest.raises(ValueError, match="timeouts must be positive"):
            World(1, join_timeout=-1.0)

    def test_poll_interval_plumbs_to_distributed_solve(self):
        # A tight poll interval must leave results bit-identical.
        mg = DistributedMG(2, poll_interval=0.001)
        res = mg.solve("T")
        assert mg.last_world.poll_interval == 0.001
        ref = FortranMG().solve("T")
        np.testing.assert_array_equal(res.u, ref.u)

    def test_recv_timeout_wraps_queue_empty(self):
        w = World(2, timeout=0.2)
        t0 = time.monotonic()
        with pytest.raises(HaloTimeout) as ei:
            w._up[1].recv(w.comm(0), op="halo-exchange", level=3)
        assert time.monotonic() - t0 < 2.0
        exc = ei.value
        assert exc.rank == 0 and exc.op == "halo-exchange" and exc.level == 3
        assert exc.src == 1
        assert "rank 0" in str(exc)
        import queue as queue_mod
        assert isinstance(exc.__cause__, queue_mod.Empty)

    def test_barrier_timeout_wraps_broken_barrier(self):
        w = World(2, timeout=0.2)
        with pytest.raises(BarrierTimeout) as ei:
            w.comm(0).barrier(op="checkpoint-commit")
        assert ei.value.rank == 0
        assert ei.value.op == "checkpoint-commit"
        # Rank 1 never arrived: its arrival count is behind rank 0's.
        assert ei.value.missing == (1,)
        assert ei.value.peer == 1
        assert isinstance(ei.value.__cause__, threading.BrokenBarrierError)


# ---------------------------------------------------------------------------
# Fast failure propagation.
# ---------------------------------------------------------------------------

class TestFastAbort:
    def test_abort_wakes_blocked_recv_immediately(self):
        w = World(2, timeout=30.0)
        seen = []

        def blocked():
            try:
                w._up[1].recv(w.comm(0), op="halo-exchange")
            except WorldAborted as exc:
                seen.append(exc)

        t = threading.Thread(target=blocked)
        t.start()
        time.sleep(0.05)
        t0 = time.monotonic()
        w.abort(RankFailure(1, op="halo-exchange", iteration=0))
        t.join(timeout=2.0)
        assert not t.is_alive()
        assert time.monotonic() - t0 < 1.0
        assert seen and seen[0].failed_ranks == [1]

    def test_abort_wakes_blocked_barrier(self):
        w = World(2, timeout=30.0)
        seen = []

        def blocked():
            try:
                w.comm(0).barrier()
            except WorldAborted as exc:
                seen.append(exc)

        t = threading.Thread(target=blocked)
        t.start()
        time.sleep(0.05)
        w.abort(RankFailure(1))
        t.join(timeout=2.0)
        assert not t.is_alive()
        assert seen and seen[0].failed_ranks == [1]

    def test_legacy_failure_accessor(self):
        w = World(1)
        assert not w.registry
        w.abort(RankFailure(0))
        assert isinstance(w.registry.failures()[0], RankFailure)
        assert w.aborted


# ---------------------------------------------------------------------------
# Fault plans.
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_chaos_plan_deterministic(self):
        a = FaultPlan.chaos(CHAOS_SEED, nranks=4, iters=4, nfaults=3)
        b = FaultPlan.chaos(CHAOS_SEED, nranks=4, iters=4, nfaults=3)
        assert a == b
        assert a.faults == b.faults
        c = FaultPlan.chaos(CHAOS_SEED + 1, nranks=4, iters=4, nfaults=3)
        assert a != c

    def test_injector_only_for_targeted_ranks(self):
        plan = FaultPlan([Fault(FaultKind.CRASH, rank=2, iteration=0)])
        assert plan.injector(0) is None
        assert plan.injector(2) is not None

    def test_crash_fault_raises(self):
        plan = FaultPlan([Fault(FaultKind.CRASH, rank=0, iteration=1)])
        inj = plan.injector(0)
        inj.iteration_start(0)  # no-op: wrong iteration
        with pytest.raises(InjectedFault, match="rank 0"):
            inj.iteration_start(1)

    def test_message_fault_budget(self):
        plan = FaultPlan([Fault(FaultKind.DROP, rank=0, count=2)])
        inj = plan.injector(0)
        inj.iteration_start(0)
        assert inj.on_message("halo", 3, object())[0] == "drop"
        assert inj.on_message("halo", 3, object())[0] == "drop"
        assert inj.on_message("halo", 3, object())[0] == "deliver"

    def test_iteration_faults_reject_op_filter(self):
        with pytest.raises(ValueError):
            Fault(FaultKind.CRASH, rank=0, op="halo")

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            Fault(FaultKind.DROP, rank=-1)
        with pytest.raises(ValueError):
            Fault(FaultKind.DROP, rank=0, count=0)
        with pytest.raises(ValueError):
            Fault(FaultKind.DROP, rank=0, scope="galaxy")
        with pytest.raises(TypeError):
            FaultPlan(["crash"])

    def test_world_scope_refires_per_injector(self):
        # The default: each World (= each injector build) gets a fresh
        # budget, modelling a persistent fault that survives retries.
        plan = FaultPlan([Fault(FaultKind.CRASH, rank=0, iteration=1)])
        for _ in range(2):
            inj = plan.injector(0)
            with pytest.raises(InjectedFault):
                inj.iteration_start(1)

    def test_plan_scope_fires_once_across_injectors(self):
        # A transient fault: one shared budget across every World built
        # from the plan, so a retried attempt runs clean.
        plan = FaultPlan([Fault(FaultKind.CRASH, rank=0, iteration=1,
                                scope="plan")])
        inj = plan.injector(0)
        with pytest.raises(InjectedFault):
            inj.iteration_start(1)
        clean = plan.injector(0)  # the "retry" World
        clean.iteration_start(1)  # must not raise

    def test_plan_scope_budget_spans_message_faults(self):
        plan = FaultPlan([Fault(FaultKind.DROP, rank=0, count=2,
                                scope="plan")])
        first = plan.injector(0)
        first.iteration_start(0)
        assert first.on_message("halo", 3, object())[0] == "drop"
        second = plan.injector(0)
        second.iteration_start(0)
        assert second.on_message("halo", 3, object())[0] == "drop"
        assert second.on_message("halo", 3, object())[0] == "deliver"


# ---------------------------------------------------------------------------
# Seeded chaos runs against real solves.
# ---------------------------------------------------------------------------

@pytest.mark.chaos
class TestChaosRuns:
    def test_crash_aborts_world_fast_with_provenance(self):
        # The acceptance scenario: kill rank 1 at iteration 2 of class S;
        # the world must abort in < 2s naming rank 1.
        plan = FaultPlan([Fault(FaultKind.CRASH, rank=1, iteration=2)])
        mg = DistributedMG(4, fault_plan=plan)
        t0 = time.monotonic()
        with pytest.raises(WorldAborted) as ei:
            mg.solve("S")
        assert time.monotonic() - t0 < 2.0
        exc = ei.value
        assert exc.failed_ranks == [1]
        (failure,) = exc.failures
        assert failure.iteration == 2
        assert isinstance(failure.cause, InjectedFault)
        assert mg.last_world.stats.crashes == 1

    def test_drop_becomes_halo_timeout(self):
        # Class T (lt = 4): the dropped plane is a finest-level resid
        # plane, so the psinv plane sent after it arrives under another
        # tag before the receiver's deadline.
        plan = FaultPlan([Fault(FaultKind.DROP, rank=0, iteration=1,
                                op="resid", level=4)])
        mg = DistributedMG(2, fault_plan=plan, timeout=0.4)
        t0 = time.monotonic()
        with pytest.raises(WorldAborted) as ei:
            mg.solve("T")
        assert time.monotonic() - t0 < 5.0
        causes = [type(f.cause).__name__ for f in ei.value.failures]
        assert "HaloTimeout" in causes
        # Recorded once, under the rank whose plane was dropped: rank 1
        # timed out waiting for it, and is only the observer.
        assert ei.value.failed_ranks == [0]
        stats = mg.last_world.stats
        assert stats.drops == 1
        # The receiver discarded later mismatched planes rather than
        # silently desynchronising the ring.
        assert stats.tag_mismatches >= 1

    @pytest.mark.parametrize("heal", [0, 1])
    def test_stall_in_the_coarse_solve_names_rank_0(self, heal,
                                                    monkeypatch):
        # Rank 0 alone solves the V-cycle bottom; the first time it
        # sleeps past the timeout, and rank 1 times out at the gather's
        # second barrier waiting for it.
        from repro.runtime import spmd

        correction = spmd.correction
        stalls = []

        def stalled(*args, **kwargs):
            if not stalls:
                stalls.append(threading.current_thread().name)
                time.sleep(0.8)
            return correction(*args, **kwargs)

        monkeypatch.setattr(spmd, "correction", stalled)
        mg = DistributedMG(2, timeout=0.3, heal=heal)
        if not heal:
            with pytest.raises(WorldAborted) as ei:
                mg.solve("T")
            failures = ei.value.failures
        else:
            res = mg.solve("T")
            assert not mg.last_world.registry
            assert mg.last_world.heal_log[0].completed
            ref = DistributedMG(2).solve("T")
            assert res.u.tobytes() == ref.u.tobytes()
            assert res.r.tobytes() == ref.r.tobytes()
            assert res.rnm2 == ref.rnm2
            failures = mg.last_world.healed
        assert stalls == ["mg-rank-0"]
        (failure,) = failures
        assert failure.rank == 0 and failure.stalled
        cause = failure.cause
        assert isinstance(cause, BarrierTimeout)
        assert cause.rank == 1 and cause.op == "coarsest"
        assert cause.missing == (0,)
        for t in threading.enumerate():  # the sleeping zombie
            if t.name.startswith("mg-rank-"):
                t.join(timeout=10.0)

    def test_delay_is_transparent(self):
        plan = FaultPlan([Fault(FaultKind.DELAY, rank=0, iteration=0,
                                delay=0.1, count=2)])
        mg = DistributedMG(2, fault_plan=plan)
        res = mg.solve("T")
        ref = FortranMG().solve("T")
        np.testing.assert_array_equal(res.u, ref.u)
        assert mg.last_world.stats.delays == 2

    def test_slow_rank_is_transparent(self):
        plan = FaultPlan([Fault(FaultKind.SLOW, rank=1, iteration=0,
                                delay=0.1)])
        mg = DistributedMG(2, fault_plan=plan)
        res = mg.solve("T")
        ref = FortranMG().solve("T")
        np.testing.assert_array_equal(res.u, ref.u)
        assert mg.last_world.stats.slows == 1

    def test_corruption_detected_and_retransmitted(self):
        plan = FaultPlan([Fault(FaultKind.CORRUPT, rank=1, iteration=1)])
        mg = DistributedMG(2, fault_plan=plan, halo_checksums=True)
        res = mg.solve("T")
        ref = FortranMG().solve("T")
        # The retransmitted pristine plane keeps the run bit-identical.
        np.testing.assert_array_equal(res.u, ref.u)
        stats = mg.last_world.stats
        assert stats.corruptions == 1
        assert stats.checksum_failures >= 1
        assert stats.retransmits >= 1

    def test_corruption_undetected_without_checksums(self):
        # Corrupt an interp exchange: the received u halo plane feeds the
        # very next resid sweep, so the perturbation must reach the
        # solution when nothing verifies it.
        plan = FaultPlan([Fault(FaultKind.CORRUPT, rank=1, iteration=1,
                                op="interp", magnitude=1e6)])
        mg = DistributedMG(2, fault_plan=plan)
        res = mg.solve("T")
        ref = FortranMG().solve("T")
        # Silent corruption: the run completes but the fields are wrong.
        assert not np.array_equal(res.u, ref.u)

    def test_corruption_escalates_when_retries_exhausted(self):
        plan = FaultPlan([Fault(FaultKind.CORRUPT, rank=1, iteration=0)])
        mg = DistributedMG(2, fault_plan=plan, halo_checksums=True,
                           halo_retries=0)
        with pytest.raises(WorldAborted) as ei:
            mg.solve("T")
        causes = [type(f.cause).__name__ for f in ei.value.failures]
        assert "HaloCorruption" in causes

    def test_checksums_off_critical_path_are_free_of_effect(self):
        # A checksum-verified clean run stays bit-identical to serial.
        res = DistributedMG(2, halo_checksums=True).solve("T")
        ref = FortranMG().solve("T")
        np.testing.assert_array_equal(res.u, ref.u)

    def test_seeded_chaos_plan_runs_reproducibly(self):
        plan = FaultPlan.chaos(CHAOS_SEED, nranks=2, iters=4, nfaults=1,
                               kinds=(FaultKind.DELAY, FaultKind.SLOW))
        r1 = DistributedMG(2, fault_plan=plan).solve("T")
        plan2 = FaultPlan.chaos(CHAOS_SEED, nranks=2, iters=4, nfaults=1,
                                kinds=(FaultKind.DELAY, FaultKind.SLOW))
        r2 = DistributedMG(2, fault_plan=plan2).solve("T")
        np.testing.assert_array_equal(r1.u, r2.u)
        assert r1.rnm2 == r2.rnm2


# ---------------------------------------------------------------------------
# Halo checksum primitives.
# ---------------------------------------------------------------------------

class TestChecksum:
    def test_plane_checksum_detects_single_bitflip(self):
        plane = np.linspace(0.0, 1.0, 64).reshape(8, 8)
        ref = plane_checksum(plane)
        flipped = plane.copy()
        flipped[3, 4] = np.nextafter(flipped[3, 4], 2.0)
        assert plane_checksum(flipped) != ref

    def test_plane_checksum_layout_normalised(self):
        plane = np.arange(16.0).reshape(4, 4)
        assert plane_checksum(plane) == plane_checksum(
            np.asfortranarray(plane))
