"""Tests for stall detection by the ranks that wait.

A stalled rank is named by the peers that time out waiting for it: a
stall shorter than the op timeout is no failure at all, and a longer one
is recorded once, under the stalled rank, not under the ranks that
observed it.
"""

import pytest

from repro.runtime.resilience import (
    BarrierTimeout,
    Fault,
    FaultKind,
    FaultPlan,
    HaloTimeout,
    WorldAborted,
)
from repro.runtime.spmd import DistributedMG

elastic = pytest.mark.elastic


@elastic
class TestHeartbeatIntegration:
    def test_slow_rank_suspected_then_recovers(self):
        # One 0.6 s stall on rank 1, well inside the op timeout: the
        # peers wait it out, nothing is recorded, and the result is the
        # fault-free one.
        plan = FaultPlan([Fault(FaultKind.SLOW, rank=1, iteration=1,
                                delay=0.6)])
        mg = DistributedMG(2, fault_plan=plan, timeout=20.0)
        res = mg.solve("T")
        world = mg.last_world
        assert world.stats.slows == 1
        assert not world.registry
        assert res.rnm2 == DistributedMG(2).solve("T").rnm2

    def test_dead_rank_feeds_registry(self):
        # Rank 1 stalls 1.0 s against a 0.3 s op timeout.  Without
        # healing the world aborts, and the one recorded failure is the
        # stalled rank's: rank 0, which timed out waiting for it, is a
        # casualty.
        plan = FaultPlan([Fault(FaultKind.SLOW, rank=1, iteration=1,
                                delay=1.0)])
        mg = DistributedMG(2, fault_plan=plan, timeout=0.3)
        with pytest.raises(WorldAborted) as ei:
            mg.solve("T")
        assert ei.value.failed_ranks == [1]
        assert len(ei.value.failures) == 1
        failure = ei.value.failures[0]
        assert failure.stalled
        assert isinstance(failure.cause, HaloTimeout)
        assert failure.cause.rank == 0 and failure.cause.src == 1

    def test_stall_two_observers_see_is_recorded_once(self):
        # At P = 4 ranks 0 and 2 both wait on rank 1's halo planes and
        # both time out on it, and rank 3, which got both its planes,
        # waits for rank 1 at the coarsest step's gather: a later report
        # of the same stall is a casualty of the abort the first one
        # caused.
        plan = FaultPlan([Fault(FaultKind.SLOW, rank=1, iteration=1,
                                delay=1.0)])
        mg = DistributedMG(4, fault_plan=plan, timeout=0.3)
        with pytest.raises(WorldAborted) as ei:
            mg.solve("S")
        assert ei.value.failed_ranks == [1]
        assert len(ei.value.failures) == 1
        cause = ei.value.failures[0].cause
        if isinstance(cause, HaloTimeout):
            assert cause.rank in (0, 2) and cause.src == 1
        else:
            # Ranks 0 and 2 are blocked in their recvs, so the barrier
            # names rank 1 alone.
            assert isinstance(cause, BarrierTimeout)
            assert cause.rank == 3 and cause.missing == (1,)
