"""Tests for heartbeat liveness detection.

The monitor is tested as a pure state machine with an injectable clock
(no sleeping); the integration tests run real worlds where a SLOW fault
makes a rank *suspected* (and recover), or silence past ``dead_after``
feeds the failure registry with :class:`HeartbeatLost`.
"""

import threading

import pytest

from repro.runtime.resilience import (
    Fault,
    FaultKind,
    FaultPlan,
    HeartbeatConfig,
    HeartbeatLost,
    WorldAborted,
)
from repro.runtime.resilience.detect import (
    ALIVE,
    DEAD,
    RETIRED,
    SUSPECT,
    HeartbeatMonitor,
)
from repro.runtime.spmd import DistributedMG, World

elastic = pytest.mark.elastic


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


# ---------------------------------------------------------------------------
# HeartbeatConfig.
# ---------------------------------------------------------------------------

class TestHeartbeatConfig:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError, match="interval <= suspect_after"):
            HeartbeatConfig(interval=0.1, suspect_after=0.05)
        with pytest.raises(ValueError, match="interval <= suspect_after"):
            HeartbeatConfig(suspect_after=5.0, dead_after=5.0)
        with pytest.raises(ValueError, match="must be positive"):
            HeartbeatConfig(interval=0.0)

    @pytest.mark.parametrize("name",
                             ["interval", "suspect_after", "dead_after"])
    @pytest.mark.parametrize("value", [0.0, -1.5])
    def test_nonpositive_field_rejected(self, name, value):
        with pytest.raises(ValueError, match="heartbeat"):
            HeartbeatConfig(**{name: value})


# ---------------------------------------------------------------------------
# The monitor state machine (fake clock, no threads).
# ---------------------------------------------------------------------------

class TestHeartbeatMonitor:
    def _monitor(self, size=2):
        clock = FakeClock()
        cfg = HeartbeatConfig(interval=0.1, suspect_after=1.0,
                              dead_after=5.0)
        return HeartbeatMonitor(size, cfg, clock=clock), clock

    def test_fresh_ranks_alive(self):
        mon, _ = self._monitor()
        assert mon.state(0) == ALIVE and mon.state(1) == ALIVE
        assert mon.check() == []

    def test_silence_suspects_then_kills(self):
        mon, clock = self._monitor()
        mon.beat(0)
        clock.advance(2.0)  # past suspect_after, not dead_after
        assert (0, ALIVE, SUSPECT) in mon.check()
        assert mon.suspected() == [0, 1]
        clock.advance(4.0)  # total 6 s > dead_after
        transitions = mon.check()
        assert (0, SUSPECT, DEAD) in transitions
        assert 0 in mon.dead_ranks()
        # Dead is terminal: further sweeps report nothing for rank 0.
        clock.advance(10.0)
        assert all(r != 0 for r, _, _ in mon.check())

    def test_suspect_recovers_on_beat(self):
        mon, clock = self._monitor()
        clock.advance(2.0)
        assert (0, ALIVE, SUSPECT) in mon.check()
        mon.beat(0)
        assert (0, SUSPECT, ALIVE) in mon.check()
        assert mon.state(0) == ALIVE

    def test_retired_rank_never_suspected(self):
        mon, clock = self._monitor()
        mon.retire(0)
        clock.advance(100.0)
        assert all(r != 0 for r, _, _ in mon.check())
        assert mon.state(0) == RETIRED

    def test_suspect_that_retires_before_a_sweep_still_recovers(self):
        # The race World.close()'s final sweep closes: the rank beats and
        # finishes between two sweeps, so no sweep sees it ALIVE again.
        mon, clock = self._monitor()
        clock.advance(2.0)
        assert (0, ALIVE, SUSPECT) in mon.check()
        mon.beat(0)
        mon.retire(0)
        assert mon.check() == [(0, SUSPECT, ALIVE)]
        assert mon.state(0) == RETIRED
        assert mon.check() == []

    def test_reset_revives_a_dead_slot(self):
        mon, clock = self._monitor()
        clock.advance(2.0)
        mon.check()
        clock.advance(5.0)
        mon.check()
        assert mon.state(0) == DEAD
        mon.reset(0)  # elastic heal: the replacement beats anew
        assert mon.state(0) == ALIVE
        assert mon.beats(0) == 0

    def test_phi_grows_with_silence(self):
        mon, clock = self._monitor()
        mon.beat(0)
        clock.advance(0.1)
        mon.beat(0)
        low = mon.phi(0)
        clock.advance(3.0)
        assert mon.phi(0) > low

    def test_paused_rank_not_suspected(self):
        # A rank parked at a collective barrier cannot beat but is not
        # stalled; pause() exempts it until resume().
        mon, clock = self._monitor()
        mon.pause(0)
        clock.advance(50.0)
        assert all(r != 0 for r, _, _ in mon.check())
        assert mon.state(0) == ALIVE
        mon.resume(0)
        # Resumption starts a fresh silence window...
        clock.advance(0.5)
        assert all(r != 0 for r, _, _ in mon.check())
        # ...after which normal detection applies again.
        clock.advance(2.0)
        assert (0, ALIVE, SUSPECT) in mon.check()

    def test_silence_measures_age(self):
        mon, clock = self._monitor()
        mon.beat(0)
        clock.advance(1.5)
        assert mon.silence(0) == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# Worlds with heartbeats.
# ---------------------------------------------------------------------------

class TestWorldHeartbeat:
    def test_off_by_default(self):
        with World(2) as world:
            assert world.liveness is None
            world.start_heartbeat()  # no-op
            assert world._hb_thread is None

    def test_true_means_default_config(self):
        with World(2, heartbeat=True) as world:
            assert world.liveness is not None
            assert world.heartbeat_config == HeartbeatConfig()

    def test_config_object_accepted(self):
        cfg = HeartbeatConfig(interval=0.02, suspect_after=0.2,
                              dead_after=1.0)
        with World(2, heartbeat=cfg) as world:
            assert world.heartbeat_config is cfg

    def test_monitor_thread_joined_on_close(self):
        cfg = HeartbeatConfig(interval=0.02, suspect_after=0.2,
                              dead_after=1.0)
        world = World(2, heartbeat=cfg)
        world.start_heartbeat()
        assert world._hb_thread.is_alive()
        world.close()
        assert not world._hb_thread.is_alive()
        assert not any(t.name == "spmd-heartbeat"
                       for t in threading.enumerate())


@elastic
class TestHeartbeatIntegration:
    def test_slow_rank_suspected_then_recovers(self):
        # One 0.6 s stall on rank 1: long enough to be suspected
        # (suspect_after 0.15 s), far too short to be declared dead.
        plan = FaultPlan([Fault(FaultKind.SLOW, rank=1, iteration=1,
                                delay=0.6)])
        cfg = HeartbeatConfig(interval=0.03, suspect_after=0.15,
                              dead_after=30.0)
        mg = DistributedMG(2, fault_plan=plan, heartbeat=cfg)
        res = mg.solve("T")
        stats = mg.last_world.stats
        assert stats.suspects >= 1
        assert stats.recoveries >= 1
        assert stats.deaths == 0
        assert res.rnm2 == pytest.approx(
            DistributedMG(2).solve("T").rnm2, rel=1e-12)

    def test_dead_rank_feeds_registry(self):
        # Rank 1 stalls far past dead_after; without healing the world
        # aborts with HeartbeatLost as the recorded cause, well before
        # the 30 s op timeout.
        plan = FaultPlan([Fault(FaultKind.SLOW, rank=1, iteration=1,
                                delay=8.0)])
        cfg = HeartbeatConfig(interval=0.03, suspect_after=0.1,
                              dead_after=0.5)
        mg = DistributedMG(2, fault_plan=plan, heartbeat=cfg, timeout=30.0)
        with pytest.raises(WorldAborted):
            mg.solve("T")
        failures = mg.last_world.registry.failures()
        assert any(isinstance(f.cause, HeartbeatLost) for f in failures)
        lost = next(f.cause for f in failures
                    if isinstance(f.cause, HeartbeatLost))
        assert lost.silent_for >= 0.5
        assert "declared dead" in str(lost)
