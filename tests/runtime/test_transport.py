"""Tests for the pluggable transport substrate.

Unit tests cover :class:`TransportConfig` resolution/validation and the
raw :class:`Wire` contract on both shipped transports; the integration
tests prove the socket transport carries a full distributed solve
bit-identically and that :class:`World` teardown leaks neither wires
nor threads.
"""

import queue
import threading

import numpy as np
import pytest

from repro.baselines import FortranMG
from repro.runtime.spmd import DistributedMG, World
from repro.runtime.transport import (
    DEFAULT_CONNECT_TIMEOUT,
    DEFAULT_JOIN_TIMEOUT,
    DEFAULT_POLL_INTERVAL,
    DEFAULT_TIMEOUT,
    InProcTransport,
    LocalSocketTransport,
    Transport,
    TransportConfig,
    TransportError,
    WireClosed,
    make_transport,
)

elastic = pytest.mark.elastic


# ---------------------------------------------------------------------------
# TransportConfig: one dataclass for every timeout/poll knob.
# ---------------------------------------------------------------------------

class TestTransportConfig:
    def test_defaults_resolve(self):
        cfg = TransportConfig()
        assert (cfg.timeout, cfg.join_timeout, cfg.poll_interval,
                cfg.connect_timeout) == (
            DEFAULT_TIMEOUT, DEFAULT_JOIN_TIMEOUT, DEFAULT_POLL_INTERVAL,
            DEFAULT_CONNECT_TIMEOUT)

    def test_override_ignores_none(self):
        cfg = TransportConfig(timeout=3.0).override(timeout=None)
        assert cfg.timeout == 3.0

    def test_nonpositive_rejected(self):
        # At construction: there is no later resolve step to wait for.
        with pytest.raises(ValueError, match="timeouts must be positive"):
            TransportConfig(timeout=0.0)
        with pytest.raises(ValueError, match="poll_interval must be"):
            TransportConfig(poll_interval=-1.0)
        with pytest.raises(ValueError, match="connect_retries"):
            TransportConfig(connect_retries=0)

    def test_environment_is_not_read(self, monkeypatch):
        # Keyword over config over default is the whole precedence rule.
        monkeypatch.setenv("REPRO_SPMD_TIMEOUT", "fast")
        monkeypatch.setenv("REPRO_SPMD_TRANSPORT", "bogus")
        with World(2) as world:
            assert world.timeout == DEFAULT_TIMEOUT == 60.0
            assert world.transport.name == "inproc"

    def test_world_kwarg_beats_config(self):
        with World(1, timeout=2.0,
                   config=TransportConfig(timeout=9.0)) as world:
            assert world.timeout == 2.0
            assert world.config.timeout == 2.0

    def test_world_config_field_used_when_no_kwarg(self):
        with World(1, config=TransportConfig(timeout=9.0)) as world:
            assert world.timeout == 9.0


class TestMakeTransport:
    def test_names(self):
        assert isinstance(make_transport("inproc"), InProcTransport)
        assert isinstance(make_transport("socket"), LocalSocketTransport)

    def test_instance_passthrough(self):
        t = InProcTransport()
        assert make_transport(t) is t

    def test_none_is_inproc(self):
        assert make_transport(None).name == "inproc"

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown transport.*"
                           "'inproc', 'socket'"):
            make_transport("carrier-pigeon")


# ---------------------------------------------------------------------------
# The raw Wire contract, on both transports.
# ---------------------------------------------------------------------------

def _make(kind: str) -> Transport:
    cfg = TransportConfig(timeout=5.0, poll_interval=0.01)
    t = (InProcTransport(cfg) if kind == "inproc"
         else LocalSocketTransport(cfg))
    t.open(2)
    return t


@pytest.mark.parametrize("kind", ["inproc", "socket"])
class TestWireContract:
    def test_fifo_roundtrip(self, kind):
        t = _make(kind)
        try:
            w = t.wire(0, 1, "up")
            w.put({"plane": [1.0, 2.0]})
            w.put("second")
            assert w.get(timeout=5.0) == {"plane": [1.0, 2.0]}
            assert w.get(timeout=5.0) == "second"
        finally:
            t.close()

    def test_get_times_out_quietly(self, kind):
        t = _make(kind)
        try:
            w = t.wire(0, 1, "up")
            with pytest.raises(queue.Empty):
                w.get(timeout=0.05)
        finally:
            t.close()

    def test_poison_wakes_receiver_without_medium(self, kind):
        t = _make(kind)
        sentinel = object()
        try:
            w = t.wire(0, 1, "up")
            got = []
            thread = threading.Thread(
                target=lambda: got.append(w.get(timeout=5.0)))
            thread.start()
            w.poison(sentinel)
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            # Identity survives: the sentinel never crossed the medium.
            assert got[0] is sentinel
        finally:
            t.close()

    def test_put_after_close_raises(self, kind):
        t = _make(kind)
        try:
            w = t.wire(0, 1, "up")
            w.close()
            with pytest.raises(WireClosed):
                w.put("late")
        finally:
            t.close()

    def test_open_wires_accounting(self, kind):
        t = _make(kind)
        try:
            a = t.wire(0, 1, "up")
            t.wire(1, 0, "down")
            assert t.open_wires() == 2
            a.close()
            assert t.open_wires() == 1
        finally:
            t.close()
        assert t.open_wires() == 0

    def test_closed_transport_refuses_new_wires(self, kind):
        t = _make(kind)
        t.close()
        with pytest.raises(TransportError, match="closed"):
            t.wire(0, 1, "up")


class TestSocketFraming:
    def test_large_payload_roundtrip(self):
        t = _make("socket")
        try:
            w = t.wire(0, 1, "up")
            plane = np.arange(64 * 64, dtype=float).reshape(64, 64)
            w.put(plane)
            np.testing.assert_array_equal(w.get(timeout=5.0), plane)
        finally:
            t.close()

    def test_many_messages_in_order(self):
        t = _make("socket")
        try:
            w = t.wire(0, 1, "up")
            for i in range(100):
                w.put(i)
            assert [w.get(timeout=5.0) for _ in range(100)] == list(range(100))
        finally:
            t.close()


# ---------------------------------------------------------------------------
# Worlds over each transport: teardown and end-to-end solves.
# ---------------------------------------------------------------------------

def _assert_no_spmd_threads():
    stray = [t.name for t in threading.enumerate()
             if t.name.startswith(("spmd-", "mg-rank-"))]
    assert not stray, f"leaked threads: {stray}"


class TestWorldTeardown:
    def test_close_releases_all_wires(self):
        world = World(4)
        assert world.transport.open_wires() == 8  # up + down rings
        world.close()
        assert world.transport.open_wires() == 0
        assert world.closed

    def test_close_is_idempotent(self):
        world = World(2)
        world.close()
        world.close()
        assert world.transport.open_wires() == 0

    @pytest.mark.parametrize("kind", ["inproc", "socket"])
    def test_no_leaked_threads_or_wires_after_solve(self, kind):
        mg = DistributedMG(2, transport=kind)
        mg.solve("T")
        assert mg.last_world.closed
        assert mg.last_world.transport.open_wires() == 0
        _assert_no_spmd_threads()

    def test_abort_path_still_closes(self):
        from repro.runtime.resilience import Fault, FaultKind, FaultPlan
        from repro.runtime.resilience import WorldAborted

        plan = FaultPlan([Fault(FaultKind.CRASH, rank=1, iteration=1)])
        mg = DistributedMG(2, fault_plan=plan, timeout=5.0)
        with pytest.raises(WorldAborted):
            mg.solve("T")
        assert mg.last_world.closed
        assert mg.last_world.transport.open_wires() == 0
        _assert_no_spmd_threads()


@elastic
class TestSocketSolve:
    def test_bit_identical_to_serial(self):
        ref = FortranMG().solve("T")
        res = DistributedMG(2, transport="socket").solve("T")
        np.testing.assert_array_equal(res.u, ref.u)
        np.testing.assert_array_equal(res.r, ref.r)

    def test_socket_class_s_verifies(self):
        res = DistributedMG(4, transport="socket").solve("S")
        assert res.verified


# ---------------------------------------------------------------------------
# Enriched timeout diagnostics.
# ---------------------------------------------------------------------------

class TestTimeoutDiagnostics:
    def test_halo_timeout_carries_elapsed_and_failures(self):
        from repro.runtime.resilience import HaloTimeout

        with World(2, timeout=0.2, poll_interval=0.01) as world:
            with pytest.raises(HaloTimeout) as ei:
                world._up[0].recv(world.comm(1), op="halo-exchange", level=5)
        exc = ei.value
        assert exc.elapsed is not None and exc.elapsed >= 0.2
        assert exc.failures == ()
        assert "waited" in str(exc)
        assert "halo-exchange" in str(exc)
        assert "no rank failures recorded" in str(exc)

    def test_halo_timeout_lists_known_failures(self):
        from repro.runtime.resilience import HaloTimeout, RankFailure

        with World(2, timeout=0.2, poll_interval=0.01) as world:
            world.registry.record(
                RankFailure(1, op="halo-exchange", iteration=3,
                            cause=RuntimeError("boom")))
            with pytest.raises(HaloTimeout) as ei:
                world._up[0].recv(world.comm(1), op="halo-exchange")
        exc = ei.value
        assert [f.rank for f in exc.failures] == [1]
        assert "rank 1" in str(exc)
        assert "iteration 3" in str(exc)

    def test_barrier_timeout_carries_elapsed(self):
        from repro.runtime.resilience import BarrierTimeout

        with World(2, timeout=0.2, poll_interval=0.01) as world:
            with pytest.raises(BarrierTimeout) as ei:
                world.comm(0).barrier(op="checkpoint-commit")
        exc = ei.value
        assert exc.elapsed is not None and exc.elapsed >= 0.2
        assert "checkpoint-commit" in str(exc)
