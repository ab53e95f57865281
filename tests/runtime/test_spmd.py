"""Tests for the SPMD distributed-memory MG (§7's comparison target)."""

import threading

import numpy as np
import pytest

from repro.baselines import FortranMG
from repro.core import comm3, make_grid
from repro.core.classes import get_class
from repro.runtime import spmd
from repro.runtime.spmd import DistributedMG, World, _local_comm3
from repro.runtime.transport import Channel


def _random_periodic(m, seed=0):
    rng = np.random.default_rng(seed)
    u = make_grid(m)
    u[1:-1, 1:-1, 1:-1] = rng.standard_normal((m, m, m))
    return comm3(u)


class TestWorld:
    def test_invalid_size(self):
        with pytest.raises(ValueError):
            World(0)

    def test_allgather_rank_ordered(self):
        world = World(3)
        out = [None] * 3

        def worker(r):
            out[r] = world.comm(r).allgather(r * 10)

        ts = [threading.Thread(target=worker, args=(r,)) for r in range(3)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert out[0] == out[1] == out[2] == [0, 10, 20]

    def test_ring_exchange_periodic(self):
        world = World(2)
        got = [None, None]

        def worker(r):
            lower, upper = world.comm(r).exchange_halos(
                np.array([10.0 * r + 1]), np.array([10.0 * r + 2])
            )
            got[r] = (float(lower[0]), float(upper[0]))

        ts = [threading.Thread(target=worker, args=(r,)) for r in range(2)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        # rank 0's lower halo is rank 1's last plane; upper is rank 1's
        # first plane (periodic ring of two).
        assert got[0] == (12.0, 11.0)
        assert got[1] == (2.0, 1.0)

    def test_single_rank_self_wrap(self):
        comm = World(1).comm(0)
        lower, upper = comm.exchange_halos(np.array([1.0]), np.array([2.0]))
        assert float(lower[0]) == 2.0 and float(upper[0]) == 1.0

    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_local_comm3_matches_serial_comm3(self, nranks):
        # Each rank refreshes its slab (x/y faces locally, z halos over
        # the ring); the slabs stitched back together equal serial
        # comm3 of the whole grid, ghosts, edges and corners included.
        nz = 4
        rng = np.random.default_rng(nranks)
        full = np.zeros((nz + 2, 6, 6))
        full[1:-1, 1:-1, 1:-1] = rng.standard_normal((nz, 4, 4))
        want = comm3(full.copy())
        nzl = nz // nranks
        slabs = [full[r * nzl:r * nzl + nzl + 2].copy()
                 for r in range(nranks)]
        with World(nranks, timeout=10.0) as world:
            ts = [threading.Thread(target=_local_comm3,
                                   args=(slabs[r], world.comm(r)))
                  for r in range(nranks)]
            for t in ts:
                t.start()
            for t in ts:
                t.join(timeout=20.0)
                assert not t.is_alive()
        got = np.empty_like(full)
        for r in range(nranks):
            got[r * nzl:r * nzl + nzl + 2] = slabs[r]
        np.testing.assert_array_equal(got, want)


class TestDistributedMG:
    def test_rank_count_validated(self):
        with pytest.raises(ValueError):
            DistributedMG(3)
        with pytest.raises(ValueError):
            DistributedMG(0)

    def test_class_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            DistributedMG(8).solve("T")  # 16^3 needs nx >= 32 for 8 ranks

    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_bit_identical_to_serial_class_t(self, nranks):
        ref = FortranMG().solve("T")
        res = DistributedMG(nranks).solve("T")
        np.testing.assert_array_equal(res.u, ref.u)
        np.testing.assert_array_equal(res.r, ref.r)
        assert res.rnm2 == pytest.approx(ref.rnm2, rel=1e-12)

    def test_class_s_verifies_with_8_ranks(self):
        res = DistributedMG(8).solve("S")
        assert res.verified
        ref = FortranMG().solve("S")
        np.testing.assert_array_equal(res.u, ref.u)

    @pytest.mark.parametrize("size_class, nranks", [
        (name, p) for name in "TS" for p in (1, 2, 4, 8)
        if get_class(name).nx >= 4 * p])  # class T is too small for 8
    def test_bottom_solved_once_on_rank_0(self, size_class, nranks,
                                          monkeypatch):
        # Only levels lt and lt - 1 are split: below them rank 0 alone
        # runs the serial correction, once per V-cycle, and no halo
        # plane of a coarser level travels.
        sc = get_class(size_class)
        solvers, levels = [], set()
        correction = spmd.correction
        send = Channel.send

        def counted(*args, **kwargs):
            solvers.append(threading.current_thread().name)
            return correction(*args, **kwargs)

        def recorded(self, payload, op=None, level=None):
            levels.add(level)
            return send(self, payload, op=op, level=level)

        monkeypatch.setattr(spmd, "correction", counted)
        monkeypatch.setattr(Channel, "send", recorded)
        mg = DistributedMG(nranks)
        mg.solve(sc)
        assert solvers == ["mg-rank-0"] * sc.nit
        if nranks == 1:
            assert levels == set()
        else:
            assert levels == {sc.lt, sc.lt - 1}
        # Per rank and exchange one plane each way: the first residual,
        # then per V-cycle rprj3, interp, resid and psinv of the V-cycle
        # and the closing resid.
        assert mg.last_world.stats.sends == (
            0 if nranks == 1 else 2 * nranks * (1 + 5 * sc.nit))
