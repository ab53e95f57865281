"""Non-periodic SPMD halo semantics (solver-family boundary support).

With ``wrap=False`` the slab ring is cut at the physical boundary:
edge ranks receive ``None`` for the missing side and fill the physical
z face locally.  The distributed ghost refresh must agree exactly with
the serial :func:`repro.core.grid.ghost_fill` on the reassembled grid,
for every boundary kind.
"""

import threading
from functools import partial

import numpy as np
import pytest

from repro.core import A_COEFFS, S_COEFFS_A, ghost_fill
from repro.core.mg import numpy_kernels, vcycle
from repro.runtime.spmd import DistributedMG, World, _local_comm3


def _run_ranks(world, fn):
    out = [None] * world.size
    errs = []

    def worker(r):
        try:
            out[r] = fn(r, world.comm(r))
        except Exception as exc:  # pragma: no cover - surfaced below
            errs.append((r, exc))

    ts = [threading.Thread(target=worker, args=(r,))
          for r in range(world.size)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert not errs, errs
    return out


class TestCutRingExchange:
    def test_single_rank_nowrap_gets_no_halos(self):
        comm = World(1).comm(0)
        lower, upper = comm.exchange_halos(
            np.array([1.0]), np.array([2.0]), wrap=False)
        assert lower is None and upper is None

    def test_two_ranks_nowrap_cut_at_the_edges(self):
        world = World(2)

        def fn(r, comm):
            return comm.exchange_halos(
                np.array([10.0 * r + 1]), np.array([10.0 * r + 2]),
                wrap=False)

        got = _run_ranks(world, fn)
        # rank 0: no lower halo; upper halo is rank 1's first plane.
        assert got[0][0] is None
        assert float(got[0][1][0]) == 11.0
        # rank 1: lower halo is rank 0's last plane; no upper halo.
        assert float(got[1][0][0]) == 2.0
        assert got[1][1] is None

    def test_four_ranks_nowrap_interior_halos_flow(self):
        world = World(4)

        def fn(r, comm):
            return comm.exchange_halos(
                np.array([10.0 * r + 1]), np.array([10.0 * r + 2]),
                wrap=False)

        got = _run_ranks(world, fn)
        for r in range(4):
            lower, upper = got[r]
            if r == 0:
                assert lower is None
            else:
                assert float(lower[0]) == 10.0 * (r - 1) + 2
            if r == 3:
                assert upper is None
            else:
                assert float(upper[0]) == 10.0 * (r + 1) + 1


class TestDistributedGhostFill:
    @pytest.mark.parametrize("kind", ["periodic", "dirichlet", "neumann"])
    @pytest.mark.parametrize("nranks", [1, 2])
    def test_local_comm3_matches_serial_ghost_fill(self, kind, nranks):
        rng = np.random.default_rng(hash((kind, nranks)) % (2**32))
        nz = 4
        full = np.zeros((nz + 2, 6, 6))
        full[1:-1, 1:-1, 1:-1] = rng.standard_normal((nz, 4, 4))
        value = 0.5 if kind == "dirichlet" else 0.0
        want = ghost_fill(full.copy(), kind, value)

        world = World(nranks)
        nzl = nz // nranks

        def fn(r, comm):
            slab = full[r * nzl : r * nzl + nzl + 2].copy()
            _local_comm3(slab, comm, boundary=kind, value=value)
            return slab

        slabs = _run_ranks(world, fn)
        got = np.empty_like(full)
        for r in range(nranks):
            got[r * nzl : r * nzl + nzl + 2] = slabs[r]
        np.testing.assert_array_equal(got, want)

    def test_unknown_boundary_rejected(self):
        comm = World(1).comm(0)
        with pytest.raises(ValueError, match="unknown boundary"):
            _local_comm3(np.zeros((4, 4, 4)), comm, boundary="reflecting")


class TestSlabVCycle:
    @pytest.mark.parametrize("kind", ["dirichlet", "neumann"])
    def test_two_rank_vcycle_equals_serial(self, kind):
        # One boundary contract for the whole cycle: the slab levels and
        # the replicated coarse levels below them both fill physical
        # ghosts, exactly like the serial table bound to the same kind.
        lt, n = 4, 16
        fill = partial(ghost_fill, kind=kind)
        rng = np.random.default_rng(7)
        u, v = (fill(np.pad(rng.standard_normal((n, n, n)), 1))
                for _ in range(2))
        serial = numpy_kernels(boundary=fill)
        r0 = serial.resid(u, v, A_COEFFS)
        want_u, want_r = u.copy(), {lt: r0.copy()}
        vcycle(serial, want_u, v, want_r, A_COEFFS, S_COEFFS_A, lt)

        dmg = DistributedMG(2, boundary=kind)
        switch = 2  # two planes per rank; level 1 is replicated
        assert dmg._distributed(switch) and not dmg._distributed(switch - 1)

        def fn(rank, comm):
            z0, nzl = dmg._plane_range(lt, rank)
            us, vs, rs = (g[z0 : z0 + nzl + 2].copy() for g in (u, v, r0))
            r = {lt: rs}
            vcycle(dmg._kernels(comm), us, vs, r, A_COEFFS, S_COEFFS_A,
                   lt, switch)
            return z0, nzl, us, r[lt]

        with World(2) as world:
            for z0, nzl, us, rs in _run_ranks(world, fn):
                planes = slice(z0, z0 + nzl + 2)  # halos included
                np.testing.assert_array_equal(us, want_u[planes])
                np.testing.assert_array_equal(rs, want_r[lt][planes])


class TestDistributedMGBoundaryKnob:
    def test_boundary_validated(self):
        with pytest.raises(ValueError):
            DistributedMG(2, boundary="reflecting")

    def test_defaults_stay_npb(self):
        dmg = DistributedMG(2)
        assert dmg.boundary == "periodic"
        assert dmg.problem == "npb-mg"
