"""Workspace pooling across the three solvers: bit-reproducibility vs
the allocating path on class S, and the allocation-free steady state."""

import numpy as np
import pytest

from repro.core.mg import mg3P, solve
from repro.core.timers import SectionTimers
from repro.perf import Workspace
from repro.runtime.parallel_mg import ParallelMG
from repro.runtime.spmd import DistributedMG

pytestmark = pytest.mark.perf


class TestSerialPooled:
    def test_bit_reproducible_vs_allocating_path(self):
        base = solve("S")
        pooled = solve("S", ws=Workspace())
        assert pooled.rnm2 == base.rnm2
        np.testing.assert_array_equal(pooled.u, base.u)
        np.testing.assert_array_equal(pooled.r, base.r)
        assert pooled.verified

    def test_timed_section_allocation_free_after_first_iteration(self):
        ws = Workspace()
        marks = []
        solve("S", ws=ws,
              on_iteration=lambda it, r: marks.append(ws.allocations))
        assert len(marks) == 4
        # The first V-cycle warms the pool; afterwards zero pool misses.
        assert marks[-1] - marks[0] == 0
        assert ws.allocations == marks[0]
        assert ws.hits > 0

    def test_live_buffers_per_level_constant_across_iterations(self):
        ws = Workspace()
        shapes = []
        solve("S", ws=ws,
              on_iteration=lambda it, r: shapes.append(ws.buffers_by_shape()))
        assert all(s == shapes[0] for s in shapes[1:])
        # One pool entry set per V-cycle level: every level's extended
        # shape appears (class S: 32 -> 4, levels 5..2).
        level_shapes = {(n + 2,) * 3 for n in (32, 16, 8, 4)}
        assert level_shapes <= set(shapes[0])

    def test_second_solve_on_same_workspace_is_all_hits(self):
        ws = Workspace()
        first = solve("S", ws=ws)
        warm = ws.allocations
        second = solve("S", ws=ws)
        assert ws.allocations == warm
        assert second.rnm2 == first.rnm2

    def test_monitor_sees_all_four_operators(self):
        mon = SectionTimers()
        solve("S", ws=Workspace(), monitor=mon)
        assert set(mon.seconds) == {"resid", "psinv", "rprj3", "interp"}
        # nit V-cycles: resid appears 1 + 2*nit + (lt-lb-1)*nit times.
        assert mon.calls["resid"] == 1 + 4 * (2 + 3)

    def test_mg3P_with_workspace_matches_plain(self):
        from repro.core.grid import make_grid
        from repro.core.mg import resid
        from repro.core.stencils import A_COEFFS, S_COEFFS_A
        from repro.core.zran3 import zran3

        nx, lt = 16, 4
        v = zran3(nx)
        u_a, u_b = make_grid(nx), make_grid(nx)
        ra = {lt: resid(u_a, v, A_COEFFS)}
        ws = Workspace()
        rb = {lt: resid(u_b, v, A_COEFFS, ws=ws)}
        for _ in range(3):
            mg3P(u_a, v, ra, A_COEFFS, S_COEFFS_A, lt)
            mg3P(u_b, v, rb, A_COEFFS, S_COEFFS_A, lt, ws=ws)
        np.testing.assert_array_equal(u_b, u_a)
        np.testing.assert_array_equal(rb[lt], ra[lt])


class TestParallelPooled:
    def test_bit_reproducible_and_allocation_free(self):
        base = ParallelMG(4).solve("S")
        solver = ParallelMG(4, workspace=True)
        pooled = solver.solve("S")
        assert pooled.rnm2 == base.rnm2
        np.testing.assert_array_equal(pooled.u, base.u)
        assert pooled.verified
        warm = solver.workspace.allocations
        again = solver.solve("S")
        assert solver.workspace.allocations == warm
        np.testing.assert_array_equal(again.u, pooled.u)

    @pytest.mark.parametrize("nthreads", [2, 3])
    def test_warm_after_two_cycles_and_no_larger_than_serial(self, nthreads):
        # Chunk scratch is a view of level-wide buffers, so trying both
        # partitions allocates nothing and the footprint is the serial
        # solve's for any team width.
        serial = Workspace()
        solve("S", ws=serial)
        with ParallelMG(nthreads, workspace=True) as solver:
            solver.solve("S", 2)
            warm = solver.workspace.allocations
            solver.solve("S")
            assert solver.workspace.allocations == warm
            assert all(d.forked is not None
                       for d in solver.decisions.values())
            assert (solver.workspace.bytes_allocated
                    <= serial.bytes_allocated)

    def test_workspace_instance_can_be_shared(self):
        ws = Workspace("caller-owned")
        solver = ParallelMG(2, workspace=ws)
        assert solver.workspace is ws
        solver.solve("S")
        assert ws.allocations > 0


class TestDistributedPooled:
    def test_bit_reproducible_and_allocation_free(self):
        base = DistributedMG(2).solve("S")
        solver = DistributedMG(2, workspace=True)
        pooled = solver.solve("S")
        assert pooled.rnm2 == base.rnm2
        np.testing.assert_array_equal(pooled.u, base.u)
        np.testing.assert_array_equal(pooled.r, base.r)
        assert pooled.verified
        warm = sum(w.allocations for w in solver.workspaces)
        again = solver.solve("S")
        assert sum(w.allocations for w in solver.workspaces) == warm
        np.testing.assert_array_equal(again.u, pooled.u)

    def test_each_rank_has_its_own_pool(self):
        solver = DistributedMG(4, workspace=True)
        solver.solve("S")
        assert len(solver.workspaces) == 4
        assert all(w.allocations > 0 for w in solver.workspaces)
