"""Tests for the Workspace scratch pool and its accounting."""

import sys
import threading

import numpy as np
import pytest

from repro.perf import Workspace, WorkspaceCounters

pytestmark = pytest.mark.perf


class TestPooling:
    def test_first_get_allocates_second_reuses(self):
        ws = Workspace()
        a = ws.get("x", (4, 4))
        assert ws.allocations == 1 and ws.hits == 0
        b = ws.get("x", (4, 4))
        assert b is a
        assert ws.allocations == 1 and ws.hits == 1

    def test_distinct_keys_get_distinct_buffers(self):
        ws = Workspace()
        a = ws.get("x", (4, 4))
        assert ws.get("y", (4, 4)) is not a          # name
        assert ws.get("x", (4, 5)) is not a          # shape
        assert ws.get("x", (4, 4), dtype=np.float32) is not a  # dtype
        assert ws.allocations == 4

    def test_shape_tuple_normalization(self):
        ws = Workspace()
        a = ws.get("x", [4, 4])
        assert ws.get("x", (4, 4)) is a

    def test_zeros_clears_reused_buffer(self):
        ws = Workspace()
        buf = ws.get("x", (3, 3))
        buf.fill(9.0)
        again = ws.zeros("x", (3, 3))
        assert again is buf
        assert not again.any()

    def test_dtype_and_shape(self):
        ws = Workspace()
        buf = ws.get("x", (2, 3, 4), dtype=np.float32)
        assert buf.shape == (2, 3, 4) and buf.dtype == np.float32


def misaligned(ws: Workspace) -> list[tuple]:
    """Keys of the pool's buffers that do not start on a page."""
    return [key for key, buf in ws._buffers.items() if buf.ctypes.data % 4096]


class TestAlignment:
    @pytest.mark.parametrize("shape", [(0,), (1,), (0, 3), (3, 5, 7), (34, 34, 34)])
    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.bool_])
    @pytest.mark.parametrize("method", ["get", "zeros"])
    def test_buffers_start_on_a_page(self, shape, dtype, method):
        buf = getattr(Workspace(), method)("x", shape, dtype)
        assert buf.ctypes.data % 4096 == 0
        assert buf.flags.c_contiguous and buf.flags.writeable
        assert buf.shape == shape and buf.dtype == dtype
        buf[...] = 1
        assert buf.all()

    def test_bytes_allocated_counts_what_was_handed_out(self):
        ws = Workspace()
        bufs = [ws.get("x", shape, dtype) for shape, dtype in
                [((0,), np.float64), ((1,), np.int64), ((7, 3), np.bool_),
                 ((5, 5, 5), np.float64)]]
        assert ws.bytes_allocated == sum(b.nbytes for b in bufs) == 8 + 21 + 1000

    @pytest.fixture(scope="class")
    def v_w(self):
        from repro.core.zran3 import zran3
        return zran3(64)

    def test_warm_serial_pool_is_aligned(self, v_w):
        from repro.core.mg import solve
        ws = Workspace()
        for _ in range(2):
            solve("W", 1, v=v_w, ws=ws)
        assert ws.live_buffers > 0 and misaligned(ws) == []

    def test_warm_threaded_pool_is_aligned(self, v_w):
        from repro.runtime.parallel_mg import ParallelMG
        with ParallelMG(2, workspace=True) as solver:
            for _ in range(2):
                solver.solve("W", 1, v=v_w)
            assert solver.workspace.live_buffers > 0
            assert misaligned(solver.workspace) == []

    def test_warm_rank_pools_are_aligned(self, v_w):
        from repro.runtime.spmd import DistributedMG
        solver = DistributedMG(2, workspace=True, transport="inproc")
        for _ in range(2):
            solver.solve("W", 1, v=v_w)
        assert [w.live_buffers > 0 for w in solver.workspaces] == [True, True]
        assert [misaligned(w) for w in solver.workspaces] == [[], []]


class TestAccounting:
    def test_bytes_and_live_buffers(self):
        ws = Workspace()
        ws.get("x", (10, 10))
        ws.get("y", (5,))
        assert ws.live_buffers == 2
        assert ws.bytes_allocated == 100 * 8 + 5 * 8

    def test_manager_books_points(self):
        ws = Workspace()
        ws.get("x", (4, 4, 4))
        assert ws.allocations == 1
        assert ws.bytes_allocated == 64 * 8
        assert ws.live_buffers == 1

    def test_counters_snapshot(self):
        ws = Workspace()
        ws.get("x", (2, 2))
        ws.get("x", (2, 2))
        snap = ws.counters()
        assert isinstance(snap, WorkspaceCounters)
        assert snap.allocations == 1
        assert snap.hits == 1
        assert snap.live_buffers == 1
        assert snap.bytes_allocated == 4 * 8

    def test_buffers_by_shape(self):
        ws = Workspace()
        ws.get("a", (4, 4))
        ws.get("b", (4, 4))
        ws.get("c", (2, 2))
        assert ws.buffers_by_shape() == {(4, 4): 2, (2, 2): 1}

    def test_clear_releases_everything(self):
        ws = Workspace()
        ws.get("x", (4, 4))
        ws.clear()
        assert ws.live_buffers == 0
        assert ws.buffers_by_shape() == {}
        # The totals are of what was ever allocated, not of what is live.
        assert ws.allocations == 1 and ws.bytes_allocated == 16 * 8
        # A fresh request allocates again.
        ws.get("x", (4, 4))
        assert ws.allocations == 2


class TestPlans:
    def test_built_once_and_not_a_buffer(self):
        ws = Workspace()
        built = []

        def build():
            built.append(1)
            return (ws.get("x", (4, 4)),)

        first = ws.plan(("op", (4, 4)), build)
        counts = (ws.allocations, ws.hits, ws.bytes_allocated,
                  ws.live_buffers, ws.buffers_by_shape())
        assert ws.plan(("op", (4, 4)), build) is first
        assert len(built) == 1
        assert (ws.allocations, ws.hits, ws.bytes_allocated,
                ws.live_buffers, ws.buffers_by_shape()) == counts
        assert counts[:4] == (1, 0, 128, 1)

    def test_clear_drops_plans_with_their_buffers(self):
        ws = Workspace()
        first = ws.plan("k", lambda: (ws.get("x", (2,)),))
        ws.clear()
        again = ws.plan("k", lambda: (ws.get("x", (2,)),))
        assert again is not first and again[0] is not first[0]
        assert ws.allocations == 2


class TestThreadSafety:
    def test_concurrent_gets_one_allocation_per_key(self):
        ws = Workspace()
        results = []
        barrier = threading.Barrier(8)

        def worker(i):
            barrier.wait()
            for _ in range(50):
                results.append(id(ws.get("shared", (16, 16))))
                ws.get(f"private{i}", (8, 8))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1        # one shared buffer ever
        assert ws.allocations == 1 + 8       # shared + one per name

    def test_racing_plan_builds_keep_one_plan(self):
        ws = Workspace()
        results = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait(10)
            for i in range(50):
                plan = ws.plan(i % 5, lambda: (ws.get("b", (4,)), object()))
                results.append((i % 5, id(plan)))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        # Every caller of a key got the one plan stored first.
        assert len(results) == 8 * 50
        assert len(set(results)) == 5
        assert ws.allocations == 1
