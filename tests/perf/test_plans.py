"""Kernel plans: the per-call set-up of ``core.mg``'s blocked bodies is
built once per pool, shape, range and block length, and a cached plan
gives the bits of a fresh one.  Counts, not clocks: a warm pooled solve
asks the pool only for the grids it hands back."""

import numpy as np
import pytest

from repro.core import mg as core_mg
from repro.core.mg import solve
from repro.core.stencils import A_COEFFS, S_COEFFS_A
from repro.core.zran3 import zran3
from repro.perf import Workspace
from repro.runtime.parallel_mg import ParallelMG
from repro.runtime.resilience import Fault, FaultKind, FaultPlan
from repro.runtime.spmd import DistributedMG

pytestmark = pytest.mark.perf


def _requests(ws: Workspace) -> int:
    return ws.hits + ws.allocations


def _bits(res):
    return res.rnm2.hex(), res.u.tobytes(), res.r.tobytes()


@pytest.fixture(scope="module")
def serial_s():
    return _bits(solve("S"))


class TestOverheadGuard:
    """The warm pooled solve's pool traffic is the grids it returns:
    ``resid.out`` once, then per V-cycle one ``rprj3.out`` and one
    correction grid per level below the top."""

    @pytest.mark.parametrize("klass, bound, exact", [("S", 40, 33),
                                                     ("W", 450, 401)])
    def test_warm_pooled_solve_requests(self, klass, bound, exact):
        v = zran3(32 if klass == "S" else 64)
        ws = Workspace()
        solve(klass, v=v, ws=ws)
        before = (_requests(ws), ws.allocations, ws.buffers_by_shape(),
                  ws.bytes_allocated)
        solve(klass, v=v, ws=ws)
        assert _requests(ws) - before[0] <= bound
        assert _requests(ws) - before[0] == exact
        assert ws.allocations == before[1]
        assert ws.buffers_by_shape() == before[2]
        assert ws.bytes_allocated == before[3]

    def test_cleared_pool_reallocates_to_the_same_bits(self, serial_s):
        ws = Workspace()
        first = _bits(solve("S", ws=ws))
        warm = ws.allocations
        ws.clear()
        again = _bits(solve("S", ws=ws))
        assert ws.allocations == 2 * warm
        assert again == first == serial_s


# -- the block length is part of the key --------------------------------------

def _call(op, m, ws):
    """One full-range call of ``op``'s body at fine interior ``m``."""
    rng = np.random.default_rng(m)
    a, b = rng.random((m + 2,) * 3), rng.random((m + 2,) * 3)
    z = rng.random((m // 2 + 2,) * 3)
    if op == "resid":
        core_mg.resid_chunk(a, b, A_COEFFS, np.zeros_like(a), 0, m, ws)
    elif op == "psinv":
        core_mg.psinv_chunk(a, b, S_COEFFS_A, 0, m, ws)
    elif op == "rprj3":
        core_mg.rprj3_chunk(a, np.zeros_like(z), 0, m // 2, ws)
    else:
        core_mg.interp_chunk(z, b, 0, m // 2 + 1, ws)


def _blocks_run(op, m, ws, monkeypatch):
    """How many blocks the plan of the next call of ``op`` holds."""
    seen = []
    plan = ws.plan

    def spy(key, build):
        got = plan(key, build)
        seen.append(len(got if op in ("resid", "psinv") else got[1]))
        return got

    with monkeypatch.context() as mp:
        mp.setattr(ws, "plan", spy)
        _call(op, m, ws)
    assert len(seen) == 1
    return seen[0]


class TestBlockLengthInTheKey:
    @pytest.mark.parametrize("op", ["resid", "psinv", "rprj3", "interp"])
    def test_patched_budget_changes_the_next_calls_blocks(self, op,
                                                          monkeypatch):
        ws = Workspace()
        _call(op, 16, ws)
        assert _blocks_run(op, 16, ws, monkeypatch) == 1
        monkeypatch.setattr(core_mg, "_BLOCK_BYTES", 1)
        # One plane per block: 16 interior planes, 8 coarse planes, or
        # the 9 coarse rows interp reads.
        want = {"rprj3": 8, "interp": 9}.get(op, 16)
        assert _blocks_run(op, 16, ws, monkeypatch) == want
        monkeypatch.undo()
        assert _blocks_run(op, 16, ws, monkeypatch) == 1

    def test_without_a_pool_every_call_builds(self, monkeypatch):
        built = []
        stencil_plan = core_mg._stencil_plan
        monkeypatch.setattr(
            core_mg, "_stencil_plan",
            lambda *args: built.append(1) or stencil_plan(*args))
        for _ in range(3):
            _call("resid", 8, None)
        assert len(built) == 3


# -- runtimes on cached plans keep serial's bits ------------------------------

class TestRuntimesOnPlans:
    @pytest.mark.parametrize("nthreads", [2, 3])
    def test_parallel_mg_shares_one_workspace(self, nthreads, serial_s):
        # The inline visit (one chunk) and the forked ones (a chunk per
        # worker) build plans for different ranges on one pool; the
        # serial kernels use the same pool afterwards.
        ws = Workspace("shared")
        with ParallelMG(nthreads, workspace=ws) as solver:
            calibrating = solver.solve("S", 2).rnm2.hex()
            got = [_bits(solver.solve("S")) for _ in range(2)]
            assert all(d.forked is not None
                       for d in solver.decisions.values())
        got.append(_bits(solve("S", ws=ws)))
        assert got == [serial_s] * 3
        assert calibrating == solve("S", 2).rnm2.hex()

    def test_distributed_mg_after_a_heal(self, serial_s):
        plan = FaultPlan([Fault(FaultKind.CRASH, rank=1, iteration=1)])
        mg = DistributedMG(2, fault_plan=plan, heal=1, timeout=20.0,
                           workspace=True)
        pools = list(mg.workspaces)
        healed = _bits(mg.solve("S"))
        assert mg.workspaces[1] is not pools[1]
        assert mg.last_world.stats.heals_completed == 1
        assert healed == serial_s
        assert _bits(mg.solve("S")) == serial_s
