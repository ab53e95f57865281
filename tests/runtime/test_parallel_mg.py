"""Tests for the shared-memory parallel MG kernels: results must be
bit-identical to the serial kernels for any partition, any team size and
whichever way the team's fork policy falls.  The serial kernels are the
same plane-range bodies over the full range, so the independent
reference for the arithmetic itself is ``baselines.c_mg``."""

import contextlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import FortranMG
from repro.baselines.c_mg import (
    interp_add_planes,
    psinv_planes,
    resid_planes,
    rprj3_planes,
)
from repro.core import (
    A_COEFFS,
    S_COEFFS_A,
    comm3,
    interp_add,
    make_grid,
    psinv,
    resid,
    rprj3,
)
from repro.core import mg as core_mg
from repro.core.mg import solve
from repro.perf import Workspace
from repro.runtime import (
    ParallelMG,
    ThreadTeam,
    parallel_interp_add,
    parallel_psinv,
    parallel_resid,
    parallel_rprj3,
)
from repro.runtime.parallel_mg import (
    interp_chunk,
    psinv_chunk,
    resid_chunk,
    rprj3_chunk,
)


def _random_periodic(m, seed=0):
    rng = np.random.default_rng(seed)
    u = make_grid(m)
    u[1:-1, 1:-1, 1:-1] = rng.standard_normal((m, m, m))
    return comm3(u)


def _forced_team(nthreads: int, fork: bool) -> ThreadTeam:
    """A team whose clock makes every key fall one way: time stands
    still inline and runs forwards (backwards) across a fork."""
    team = ThreadTeam(
        nthreads, clock=lambda: -team.forks if fork else team.forks)
    return team


@pytest.fixture(params=[1, 2, 3, 7], scope="module")
def team(request):
    with ThreadTeam(request.param) as t:
        yield t


# -- the four chunk kernels: any partition == the full range == c_mg ----------

def _inputs(op, m):
    """The two extended input grids of ``op`` at fine interior ``m``."""
    if op == "interp":  # coarse z, fine u (non-zero, to check the "+=")
        return _random_periodic(m // 2, 1), _random_periodic(m, 2)
    return _random_periodic(m, 1), _random_periodic(m, 2)


def _serial(op, a, b):
    if op == "resid":
        return resid(a, b, A_COEFFS)
    if op == "psinv":
        return psinv(a, b.copy(), S_COEFFS_A)
    if op == "rprj3":
        return rprj3(a)
    return interp_add(a, b.copy())


def _independent(op, a, b):
    """``c_mg``'s plane-by-plane kernels: the other arithmetic body."""
    if op == "resid":
        return resid_planes(a, b, A_COEFFS)
    if op == "psinv":
        return psinv_planes(a, b.copy(), S_COEFFS_A)
    if op == "rprj3":
        return rprj3_planes(a)
    return interp_add_planes(a, b.copy())


def _extent(op, a):
    """Result-plane rows ``op`` produces from (a z-slab of) ``a``."""
    n = a.shape[0] - 2
    return {"resid": n, "psinv": n, "rprj3": n // 2, "interp": n + 1}[op]


def _chunked(op, a, b, ranges, ws):
    """Run ``op``'s chunk kernel over ``ranges``; ghosts are not filled."""
    if op == "resid":
        out = np.zeros_like(a)
        for z0, z1 in ranges:
            resid_chunk(a, b, A_COEFFS, out, z0, z1, ws=ws)
    elif op == "psinv":
        out = b.copy()
        for z0, z1 in ranges:
            psinv_chunk(a, out, S_COEFFS_A, z0, z1, ws=ws)
    elif op == "rprj3":
        out = np.zeros(tuple((n - 2) // 2 + 2 for n in a.shape))
        for j0, j1 in ranges:
            rprj3_chunk(a, out, j0, j1, ws=ws)
    else:
        out = b.copy()
        for j0, j1 in ranges:
            interp_chunk(a, out, j0, j1, ws=ws)
    return out


def _ranges(partition, extent):
    cuts = {
        "one": [0, extent],
        "two-even": [0, extent // 2, extent],
        "three-uneven": [0, 1, extent - extent // 3, extent],
        "per-plane": list(range(extent + 1)),
    }[partition]
    return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi > lo]


class TestChunkKernels:
    @pytest.mark.parametrize("pooled", [False, True],
                             ids=["unpooled", "pooled"])
    @pytest.mark.parametrize(
        "partition", ["one", "two-even", "three-uneven", "per-plane"])
    @pytest.mark.parametrize("level", [2, 3, 4, 5])
    @pytest.mark.parametrize("op", ["resid", "psinv", "rprj3", "interp"])
    def test_bit_identical_to_core(self, op, level, partition, pooled):
        a, b = _inputs(op, 1 << level)
        ws = Workspace() if pooled else None
        out = _chunked(op, a, b, _ranges(partition, _extent(op, a)), ws)
        if op != "interp":  # interp writes its own ghosts
            comm3(out)
        np.testing.assert_array_equal(out, _serial(op, a, b))
        if partition == "one":
            np.testing.assert_array_equal(out, _independent(op, a, b))
        if pooled:
            # One level-wide buffer per name, whatever the partition.
            assert ws.allocations == (6 if op == "rprj3" else 4)

    @pytest.mark.parametrize("pooled", [False, True],
                             ids=["unpooled", "pooled"])
    @pytest.mark.parametrize("level", [2, 3, 4, 5])
    @pytest.mark.parametrize("op", ["resid", "psinv", "rprj3", "interp"])
    def test_spmd_whole_slab_call(self, op, level, pooled):
        # runtime.spmd hands each rank's z-slab (one halo plane either
        # side) to the kernel as a single whole-slab chunk.
        m = 1 << level
        a, b = _inputs(op, m)
        want = _serial(op, a, b)
        inner = (slice(None),) * 2 if op == "interp" else (slice(1, -1),) * 2
        for rank in range(2):
            # Interior planes [lo, hi) of a (coarse z for interp), and
            # the factor to the other grid's plane numbering.
            half = (a.shape[0] - 2) // 2
            lo, hi = rank * half, (rank + 1) * half
            sa = a[lo:hi + 2].copy()
            fb = 2 if op == "interp" else 1
            sb = b[fb * lo:fb * hi + 2].copy()
            ws = Workspace() if pooled else None
            out = _chunked(op, sa, sb, [(0, _extent(op, sa))], ws)
            fo = {"rprj3": 0.5, "interp": 2}.get(op, 1)
            olo, ohi = int(fo * lo), int(fo * hi)
            np.testing.assert_array_equal(
                out[(slice(1, -1),) + inner],
                want[(slice(olo + 1, ohi + 1),) + inner])


class TestKernels:
    """The fork-join wrappers through live teams of 1, 2, 3 and 7: three
    visits each, so the inline calibration visit, the forked one and the
    decided path are all compared with ``core.mg``."""

    def test_resid(self, team):
        u = _random_periodic(8, 1)
        v = _random_periodic(8, 2)
        for _ in range(3):
            np.testing.assert_array_equal(
                parallel_resid(u, v, A_COEFFS, team), resid(u, v, A_COEFFS))

    def test_psinv(self, team):
        r = _random_periodic(8, 3)
        for _ in range(3):
            u1 = _random_periodic(8, 4)
            u2 = u1.copy()
            parallel_psinv(r, u1, S_COEFFS_A, team)
            psinv(r, u2, S_COEFFS_A)
            np.testing.assert_array_equal(u1, u2)

    def test_rprj3(self, team):
        r = _random_periodic(8, 5)
        for _ in range(3):
            np.testing.assert_array_equal(parallel_rprj3(r, team), rprj3(r))

    def test_interp(self, team):
        z = _random_periodic(4, 6)
        for _ in range(3):
            u1, u2 = make_grid(8), make_grid(8)
            parallel_interp_add(z, u1, team)
            interp_add(z, u2)
            np.testing.assert_array_equal(u1, u2)

    def test_rprj3_rejects_tiny(self, team):
        with pytest.raises(ValueError):
            parallel_rprj3(make_grid(2), team)

    def test_interp_shape_check(self, team):
        with pytest.raises(ValueError):
            parallel_interp_add(make_grid(4), make_grid(4), team)


class TestFullSolve:
    @pytest.mark.parametrize("nthreads", [1, 2, 5])
    def test_bit_identical_to_serial(self, nthreads):
        par = ParallelMG(nthreads).solve("T")
        ser = FortranMG().solve("T")
        assert par.rnm2 == ser.rnm2
        np.testing.assert_array_equal(par.u, ser.u)
        np.testing.assert_array_equal(par.r, ser.r)

    def test_class_s_verifies(self):
        res = ParallelMG(2).solve("S")
        assert res.verified

    @pytest.mark.parametrize("fork", [False, True], ids=["inline", "forked"])
    @pytest.mark.parametrize("nthreads", [2, 3])
    @pytest.mark.parametrize("klass,nit", [("S", None), ("W", 4)])
    def test_forced_policy_bit_equal_to_serial(self, klass, nit, nthreads,
                                               fork):
        with ParallelMG(nthreads) as solver:
            solver.team.shutdown()
            solver.team = _forced_team(nthreads, fork)
            par = solver.solve(klass, nit)
            table, forks = solver.decisions, solver.team.forks
            assert all(d.forked is fork for d in table.values())
            # Inline: each key forked once, for its calibration, only.
            assert forks > len(table) if fork else forks == len(table)
        assert par.rnm2 == solve(klass, nit).rnm2

    def test_warm_up_solve_trains_later_solves(self):
        with ParallelMG(2) as solver:
            solver.solve("S", 2)
            table = dict(solver.decisions)
            # Every level of class S, all four operators, all decided.
            assert {shape[0] - 2 for _, shape in table} == {2, 4, 8, 16, 32}
            assert all(d.forked is not None for d in table.values())
            solver.solve("S")
            assert dict(solver.decisions) == table


# -- cache blocks inside a chunk: any block length == one block ---------------

#: ``_BLOCK_BYTES`` values that split an 8^3 / 16^3 chunk into blocks of
#: one plane (1), two and three (resid at 16^3 touches 18 144 B per
#: plane) and up to the whole range.
_BUDGETS = [1, 22_000, 40_000, 58_000, 200_000]


@contextlib.contextmanager
def _budget(nbytes):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core_mg, "_BLOCK_BYTES", nbytes)
        yield


class TestCacheBlocks:
    @settings(max_examples=120, deadline=None)
    @given(op=st.sampled_from(["resid", "resid-aliased", "psinv", "rprj3",
                               "interp"]),
           level=st.sampled_from([3, 4]),
           budget=st.sampled_from(_BUDGETS),
           pooled=st.booleans(), data=st.data())
    def test_any_block_length_gives_the_one_block_bytes(self, op, level,
                                                        budget, pooled, data):
        aliased, op = op.endswith("-aliased"), op.split("-")[0]
        a, b = _inputs(op, 1 << level)
        extent = _extent(op, a)
        z0 = data.draw(st.integers(0, extent - 1))
        z1 = data.draw(st.integers(z0 + 1, extent))

        def run():
            ws = Workspace() if pooled else None
            if aliased:  # NPB's in-place residual: r is v
                r = b.copy()
                resid_chunk(a, r, A_COEFFS, r, z0, z1, ws=ws)
                return r
            return _chunked(op, a, b, [(z0, z1)], ws)

        with _budget(1 << 40):
            want = run()
        with _budget(budget):
            assert run().tobytes() == want.tobytes()

    @pytest.mark.parametrize("op", ["resid", "psinv", "rprj3", "interp"])
    def test_concurrent_chunks_share_a_workspace(self, op):
        # Each chunk's blocks reuse the first planes of the chunk's own
        # range of the level-wide buffers; two chunks must not meet.
        a, b = _inputs(op, 64)
        extent = _extent(op, a)
        want = _chunked(op, a, b, [(0, extent)], None)
        ws = Workspace()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cut in (extent // 2, extent // 3, 1):
                out = np.zeros_like(want) if op in ("resid", "rprj3") \
                    else b.copy()
                gate = threading.Barrier(2)

                def work(lo, hi, out=out, gate=gate):
                    gate.wait(10)
                    kernel, args = {
                        "resid": (resid_chunk, (a, b, A_COEFFS, out)),
                        "psinv": (psinv_chunk, (a, out, S_COEFFS_A)),
                        "rprj3": (rprj3_chunk, (a, out)),
                        "interp": (interp_chunk, (a, out)),
                    }[op]
                    kernel(*args, lo, hi, ws=ws)

                threads = [threading.Thread(target=work, args=r)
                           for r in ((0, cut), (cut, extent))]
                with _budget(1 << 18):
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(30)
                assert not any(t.is_alive() for t in threads)
                assert out.tobytes() == want.tobytes()
        finally:
            sys.setswitchinterval(old)

    @given(st.integers(1, 1 << 24), st.integers(1, 1 << 24))
    def test_block_planes_is_positive_and_non_increasing(self, x, y):
        lo, hi = sorted((x, y))
        assert core_mg.block_planes(lo) >= core_mg.block_planes(hi) >= 1

    @pytest.mark.parametrize("op, m, split", [
        ("rprj3", 16, False), ("rprj3", 32, False),
        ("interp", 16, False), ("interp", 32, False),
        ("resid", 64, True), ("psinv", 64, True)])
    def test_the_rule_splits_stencils_at_64_not_transfers_at_32(
            self, op, m, split, monkeypatch):
        picks = []
        rule = core_mg.block_planes
        monkeypatch.setattr(core_mg, "block_planes",
                            lambda n: picks.append(rule(n)) or picks[-1])
        a, b = _inputs(op, m)
        extent = _extent(op, a)
        _chunked(op, a, b, [(0, extent)], None)
        assert len(picks) == 1 and (picks[0] < extent) is split

    def test_class_w_pool_is_the_unblocked_pools_bytes(self):
        # Block scratch is a view of level-wide buffers, whatever the
        # block length.  The 27-point sweeps' four buffers are whole
        # planes, ghost rows and columns included (a flat range spans
        # them): 540 288 B more than the interior-shaped ones were.
        ws = Workspace()
        solve("W", 1, ws=ws)
        warm = ws.allocations
        solve("W", 1, ws=ws)
        assert ws.allocations == warm
        assert ws.bytes_allocated == 16_535_128

    def test_runtimes_keep_serials_bits_under_a_small_budget(self):
        from repro.runtime import DistributedMG

        want = solve("S").rnm2.hex()

        with _budget(40_000), ParallelMG(2) as par:
            got = (solve("S").rnm2.hex(), par.solve("S").rnm2.hex(),
                   DistributedMG(2).solve("S").rnm2.hex())
        assert got == (want,) * 3


# -- flat-range sweeps: the ghosts stay the caller's ---------------------------

def _ghosts(shape) -> np.ndarray:
    mask = np.ones(shape, dtype=bool)
    mask[1:-1, 1:-1, 1:-1] = False
    return mask


class TestFlatRanges:
    """``resid_chunk``/``psinv_chunk`` compute every point of a flat
    range, the x/y ghosts between interior rows included, and store only
    the interior."""

    @settings(max_examples=120, deadline=None)
    @given(op=st.sampled_from(["resid", "resid-aliased", "psinv"]),
           level=st.sampled_from([2, 3, 4]),
           budget=st.sampled_from(_BUDGETS),
           # NaN must not reach the interior; a ghost computed from a
           # NaN is NaN again, so a finite fill shows a stored ghost.
           fill=st.sampled_from([np.nan, -7.0]),
           pooled=st.booleans(), data=st.data())
    def test_ghosts_keep_their_bytes(self, op, level, budget, fill, pooled,
                                     data):
        aliased, op = op.endswith("-aliased"), op.split("-")[0]
        a, b = _inputs(op, 1 << level)
        extent = _extent(op, a)
        z0 = data.draw(st.integers(0, extent - 1))
        z1 = data.draw(st.integers(z0 + 1, extent))
        ghosts = _ghosts(a.shape)

        def run(out):
            ws = Workspace() if pooled else None
            if op == "psinv":
                psinv_chunk(a, out, S_COEFFS_A, z0, z1, ws=ws)
            else:  # the aliased residual reads its v's NaN ghosts too
                resid_chunk(a, out if aliased else b, A_COEFFS, out, z0, z1,
                            ws=ws)
            return out

        start = b.copy() if aliased or op == "psinv" else np.zeros_like(a)
        with _budget(budget):
            want = run(start.copy())
            start[ghosts] = fill
            got = run(start.copy())
        want[ghosts] = fill
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("op", ["resid", "psinv"])
    def test_a_non_contiguous_written_grid_is_refused(self, op):
        a, b = _inputs(op, 8)
        out = np.asfortranarray(b)
        with pytest.raises(ValueError, match="C-contiguous"):
            if op == "resid":
                resid_chunk(a, b, A_COEFFS, out, 0, 8)
            else:
                psinv_chunk(a, out, S_COEFFS_A, 0, 8)

    @pytest.mark.parametrize("op, operand", [
        ("resid", "u"), ("resid", "v"), ("psinv", "r")])
    def test_a_non_contiguous_read_operand_gives_the_same_bytes(self, op,
                                                                operand):
        a, b = _inputs(op, 8)

        def run(a, b):
            if op == "resid":
                out = np.zeros(a.shape)
                resid_chunk(a, b, A_COEFFS, out, 0, 8)
            else:  # psinv reads r (its a) and writes u (its b)
                out = b.copy()
                psinv_chunk(a, out, S_COEFFS_A, 0, 8)
            return out

        want = run(a, b)
        if operand == "v":
            b = np.asfortranarray(b)
        else:
            a = np.asfortranarray(a)
        assert not (a.flags.c_contiguous and b.flags.c_contiguous)
        assert run(a, b).tobytes() == want.tobytes()
