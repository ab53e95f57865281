"""The face operator's flat-range, cache-blocked sweep gives the bytes of
the 3-D body it replaced.

``_reference`` is that body: every term a 3-D (rank-``r``) window of the
extended grid, over one plane range.  The sweep must match it byte for
byte for any rank, shape, shift, boundary kind, partition of the planes
into chunks and block length, must leave the planes outside its range
alone, and must read a non-contiguous ``u`` correctly.  The class-S
results of the three solver-family members are pinned.
"""

import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ghost_fill
from repro.core import mg as core_mg
from repro.pde import (
    BoundarySpec,
    FaceOperator,
    build_operator,
    get_workload,
    solve_problem,
)
from repro.perf import Workspace


def _reference(op, u, z0, z1):
    """``(sigma*I + A) u`` on interior planes ``[z0, z1)`` with 3-D
    windows: the body the flat-range sweep replaced, term for term."""
    nd = op.ndim
    ctr = (slice(1 + z0, 1 + z1),) + (slice(1, -1),) * (nd - 1)

    def nbr(d, off):
        sl = list(ctr)
        sl[d] = (slice(1 + z0 + off, 1 + z1 + off) if d == 0
                 else slice(1 + off, (-1 + off) or None))
        return tuple(sl)

    def faces(d, side):
        sl = [slice(z0, z1)] + [slice(None)] * (nd - 1)
        sl[d] = (slice(z0 + side, z1 + side) if d == 0
                 else slice(side, (side - 1) or None))
        return op.faces(d)[tuple(sl)]

    uc = u[ctr]
    acc = np.multiply(uc, op.sigma)
    tmp = np.empty_like(acc)
    for d in range(nd):
        np.subtract(uc, u[nbr(d, -1)], out=tmp)
        np.multiply(tmp, faces(d, 0), out=tmp)
        np.add(acc, tmp, out=acc)
        np.subtract(uc, u[nbr(d, +1)], out=tmp)
        np.multiply(tmp, faces(d, 1), out=tmp)
        np.add(acc, tmp, out=acc)
    return acc


@st.composite
def _operators(draw):
    """A random operator of rank 1-3 and an extended ``u`` and ``f`` for
    it, the ghosts filled by the operator's boundary kind."""
    nd = draw(st.integers(1, 3))
    shape = (draw(st.integers(1, (24, 9, 6)[nd - 1])),) * nd
    kind = draw(st.sampled_from(["periodic", "dirichlet", "neumann"]))
    sigma = draw(st.sampled_from([0.0, 1.0, 37.25, 500.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    faces = [0.5 + rng.random(tuple(m + (a == d) for a, m in enumerate(shape)))
             for d in range(nd)]
    op = FaceOperator(faces, 1.0 / max(shape), sigma, BoundarySpec(kind))
    u = np.zeros(tuple(m + 2 for m in shape))
    u[(slice(1, -1),) * nd] = rng.standard_normal(shape)
    ghost_fill(u, kind, 0.0 if kind == "periodic" else rng.standard_normal())
    return op, u, rng.standard_normal(shape)


class TestFlatSweepIsThe3DBody:
    @settings(max_examples=150, deadline=None)
    @given(case=_operators(), pooled=st.booleans(), data=st.data())
    def test_any_partition_and_block_length_gives_its_bytes(self, case,
                                                            pooled, data):
        op, u, f = case
        m0 = op.shape[0]
        cuts = sorted(data.draw(st.sets(st.integers(1, m0 - 1))) if m0 > 1
                      else [])
        ranges = list(zip([0] + cuts, cuts + [m0]))
        planes = data.draw(st.integers(1, m0))
        ws = Workspace() if pooled else None
        got_apply = np.full(op.shape, np.nan)
        got_resid = np.full(op.shape, np.nan)
        # Block lengths forced as scripts/block_sweep.py forces them.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core_mg, "block_planes", lambda nbytes: planes)
            for z0, z1 in ranges:
                op.apply(u, got_apply, ws=ws, z0=z0, z1=z1)
                op.residual(u, f, got_resid, ws=ws, z0=z0, z1=z1)
        want = _reference(op, u, 0, m0)
        assert got_apply.tobytes() == want.tobytes()
        assert got_resid.tobytes() == (f - want).tobytes()
        assert op.apply(u).tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(case=_operators(), data=st.data())
    def test_planes_outside_the_range_keep_their_nan(self, case, data):
        op, u, f = case
        m0 = op.shape[0]
        z0 = data.draw(st.integers(0, m0 - 1))
        z1 = data.draw(st.integers(z0 + 1, m0))
        for call in (lambda out: op.apply(u, out, z0=z0, z1=z1),
                     lambda out: op.residual(u, f, out, z0=z0, z1=z1)):
            out = np.full(op.shape, np.nan)
            call(out)
            assert np.isnan(out[:z0]).all() and np.isnan(out[z1:]).all()
            assert not np.isnan(out[z0:z1]).any()

    def test_concurrent_chunks_share_a_workspace_and_the_plans(self):
        # Chunks of one region share the operator's plan cache and the
        # level-wide pooled scratch (each reads its own planes of it).
        wl = get_workload("variable-poisson")
        op = build_operator(wl.spec, 24, wl.coefficient())
        rng = np.random.default_rng(12)
        u = rng.standard_normal((26, 26, 26))
        f = rng.standard_normal(op.shape)
        want = _reference(op, u, 0, 24)
        ws = Workspace()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cuts in ((0, 6, 12, 18, 24), (0, 1, 2, 23, 24),
                         (0, 5, 11, 17, 24)):
                out = np.full(op.shape, np.nan)
                gate = threading.Barrier(4)

                def work(z0, z1, out=out, gate=gate):
                    gate.wait(10)
                    for _ in range(20):
                        op.residual(u, f, out, ws=ws, z0=z0, z1=z1)

                threads = [threading.Thread(target=work, args=r)
                           for r in zip(cuts, cuts[1:])]
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(core_mg, "block_planes", lambda nbytes: 2)
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(30)
                assert not any(t.is_alive() for t in threads)
                assert out.tobytes() == (f - want).tobytes()
        finally:
            sys.setswitchinterval(old)

    def test_a_non_contiguous_u_gives_the_same_bytes(self):
        op = build_operator(get_workload("variable-poisson").spec, 8,
                            get_workload("variable-poisson").coefficient())
        rng = np.random.default_rng(11)
        u = rng.standard_normal((10, 10, 10))
        f = rng.standard_normal(op.shape)
        big = np.zeros((20, 10, 30))
        big[::2, :, ::3] = u
        for other in (np.asfortranarray(u), big[::2, :, ::3],
                      np.flip(np.flip(u, 0).copy(), 0)):
            assert not other.flags.c_contiguous
            assert op.apply(other).tobytes() == op.apply(u).tobytes()
            assert (op.residual(other, f).tobytes()
                    == op.residual(u, f).tobytes())

    def test_u_must_have_the_extended_shape(self):
        op = build_operator(get_workload("dirichlet-fmg").spec, 4, None)
        with pytest.raises(ValueError, match="extended shape"):
            op.apply(np.zeros((4, 4, 4)))

    def test_faces_is_a_read_only_view_of_the_scaled_coefficients(self):
        wl = get_workload("variable-poisson")
        op = build_operator(wl.spec, 4, wl.coefficient())
        for d in range(3):
            k = op.faces(d)
            assert k.shape == tuple(4 + (a == d) for a in range(3))
            assert not k.flags.writeable
            with pytest.raises(ValueError):
                k[0, 0, 0] = 1.0


#: sha256 of the class-S inputs (right-hand side, then the finest level's
#: scaled face coefficients per axis) and of ``solve_problem(name,
#: "S").u``.  The inputs go through ``np.sin``/``np.cos``, whose last bit
#: depends on the platform's vector math; where they differ, the result
#: pin does not apply.
_PINNED = {
    "variable-poisson": (
        "b611a86e11031d1608513162f6279c6ca9a905d10f0031d006fae9c62f535fec",
        "b95d081554d962c6a3d0cf87ba14506634766c8ce2d2a49a59d3e1e02ff97501"),
    "dirichlet-fmg": (
        "aa474386232eecae47ee3fb0cbf88aaa9012fcea450391da56173b46110c0a9d",
        "ac2b068f6b971fa97653a536c082c6cb140cf1881a5d125d4494fb21c2eea9c9"),
    "heat2d": (
        "b650a9cb14725a8cd6668887284a3d35774841209f2f6184edca17e330c4706c",
        "aff9faac915659a241f5d4e24e3e06e6564373c4aba3a46a01a80fdc0cead9f8"),
}


def _sha(*arrays):
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes()
                                   for a in arrays)).hexdigest()


@pytest.mark.parametrize("mode", ["serial", "threaded"])
@pytest.mark.parametrize("name", sorted(_PINNED))
def test_class_s_result_bytes_are_pinned(name, mode):
    wl = get_workload(name)
    nx = wl.grid_size("S")
    op = build_operator(wl.spec, nx, wl.coefficient())
    inputs, result = _PINNED[name]
    if _sha(wl.rhs(nx), *(op.faces(d) for d in range(op.ndim))) != inputs:
        pytest.skip("this platform's sin/cos give other class-S inputs")
    assert _sha(solve_problem(name, "S", mode=mode, nthreads=2).u) == result
