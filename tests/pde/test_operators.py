"""FaceOperator vs. the sparse-direct oracle, plus transfer tests.

The operator applies through the ghost contract; the oracle assembles
the explicit matrix.  Agreement on random vectors (for every shipped
workload's operator and for the kinds the workloads don't cover —
periodic and anisotropic) pins the discretisation.
"""

import numpy as np
import pytest

from repro.core import ghost_fill
from repro.pde import (
    BoundarySpec,
    CycleSpec,
    ProblemSpec,
    SmootherSpec,
    StencilSpec,
    build_operator,
    get_workload,
)
from repro.pde.oracle import assemble
from repro.pde.transfer import prolong_cc, restrict_cc

pytest.importorskip("scipy")


def _spec(stencil, boundary, ndim=3, sigma=0.0):
    return ProblemSpec(
        name="t", ndim=ndim, stencil=stencil,
        boundary=boundary, smoother=SmootherSpec.jacobi(),
        cycle=CycleSpec.v(), sigma=sigma)


def _extended_random(op, rng):
    """Random interior embedded in an extended array with the
    *homogeneous* ghost contract the matrix encodes."""
    u = np.zeros(tuple(s + 2 for s in op.shape))
    u[tuple(slice(1, -1) for _ in op.shape)] = rng.standard_normal(op.shape)
    ghost_fill(u, op.boundary.kind, 0.0)
    return u


def _check_matches_matrix(op, seed=0):
    mat = assemble(op)
    rng = np.random.default_rng(seed)
    inner = tuple(slice(1, -1) for _ in op.shape)
    for _ in range(3):
        u = _extended_random(op, rng)
        want = (mat @ u[inner].ravel()).reshape(op.shape)
        got = op.apply(u)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestWorkloadOperators:
    @pytest.mark.parametrize(
        "name", ["variable-poisson", "dirichlet-fmg", "heat2d"])
    def test_apply_matches_assembled_matrix(self, name):
        wl = get_workload(name)
        m = 4 if wl.spec.ndim == 3 else 8
        op = build_operator(wl.spec, m, wl.coefficient())
        _check_matches_matrix(op, seed=hash(name) % 1000)

    def test_residual_is_f_minus_apply(self):
        wl = get_workload("variable-poisson")
        op = build_operator(wl.spec, 4, wl.coefficient())
        rng = np.random.default_rng(3)
        u = _extended_random(op, rng)
        f = rng.standard_normal(op.shape)
        want = f - op.apply(u)
        np.testing.assert_array_equal(op.residual(u, f), want)


class TestUncoveredKinds:
    def test_periodic_constant(self):
        op = build_operator(
            _spec(StencilSpec.poisson(), BoundarySpec.periodic()), 4, None)
        _check_matches_matrix(op, seed=1)

    def test_anisotropic(self):
        spec = _spec(StencilSpec.anisotropic((1.0, 10.0, 0.5)),
                     BoundarySpec.dirichlet())
        op = build_operator(spec, 4, None)
        # per-axis faces carry exactly the per-axis diffusivity / h^2
        for d, k in enumerate((1.0, 10.0, 0.5)):
            np.testing.assert_array_equal(
                op.faces(d), np.full(op.faces(d).shape, k * 16.0))
        _check_matches_matrix(op, seed=2)

    def test_helmholtz_shift_adds_sigma_identity(self):
        base = build_operator(
            _spec(StencilSpec.poisson(), BoundarySpec.neumann(),
                  ndim=2), 6, None)
        shifted = build_operator(
            _spec(StencilSpec.poisson(), BoundarySpec.neumann(),
                  ndim=2, sigma=7.5), 6, None)
        _check_matches_matrix(shifted, seed=4)
        rng = np.random.default_rng(5)
        u = _extended_random(base, rng)
        diff = shifted.apply(u) - base.apply(u)
        inner = tuple(slice(1, -1) for _ in base.shape)
        np.testing.assert_allclose(diff, 7.5 * u[inner], rtol=1e-12)


class TestDiag:
    @pytest.mark.parametrize("kind", ["periodic", "dirichlet", "neumann"])
    def test_diag_matches_matrix_diagonal(self, kind):
        wl = get_workload("variable-poisson")
        spec = _spec(StencilSpec.variable("k-sines"), BoundarySpec(kind))
        op = build_operator(spec, 4, wl.coefficient())
        np.testing.assert_allclose(
            op.diag().ravel(), assemble(op).diagonal(), rtol=1e-12)


class TestChunking:
    def test_chunked_apply_bitwise_equals_full(self):
        wl = get_workload("variable-poisson")
        op = build_operator(wl.spec, 6, wl.coefficient())
        rng = np.random.default_rng(6)
        u = _extended_random(op, rng)
        full = op.apply(u)
        chunked = np.empty(op.shape)
        for z0, z1 in ((0, 2), (2, 5), (5, 6)):
            op.apply(u, chunked, z0=z0, z1=z1)
        np.testing.assert_array_equal(chunked, full)

    def test_chunked_residual_bitwise_equals_full(self):
        wl = get_workload("heat2d")
        op = build_operator(wl.spec, 8, None)
        rng = np.random.default_rng(7)
        u = _extended_random(op, rng)
        f = rng.standard_normal(op.shape)
        full = op.residual(u, f)
        chunked = np.empty(op.shape)
        for z0, z1 in ((0, 3), (3, 8)):
            op.residual(u, f, chunked, z0=z0, z1=z1)
        np.testing.assert_array_equal(chunked, full)


class TestTransfer:
    @pytest.mark.parametrize("shape", [(8,), (6, 4), (4, 4, 4)])
    def test_restrict_preserves_constants(self, shape):
        r = np.full(shape, 3.25)
        out = restrict_cc(r)
        assert out.shape == tuple(s // 2 for s in shape)
        np.testing.assert_array_equal(out, np.full(out.shape, 3.25))

    def test_restrict_rejects_odd_extents(self):
        with pytest.raises(ValueError, match="odd"):
            restrict_cc(np.zeros((5, 4)))

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_prolong_preserves_constants(self, ndim):
        m = 4
        uc = np.full(tuple(m + 2 for _ in range(ndim)), 1.5)
        fine = prolong_cc(uc)
        assert fine.shape == tuple(2 * m for _ in range(ndim))
        np.testing.assert_allclose(fine, 1.5, rtol=1e-15)

    def test_restrict_is_child_average(self):
        rng = np.random.default_rng(8)
        r = rng.standard_normal((4, 4))
        out = restrict_cc(r)
        want = 0.25 * (r[0::2, 0::2] + r[1::2, 0::2]
                       + r[0::2, 1::2] + r[1::2, 1::2])
        np.testing.assert_allclose(out, want, rtol=1e-14)
