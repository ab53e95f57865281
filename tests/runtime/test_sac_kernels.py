"""The compiled-SAC kernel path of the parallel/SPMD runtimes.

Unlike the NumPy chunk kernels (expression-order exact, bit-identical
to serial), the SAC ``RelaxKernel`` folds the 27 stencil terms in a
different association order, so these tests compare against the serial
kernels to floating-point tolerance.
"""

import numpy as np
import pytest

from repro.core import (
    A_COEFFS,
    S_COEFFS_A,
    comm3,
    make_grid,
    psinv,
    resid,
)
from repro.runtime import (
    DistributedMG,
    ParallelMG,
    ThreadTeam,
    parallel_psinv,
    parallel_resid,
)
from repro.runtime.kernels import SacKernelLibrary

TOL = dict(rtol=1e-12, atol=1e-12)


def _random_periodic(m, seed=0):
    rng = np.random.default_rng(seed)
    u = make_grid(m)
    u[1:-1, 1:-1, 1:-1] = rng.standard_normal((m, m, m))
    return comm3(u)


@pytest.fixture(scope="module")
def lib():
    return SacKernelLibrary()


class TestSlabSweeps:
    def test_resid_slab_matches_serial_interior(self, lib):
        u = _random_periodic(8, 1)
        v = _random_periodic(8, 2)
        want = resid(u, v, A_COEFFS)
        r = make_grid(8)
        lib.resid_slab(u, v, A_COEFFS, r, 0, 8)
        np.testing.assert_allclose(
            r[1:-1, 1:-1, 1:-1], want[1:-1, 1:-1, 1:-1], **TOL
        )

    def test_psinv_slab_matches_serial_interior(self, lib):
        r = _random_periodic(8, 3)
        u_sac = _random_periodic(8, 4)
        u_ref = u_sac.copy()
        psinv(r, u_ref, S_COEFFS_A)
        lib.psinv_slab(r, u_sac, S_COEFFS_A, 0, 8)
        np.testing.assert_allclose(
            u_sac[1:-1, 1:-1, 1:-1], u_ref[1:-1, 1:-1, 1:-1], **TOL
        )

    def test_partial_slab_leaves_rest_untouched(self, lib):
        u = _random_periodic(8, 5)
        v = _random_periodic(8, 6)
        r = make_grid(8)
        marker = -123.456
        r.fill(marker)
        lib.resid_slab(u, v, A_COEFFS, r, 2, 5)
        want = resid(u, v, A_COEFFS)
        np.testing.assert_allclose(r[3:6, 1:-1, 1:-1],
                                   want[3:6, 1:-1, 1:-1], **TOL)
        assert np.all(r[:3] == marker) and np.all(r[6:] == marker)
        assert np.all(r[3:6, 0] == marker) and np.all(r[3:6, -1] == marker)

    def test_one_specialization_serves_both_sweeps(self, lib):
        # resid (CoeffA) and psinv (CoeffS) at the same slab shape use
        # the SAME compiled kernel: coefficients stay symbolic.
        fresh = SacKernelLibrary(session=lib._get_session())
        u = _random_periodic(8, 7)
        v = _random_periodic(8, 8)
        r = make_grid(8)
        fresh.resid_slab(u, v, A_COEFFS, r, 0, 8)
        fresh.psinv_slab(r, u, S_COEFFS_A, 0, 8)
        assert fresh.specialization_count == 1

    def test_specializations_keyed_by_shape(self, lib):
        fresh = SacKernelLibrary(session=lib._get_session())
        for m in (4, 8):
            u = _random_periodic(m, m)
            v = _random_periodic(m, m + 1)
            fresh.resid_slab(u, v, A_COEFFS, make_grid(m), 0, m)
        assert fresh.specialization_count == 2


class _StubSession:
    """Counts ``compile_kernel`` calls; every kernel returns zeros."""

    def __init__(self):
        self.calls = []

    def compile_kernel(self, name, example):
        self.calls.append((name, [np.asarray(e).shape for e in example]))
        return lambda *args: np.zeros_like(args[0])


class TestLibraryBookkeeping:
    def test_same_shape_compiles_once(self):
        session = _StubSession()
        lib = SacKernelLibrary(session=session)
        lib.relax(np.zeros((4, 4, 4)), np.zeros(4))
        lib.relax(np.ones((4, 4, 4)), np.zeros(4))
        assert session.calls == [("RelaxKernel", [(4, 4, 4), (4,)])]
        assert lib.specialization_count == 1

    def test_compile_failure_is_counted(self):
        class _Boom:
            def compile_kernel(self, name, example):
                raise RuntimeError("no backend")

        lib = SacKernelLibrary(session=_Boom())
        with pytest.raises(RuntimeError, match="no backend"):
            lib.relax(np.zeros((4, 4, 4)), np.zeros(4))
        assert lib.compile_failures == 1
        assert lib.specialization_count == 0


class TestParallelRuntime:
    def test_parallel_sweeps_with_library(self, lib):
        u = _random_periodic(8, 9)
        v = _random_periodic(8, 10)
        with ThreadTeam(3) as team:
            got = parallel_resid(u, v, A_COEFFS, team, lib)
            want = resid(u, v, A_COEFFS)
            np.testing.assert_allclose(
                got[1:-1, 1:-1, 1:-1], want[1:-1, 1:-1, 1:-1], **TOL
            )
            u1 = _random_periodic(8, 11)
            u2 = u1.copy()
            parallel_psinv(got, u1, S_COEFFS_A, team, lib)
            psinv(got, u2, S_COEFFS_A)
            np.testing.assert_allclose(
                u1[1:-1, 1:-1, 1:-1], u2[1:-1, 1:-1, 1:-1], **TOL
            )

    def test_bad_kernels_argument(self):
        with pytest.raises(ValueError, match="kernels"):
            ParallelMG(2, kernels="fortran")
        with pytest.raises(ValueError, match="kernels"):
            DistributedMG(2, kernels="fortran")

    def test_parallel_mg_sac_verifies(self):
        res = ParallelMG(2, kernels="sac").solve("S")
        assert res.verified

    def test_parallel_mg_sac_matches_numpy(self):
        sac = ParallelMG(2, kernels="sac").solve("S")
        ref = ParallelMG(2).solve("S")
        assert abs(sac.rnm2 - ref.rnm2) <= 1e-9 * abs(ref.rnm2)

    def test_distributed_mg_sac_verifies(self):
        solver = DistributedMG(2, kernels="sac")
        res = solver.solve("S")
        assert res.verified
        assert solver.kernel_library is not None
        # Both ranks shared one library; the handful of distributed slab
        # shapes were each compiled exactly once.
        assert solver.kernel_library.specialization_count >= 1
