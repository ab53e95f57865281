"""Cross-implementation equivalence tests (the repository's web of trust).

The three styles must produce the same benchmark result: F77 and C are
expression-order-identical (bit-equal); the SAC formulation uses a
different evaluation order, so it agrees to floating-point tolerance.
"""

import numpy as np
import pytest

from repro.baselines import CMG, IMPLEMENTATIONS, FortranMG, SacStyleMG
from repro.baselines.c_mg import (
    interp_add_planes,
    psinv_planes,
    resid_planes,
    rprj3_planes,
)
from repro.baselines.sac_style_mg import (
    coarse2fine,
    fine2coarse,
    resid_op,
    smooth,
    vcycle,
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
    solve,
)


def _random_periodic(m, seed=0):
    rng = np.random.default_rng(seed)
    u = make_grid(m)
    u[1:-1, 1:-1, 1:-1] = rng.standard_normal((m, m, m))
    return comm3(u)


class TestCKernelsBitExact:
    def test_resid(self):
        u = _random_periodic(8, 1)
        v = _random_periodic(8, 2)
        np.testing.assert_array_equal(
            resid_planes(u, v, A_COEFFS), resid(u, v, A_COEFFS)
        )

    def test_psinv(self):
        r = _random_periodic(8, 3)
        u1 = _random_periodic(8, 4)
        u2 = u1.copy()
        psinv_planes(r, u1, S_COEFFS_A)
        psinv(r, u2, S_COEFFS_A)
        np.testing.assert_array_equal(u1, u2)

    def test_rprj3(self):
        r = _random_periodic(8, 5)
        np.testing.assert_array_equal(rprj3_planes(r), rprj3(r))

    def test_interp(self):
        z = _random_periodic(4, 6)
        u1, u2 = make_grid(8), make_grid(8)
        interp_add_planes(z, u1)
        interp_add(z, u2)
        np.testing.assert_array_equal(u1, u2)


class TestSacOpsEquivalence:
    def test_resid_op_is_stencil_application(self):
        u = _random_periodic(8, 7)
        v = make_grid(8)
        got = v[1:-1, 1:-1, 1:-1] - resid_op(u)[1:-1, 1:-1, 1:-1]
        ref = resid(u, v)[1:-1, 1:-1, 1:-1]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-13)

    def test_smooth_matches_psinv_increment(self):
        r = _random_periodic(8, 8)
        u = make_grid(8)
        psinv(r, u, S_COEFFS_A)
        got = smooth(r)[1:-1, 1:-1, 1:-1]
        np.testing.assert_allclose(
            got, u[1:-1, 1:-1, 1:-1], rtol=1e-12, atol=1e-13
        )

    def test_fine2coarse_matches_rprj3(self):
        r = _random_periodic(8, 9)
        got = fine2coarse(r)
        ref = rprj3(r)
        np.testing.assert_allclose(
            got[1:-1, 1:-1, 1:-1], ref[1:-1, 1:-1, 1:-1],
            rtol=1e-12, atol=1e-13,
        )

    def test_coarse2fine_matches_interp(self):
        z = _random_periodic(4, 10)
        u = make_grid(8)
        interp_add(z, u)
        got = coarse2fine(z)
        np.testing.assert_allclose(
            got[1:-1, 1:-1, 1:-1], u[1:-1, 1:-1, 1:-1],
            rtol=1e-12, atol=1e-13,
        )

    def test_vcycle_termination_condition(self):
        # Extended size 4 (interior 2): single smoothing, no recursion.
        r = _random_periodic(2, 11)
        z = vcycle(r)
        np.testing.assert_allclose(
            z[1:-1, 1:-1, 1:-1], smooth(r)[1:-1, 1:-1, 1:-1], rtol=1e-13
        )


class TestFullRuns:
    def test_registry(self):
        assert set(IMPLEMENTATIONS) == {"f77", "c", "sac"}

    def test_f77_matches_core_exactly(self):
        a = FortranMG().solve("T")
        b = solve("T")
        assert a.rnm2 == b.rnm2
        np.testing.assert_array_equal(a.u, b.u)

    def test_c_bit_identical_to_f77(self):
        a = CMG().solve("T")
        b = FortranMG().solve("T")
        assert a.rnm2 == b.rnm2
        np.testing.assert_array_equal(a.u, b.u)

    def test_sac_agrees_to_tolerance(self):
        a = SacStyleMG().solve("T")
        b = FortranMG().solve("T")
        assert a.rnm2 == pytest.approx(b.rnm2, rel=1e-9)
        np.testing.assert_allclose(
            a.u[1:-1, 1:-1, 1:-1], b.u[1:-1, 1:-1, 1:-1],
            rtol=1e-9, atol=1e-12,
        )

    @pytest.mark.parametrize("name", ["f77", "c", "sac"])
    def test_class_s_verification(self, name):
        res = IMPLEMENTATIONS[name].solve("S")
        assert res.verified, (name, res.rnm2)

    def test_histories_match(self):
        hf = FortranMG().solve("T", keep_history=True).history
        hs = SacStyleMG().solve("T", keep_history=True).history
        assert len(hf) == len(hs)
        for a, b in zip(hf, hs):
            assert a == pytest.approx(b, rel=1e-9)

    def test_traces_have_same_stencil_structure(self):
        tf = FortranMG().solve("T", collect_trace=True).trace
        ts = SacStyleMG().solve("T", collect_trace=True).trace
        cf = tf.counts_by_kind()
        cs = ts.counts_by_kind()
        for kind in ("resid", "psinv", "rprj3", "interp"):
            assert cf[kind] == cs[kind], kind
