"""Tests for the V-cycle solver: kernels, invariants, NPB verification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    A_COEFFS,
    P_COEFFS,
    Q_COEFFS,
    S_COEFFS_A,
    comm3,
    get_class,
    interp_add,
    make_grid,
    norm2u3,
    psinv,
    relax_naive,
    resid,
    rprj3,
    solve,
    zran3,
)
from repro.core.mg import mg3P


def _random_periodic(m, seed=0):
    rng = np.random.default_rng(seed)
    u = make_grid(m)
    u[1:-1, 1:-1, 1:-1] = rng.standard_normal((m, m, m))
    return comm3(u)


class TestResid:
    def test_zero_solution_gives_rhs(self):
        v = _random_periodic(4, seed=1)
        u = make_grid(4)
        r = resid(u, v)
        np.testing.assert_array_equal(r[1:-1, 1:-1, 1:-1], v[1:-1, 1:-1, 1:-1])

    def test_matches_naive_stencil(self):
        u = _random_periodic(8, seed=2)
        v = _random_periodic(8, seed=3)
        r = resid(u, v)
        au = relax_naive(u, A_COEFFS)
        expect = v[1:-1, 1:-1, 1:-1] - au[1:-1, 1:-1, 1:-1]
        np.testing.assert_allclose(r[1:-1, 1:-1, 1:-1], expect, rtol=1e-12, atol=1e-13)

    def test_result_has_periodic_borders(self):
        u = _random_periodic(4, seed=4)
        v = _random_periodic(4, seed=5)
        r = resid(u, v)
        np.testing.assert_array_equal(r, comm3(r.copy()))

    def test_nonzero_a1_supported(self):
        u = _random_periodic(4, seed=6)
        v = make_grid(4)
        a = (1.0, 0.5, 0.25, 0.125)
        r = resid(u, v, a)
        au = relax_naive(u, a)
        np.testing.assert_allclose(
            r[1:-1, 1:-1, 1:-1], -au[1:-1, 1:-1, 1:-1], rtol=1e-12, atol=1e-13
        )


class TestPsinv:
    def test_matches_naive_stencil(self):
        r = _random_periodic(8, seed=7)
        u = _random_periodic(8, seed=8)
        u0 = u.copy()
        psinv(r, u, S_COEFFS_A)
        sr = relax_naive(r, S_COEFFS_A)
        expect = u0[1:-1, 1:-1, 1:-1] + sr[1:-1, 1:-1, 1:-1]
        np.testing.assert_allclose(u[1:-1, 1:-1, 1:-1], expect, rtol=1e-12, atol=1e-13)

    def test_in_place_and_periodic(self):
        r = _random_periodic(4, seed=9)
        u = make_grid(4)
        ret = psinv(r, u, S_COEFFS_A)
        assert ret is u
        np.testing.assert_array_equal(u, comm3(u.copy()))

    def test_smoother_reduces_residual(self):
        # One V-cycle smoothing application must shrink the residual of
        # the Poisson problem (that is its job).
        v = zran3(16)
        u = make_grid(16)
        r = resid(u, v)
        before = norm2u3(r)[0]
        psinv(r, u, S_COEFFS_A)
        after = norm2u3(resid(u, v))[0]
        assert after < before


class TestRprj3:
    def test_shapes(self):
        r = _random_periodic(8)
        s = rprj3(r)
        assert s.shape == (6, 6, 6)

    def test_rejects_odd_or_tiny(self):
        with pytest.raises(ValueError):
            rprj3(make_grid(2))

    def test_constant_preserved(self):
        # Full weighting sums to 1/2+6/4... = weights sum: 0.5+6*0.25+12*0.125+8*0.0625 = 4.
        # A constant field c maps to 4c? No: weights (1/2,1/4,1/8,1/16) sum
        # to 0.5+1.5+1.5+0.5 = 4.0; NPB's projection scales constants by 4.
        r = make_grid(8)
        r[...] = 1.0
        s = rprj3(r)
        np.testing.assert_allclose(s[1:-1, 1:-1, 1:-1], 4.0, rtol=1e-14)

    def test_matches_stencil_then_subsample(self):
        # rprj3 == (P-stencil relaxation at fine points) restricted to
        # even fine positions — the paper's Fine2Coarse formulation.
        r = _random_periodic(8, seed=11)
        s = rprj3(r)
        pr = relax_naive(r, P_COEFFS)
        comm3(pr)
        # Coarse interior jj -> fine 0-based index 2*jj.
        expect = pr[2:-1:2, 2:-1:2, 2:-1:2]
        np.testing.assert_allclose(
            s[1:-1, 1:-1, 1:-1], expect, rtol=1e-12, atol=1e-13
        )

    def test_result_periodic(self):
        s = rprj3(_random_periodic(8, seed=12))
        np.testing.assert_array_equal(s, comm3(s.copy()))


class TestInterp:
    def test_shapes_checked(self):
        with pytest.raises(ValueError):
            interp_add(make_grid(4), make_grid(4))

    def test_constant_preserved(self):
        # Trilinear interpolation of a constant is the same constant.
        z = make_grid(4)
        z[...] = 2.5
        u = make_grid(8)
        interp_add(z, u)
        np.testing.assert_allclose(u, 2.5, rtol=1e-14)

    def test_adds_into_existing(self):
        z = make_grid(4)
        z[...] = 1.0
        u = make_grid(8)
        u[...] = 10.0
        interp_add(z, u)
        np.testing.assert_allclose(u, 11.0, rtol=1e-14)

    def test_matches_scatter_then_stencil(self):
        # interp == Q-stencil relaxation of the zero-stuffed coarse grid —
        # the paper's Coarse2Fine formulation.  In extended coordinates the
        # scatter places coarse point j at fine position 2j.
        m = 4
        z = _random_periodic(m, seed=13)
        u = make_grid(2 * m)
        interp_add(z, u)

        scattered = make_grid(2 * m)
        scattered[::2, ::2, ::2] = z[:-1, :-1, :-1]
        q = relax_naive(scattered, Q_COEFFS)
        np.testing.assert_allclose(
            u[1:-1, 1:-1, 1:-1], q[1:-1, 1:-1, 1:-1], rtol=1e-12, atol=1e-13
        )

    def test_periodic_borders_come_out_right(self):
        z = _random_periodic(4, seed=14)
        u = make_grid(8)
        interp_add(z, u)
        np.testing.assert_array_equal(u, comm3(u.copy()))


class TestRoundTrips:
    @given(seed=st.integers(0, 2 ** 31))
    @settings(max_examples=15, deadline=None)
    def test_interp_then_project_scales_constants(self, seed):
        # P(Q(z)) preserves the constant component amplified by the known
        # factor: for constants, Q is identity and P scales by 4.
        z = make_grid(4)
        z[...] = 1.0
        u = make_grid(8)
        interp_add(z, u)
        s = rprj3(u)
        np.testing.assert_allclose(s[1:-1, 1:-1, 1:-1], 4.0, rtol=1e-13)


class TestSolve:
    def test_class_t_converges(self):
        v = zran3(get_class("T").nx)
        norms = []
        solve("T", v=v, on_iteration=lambda it, rnm2: norms.append(rnm2))
        initial = norm2u3(v)[0]  # r = v - A 0
        assert initial > norms[-1]
        # Multigrid gains a factor of a few per V-cycle; over the 4
        # iterations of class T that is well over two orders of magnitude.
        assert norms[-1] < initial * 5e-3

    def test_class_s_official_verification(self):
        res = solve("S")
        assert res.verified
        ref = get_class("S").verify_value
        assert abs(res.rnm2 - ref) / ref < 1e-10

    def test_trace_collected(self):
        # The operator calls a solve books on its monitor.
        from repro.core.timers import SectionTimers

        timers = SectionTimers()
        solve("T", monitor=timers)
        lt = get_class("T").lt
        nit = get_class("T").nit
        # Initial + per-iteration top-level + per-up-cycle-level resid.
        assert timers.calls["resid"] == 1 + nit * (1 + (lt - 1))
        assert timers.calls["rprj3"] == nit * (lt - 1)
        assert timers.calls["interp"] == nit * (lt - 1)

    def test_trace_matches_synthesized(self):
        # The order of a real solve's operator calls, recorded by a
        # table wrapped around the serial kernels.
        from dataclasses import replace

        from repro.core import synthesize_mg_trace
        from repro.core.mg import numpy_kernels, run

        seen = []

        def recorded(kind, fn, ghosts=True):
            def call(*args, **kwargs):
                out = fn(*args, **kwargs)
                level = (out.shape[1] - 2).bit_length() - 1
                seen.append((kind, level))
                if ghosts:
                    seen.append(("comm3", level))
                return out
            return call

        k = numpy_kernels()
        table = replace(k, resid=recorded("resid", k.resid),
                        psinv=recorded("psinv", k.psinv),
                        rprj3=recorded("rprj3", k.rprj3),
                        interp_add=recorded("interp", k.interp_add, False),
                        zeros=recorded("zero3", k.zeros, False))
        sc = get_class("T")
        run(table, sc)
        seen.append(("norm2u3", sc.lt))
        assert seen == synthesize_mg_trace(sc.nx, sc.nit)

    def test_custom_iteration_count(self):
        def norms(nit):
            seen = []
            res = solve("T", nit=nit,
                        on_iteration=lambda it, rnm2: seen.append((it, rnm2)))
            assert seen[-1][1] == res.rnm2
            return seen

        n2 = norms(2)
        assert [it for it, _ in n2] == [0, 1]  # one call per iteration
        # A run with fewer iterations matches the longer run's prefix.
        assert n2 == norms(4)[:2]

    def test_mg3p_reduces_residual_generic(self):
        sc = get_class("T")
        u = make_grid(sc.nx)
        v = zran3(sc.nx)
        r_levels = {sc.lt: resid(u, v)}
        before = norm2u3(r_levels[sc.lt])[0]
        mg3P(u, v, r_levels, A_COEFFS, S_COEFFS_A, sc.lt)
        r = resid(u, v)
        assert norm2u3(r)[0] < before / 5
