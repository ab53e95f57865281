"""Cross-implementation equivalence tests (the repository's web of trust).

The three styles must produce the same benchmark result: F77 and C are
expression-order-identical (bit-equal); the SAC program, compiled, uses
a different evaluation order, so it agrees to floating-point tolerance.
"""

from collections import Counter

import numpy as np
import pytest

from repro.baselines import CMG, IMPLEMENTATIONS, FortranMG
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
    norm2u3,
    psinv,
    resid,
    rprj3,
    get_class,
    solve,
    zran3,
)
from repro.core.mg import run
from repro.core.timers import SectionTimers
from repro.mg_sac import load_mg_program, solve_generated_mg, solve_sac_mg
from repro.sac import compile_function


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


def generated(name, *args):
    """``mg.sac``'s ``name`` as generated code, applied to ``args``."""
    return compile_function(load_mg_program(), name, args)(*args)


class TestSacOpsEquivalence:
    """The generated Fig. 6/7 operators against ``core``'s."""

    def test_resid_op_is_stencil_application(self):
        u = _random_periodic(8, 7)
        v = make_grid(8)
        got = v[1:-1, 1:-1, 1:-1] - generated("Resid", u)[1:-1, 1:-1, 1:-1]
        ref = resid(u, v)[1:-1, 1:-1, 1:-1]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-13)

    def test_smooth_matches_psinv_increment(self):
        r = _random_periodic(8, 8)
        u = make_grid(8)
        psinv(r, u, S_COEFFS_A)
        got = generated("Smooth", r)[1:-1, 1:-1, 1:-1]
        np.testing.assert_allclose(
            got, u[1:-1, 1:-1, 1:-1], rtol=1e-12, atol=1e-13
        )

    def test_fine2coarse_matches_rprj3(self):
        r = _random_periodic(8, 9)
        got = generated("Fine2Coarse", r)
        ref = rprj3(r)
        np.testing.assert_allclose(
            got[1:-1, 1:-1, 1:-1], ref[1:-1, 1:-1, 1:-1],
            rtol=1e-12, atol=1e-13,
        )

    def test_coarse2fine_matches_interp(self):
        z = _random_periodic(4, 10)
        u = make_grid(8)
        interp_add(z, u)
        got = generated("Coarse2Fine", z)
        np.testing.assert_allclose(
            got[1:-1, 1:-1, 1:-1], u[1:-1, 1:-1, 1:-1],
            rtol=1e-12, atol=1e-13,
        )

    def test_vcycle_termination_condition(self):
        # Extended size 4 (interior 2): single smoothing, no recursion.
        r = _random_periodic(2, 11)
        np.testing.assert_array_equal(generated("VCycle", r),
                                      generated("Smooth", r))


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
        a = IMPLEMENTATIONS["sac"].solve("T")
        b = FortranMG().solve("T")
        assert a.rnm2 == pytest.approx(b.rnm2, rel=1e-9)
        inner = (slice(1, -1),) * 3
        np.testing.assert_allclose(a.r[inner], b.r[inner],
                                   rtol=1e-9, atol=1e-12)
        # The generated module computes the interpreter's bits.
        assert a.rnm2.hex() == solve_sac_mg("T").rnm2.hex()

    @pytest.mark.parametrize("name", ["f77", "c", "sac"])
    def test_class_s_verification(self, name):
        res = IMPLEMENTATIONS[name].solve("S")
        assert res.verified, (name, res.rnm2)

    def test_histories_match(self):
        # The generated mg.sac reports no trajectory: its norm after k
        # iterations is the run with nit = k (k = 0: r = v).
        v = zran3(get_class("T").nx)
        hf = [norm2u3(v)[0]]
        run(FortranMG.kernels, "T", v=v,
            on_iteration=lambda it, rnm2: hf.append(rnm2))
        hs = [solve_generated_mg("T", k).rnm2 for k in range(len(hf))]
        for a, b in zip(hf, hs):
            assert a == pytest.approx(b, rel=1e-9)

    def test_traces_have_same_stencil_structure(self):
        # The generated module has one def per SAC function and grid
        # size: count each operator's calls through one solve.
        kinds = {"Resid": "resid", "Smooth": "psinv",
                 "Fine2Coarse": "rprj3", "Coarse2Fine": "interp"}
        sc = get_class("T")
        v = zran3(sc.nx)
        module = {}
        exec(compile_function(load_mg_program(), "FinalResidual",
                              (v, sc.nit)).source, module)
        calls = Counter()

        def counted(kind, fn):
            return lambda *args: calls.update([kind]) or fn(*args)

        for name, fn in list(module.items()):
            kind = kinds.get(name.split("__")[0])
            if kind is not None:
                module[name] = counted(kind, fn)
        module["FinalResidual"](v)  # nit is baked into the entry
        cf = SectionTimers()
        run(FortranMG.kernels, "T", v=v, monitor=cf)
        assert calls == cf.calls

    def test_sac_refuses_the_sb_classes(self):
        with pytest.raises(ValueError, match="S\\(a\\) smoother"):
            IMPLEMENTATIONS["sac"].solve("B")
