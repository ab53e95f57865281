"""End-to-end tests of the SAC-language MG program."""

import numpy as np
import pytest

from repro.baselines import FortranMG
from repro.core import comm3, make_grid, relax_naive, rprj3
from repro.core.stencils import A_COEFFS, P_COEFFS, S_COEFFS_A
from repro.mg_sac import load_mg_program, mg_source_path, solve_sac_mg


@pytest.fixture(scope="module")
def prog():
    return load_mg_program(True, True)


def _random_periodic(m, seed=0):
    rng = np.random.default_rng(seed)
    u = make_grid(m)
    u[1:-1, 1:-1, 1:-1] = rng.standard_normal((m, m, m))
    return comm3(u)


def test_one_program_per_configuration_however_spelled():
    # Three SacPrograms and three interpreters for one configuration
    # when the memo was keyed on how the call was written.
    default = load_mg_program()
    assert load_mg_program(True, True) is default
    assert load_mg_program(optimize=True) is default
    assert load_mg_program(True, True, (), True) is default
    assert load_mg_program(analyze=False) is not default


class TestPieces:
    def test_setup_periodic_border_matches_comm3(self, prog):
        rng = np.random.default_rng(1)
        a = make_grid(4)
        a[1:-1, 1:-1, 1:-1] = rng.standard_normal((4, 4, 4))
        got = prog.call("SetupPeriodicBorder", a)
        np.testing.assert_array_equal(got, comm3(a.copy()))

    def test_relax_kernel_matches_naive(self, prog):
        u = _random_periodic(4, 2)
        got = prog.call("RelaxKernel", u, np.asarray(S_COEFFS_A))
        ref = relax_naive(u, S_COEFFS_A)
        np.testing.assert_allclose(
            got[1:-1, 1:-1, 1:-1], ref[1:-1, 1:-1, 1:-1],
            rtol=1e-12, atol=1e-14,
        )
        # Boundary kept (modarray semantics).
        np.testing.assert_array_equal(got[0], u[0])

    def test_resid_is_stencil_application(self, prog):
        u = _random_periodic(4, 3)
        got = prog.call("Resid", u)
        ref = relax_naive(comm3(u.copy()), A_COEFFS)
        np.testing.assert_allclose(
            got[1:-1, 1:-1, 1:-1], ref[1:-1, 1:-1, 1:-1],
            rtol=1e-12, atol=1e-14,
        )

    def test_fine2coarse_matches_rprj3(self, prog):
        r = _random_periodic(8, 4)
        got = prog.call("Fine2Coarse", r)
        ref = rprj3(r)
        np.testing.assert_allclose(
            got[1:-1, 1:-1, 1:-1], ref[1:-1, 1:-1, 1:-1],
            rtol=1e-12, atol=1e-13,
        )

    def test_coarse2fine_matches_interp(self, prog):
        from repro.core import interp_add

        z = _random_periodic(4, 5)
        u = make_grid(8)
        interp_add(z, u)
        got = prog.call("Coarse2Fine", z)
        np.testing.assert_allclose(
            got[1:-1, 1:-1, 1:-1], u[1:-1, 1:-1, 1:-1],
            rtol=1e-12, atol=1e-13,
        )

    def test_interior(self, prog):
        a = _random_periodic(4, 6)
        np.testing.assert_array_equal(
            prog.call("Interior", a), a[1:-1, 1:-1, 1:-1]
        )

    def test_unit_vector(self, prog):
        np.testing.assert_array_equal(prog.call("unit", 1, 3), [0, 1, 0])

    def test_coefficients(self, prog):
        np.testing.assert_allclose(prog.call("CoeffA"), A_COEFFS, rtol=1e-15)
        np.testing.assert_allclose(prog.call("CoeffP"), P_COEFFS, rtol=1e-15)


class TestVCycle:
    def test_vcycle_base_case_is_smooth(self, prog):
        r = _random_periodic(2, 7)
        got = prog.call("VCycle", r)
        ref = prog.call("Smooth", r)
        np.testing.assert_array_equal(got, ref)

    def test_mgrid_reduces_residual(self, prog):
        from repro.core import norm2u3, zran3

        v = zran3(8)
        r = prog.call("FinalResidual", v, 2)
        assert norm2u3(r)[0] < norm2u3(v)[0]


class TestEndToEnd:
    def test_class_t_matches_fortran_port(self):
        sac = solve_sac_mg("T")
        f77 = FortranMG().solve("T")
        assert sac.rnm2 == pytest.approx(f77.rnm2, rel=1e-9)

    def test_class_s_official_verification(self):
        res = solve_sac_mg("S")
        assert res.verified  # to NPB's 1e-8

    def test_verified_is_npbs_rule(self):
        from repro.core import get_class
        from repro.core.mg import MGResult
        from repro.mg_sac import SacMGResult

        s = get_class("S")
        for rel, ok in ((0.0, True), (5e-9, True), (2e-8, False),
                        (5e-7, False)):
            rnm2 = s.verify_value * (1 + rel)
            assert SacMGResult(s, rnm2, None).verified is ok
            assert MGResult(s, rnm2, 0.0, None, None).verified is ok
        assert SacMGResult(get_class("T"), 1e-5, None).verified is False

    def test_unoptimized_matches(self):
        a = solve_sac_mg("T", nit=2, optimize=False)
        b = solve_sac_mg("T", nit=2, optimize=True)
        assert a.rnm2 == pytest.approx(b.rnm2, rel=1e-10)

    def test_source_file_exists(self):
        assert mg_source_path().exists()
        text = mg_source_path().read_text()
        assert "VCycle" in text and "MGrid" in text

    def test_class_b_smoother_rejected(self):
        with pytest.raises(ValueError):
            solve_sac_mg("B")


class TestClassW:
    """The SAC program above class S: one specialization per (function,
    grid size), so the paper's sizes cost what class S does to compile."""

    @pytest.fixture(scope="class")
    def w(self, prog):
        from repro.core import zran3
        from repro.sac.codegen import compile_function

        v = zran3(64)
        given = v.copy()
        fn = compile_function(prog, "FinalResidual", (v, 40))
        r = fn(v, 40)
        # Whatever its callees are donated, the entry point's argument
        # is its caller's (a class-scoped fixture runs before conftest's
        # per-test oracle is in place, which checks the same).
        assert v.tobytes() == given.tobytes()
        interior = r[1:-1, 1:-1, 1:-1]
        return v, fn, float(np.sqrt(np.mean(interior * interior)))

    def test_generated_module_is_per_level_not_per_iteration(self, w):
        _v, fn, _rnm2 = w
        assert len(fn.source.splitlines()) < 2000
        # 54 specializations: 32 only as their donated variant, 11 only
        # undonated, 11 as both.
        assert fn.source.count("\ndef ") < 70

    def test_trip_count_is_one_literal(self, prog, w):
        import re

        from repro.sac.codegen import compile_function

        v, fn40, _rnm2 = w
        fn4 = compile_function(prog, "FinalResidual", (v, 4))
        assert fn40.source != fn4.source
        # A flat window's bounds may read 40 too; they are not the count.
        assert re.sub(r"(?<![\[:])\b40\b(?![:\]])", "4",
                      fn40.source) == fn4.source
        loop_calls = [ln for ln in fn40.source.splitlines()
                      if "MGrid_loop" in ln and ", 40)" in ln]
        assert len(loop_calls) == 1

    def test_one_iteration_has_the_interpreters_bytes(self, prog, w):
        from repro.sac.codegen import compile_function

        v = w[0]
        fn = compile_function(prog, "FinalResidual", (v, 1))
        assert fn(v, 1).tobytes() == \
            prog.call("FinalResidual", v, 1).tobytes()

    def test_residual_is_pinned_to_its_bits(self, w):
        assert w[2].hex() == 3.061614348938882e-18.hex()

    def test_trajectory_tracks_core_mg_within_npb_epsilon(self, prog, w):
        """Fig. 4's program rounds differently from ``mg.f`` before any
        pass runs, so after 40 iterations (rounding noise, pinned above)
        it cannot meet NPB's constant; what it can and must do is track
        ``core.mg`` within NPB's 1e-8 while the residual is still above
        the rounding floor (measured 4.2e-16 at ``nit`` 1 … 9.1e-9 at 20,
        with the partial sums shared as ``mg.f`` shares them)."""
        from repro.core import solve
        from repro.sac.codegen import compile_function

        v = w[0]
        history = solve("W", 20, v=v, keep_history=True).history
        for nit in (1, 4, 8, 12, 16, 20):
            r = compile_function(prog, "FinalResidual", (v, nit))(v, nit)
            interior = r[1:-1, 1:-1, 1:-1]
            rnm2 = float(np.sqrt(np.mean(interior * interior)))
            assert abs(rnm2 - history[nit]) / history[nit] <= 1e-8, nit


#: What WITH-loop folding must make of Figs. 6-7's grid-transfer
#: operators, written out by hand: ``condense``/``embed`` and
#: ``scatter``/``take`` folded into the relaxation, which then runs on
#: the coarse grid only, resp. on no zero of the scattered array.
#: ``mg.sac`` itself keeps the paper's text.
HAND_FOLDED = """
double[+] Fine2CoarseFolded( double[+] r)
{
  rs = SetupPeriodicBorder( r);
  n2 = shape(rs) / 2;
  t  = with (0*n2 <= iv < n2)
       genarray( n2+1, rs[2*iv]);
  rn = with (0*n2+1 <= iv < n2)
       modarray( t, StencilSum( rs, 2*iv, CoeffP()));
  return( rn);
}

double[+] Coarse2FineFolded( double[+] rn)
{
  rp = SetupPeriodicBorder( rn);
  m  = 2*shape(rp) - 2;
  r = with (. <= iv <= . step 2)
      genarray( m, rp[iv/2]);
  r = with (0*m + [2,2,2] <= iv < m-1 step 2)
      modarray( r, 1.0 * rp[iv/2]);
  r = with (0*m + [2,2,1] <= iv < m-1 step 2)
      modarray( r, 0.5 * (rp[(iv+[0,0,-1])/2] + rp[(iv+[0,0,1])/2]));
  r = with (0*m + [2,1,2] <= iv < m-1 step 2)
      modarray( r, 0.5 * (rp[(iv+[0,-1,0])/2] + rp[(iv+[0,1,0])/2]));
  r = with (0*m + [2,1,1] <= iv < m-1 step 2)
      modarray( r, 0.25 * (rp[(iv+[0,-1,-1])/2] + rp[(iv+[0,-1,1])/2]
                         + rp[(iv+[0,1,-1])/2] + rp[(iv+[0,1,1])/2]));
  r = with (0*m + [1,2,2] <= iv < m-1 step 2)
      modarray( r, 0.5 * (rp[(iv+[-1,0,0])/2] + rp[(iv+[1,0,0])/2]));
  r = with (0*m + [1,2,1] <= iv < m-1 step 2)
      modarray( r, 0.25 * (rp[(iv+[-1,0,-1])/2] + rp[(iv+[-1,0,1])/2]
                         + rp[(iv+[1,0,-1])/2] + rp[(iv+[1,0,1])/2]));
  r = with (0*m + [1,1,2] <= iv < m-1 step 2)
      modarray( r, 0.25 * (rp[(iv+[-1,-1,0])/2] + rp[(iv+[-1,1,0])/2]
                         + rp[(iv+[1,-1,0])/2] + rp[(iv+[1,1,0])/2]));
  r = with (0*m + [1,1,1] <= iv < m-1 step 2)
      modarray( r, 0.125 * (rp[(iv+[-1,-1,-1])/2] + rp[(iv+[-1,-1,1])/2]
                          + rp[(iv+[-1,1,-1])/2] + rp[(iv+[-1,1,1])/2]
                          + rp[(iv+[1,-1,-1])/2] + rp[(iv+[1,-1,1])/2]
                          + rp[(iv+[1,1,-1])/2] + rp[(iv+[1,1,1])/2]));
  return( r);
}
"""


class TestTransferOperatorsAreFolded:
    """The optimized ``Fine2Coarse``/``Coarse2Fine`` against the
    hand-folded text: the same bits, and the structure that saves the
    8x."""

    @pytest.fixture(scope="class")
    def both(self):
        from repro.sac import CompileOptions, SacProgram

        return SacProgram.from_source(
            mg_source_path().read_text() + HAND_FOLDED, "mg+folded.sac",
            CompileOptions(analyze=True))

    @pytest.mark.parametrize("n", [34, 18, 10, 6, 4])
    @pytest.mark.parametrize("name", ["Fine2Coarse", "Coarse2Fine"])
    def test_same_bits_as_the_hand_folded_text(self, both, name, n):
        from repro.sac.codegen import compile_function

        # Random everywhere, borders included.
        x = np.random.default_rng(n).standard_normal((n, n, n))
        want = both.call(name + "Folded", x)
        assert both.call(name, x).tobytes() == want.tobytes()
        for fn in (name, name + "Folded"):
            assert compile_function(both, fn, (x,))(x).tobytes() \
                == want.tobytes()

    def test_the_source_program_keeps_the_papers_figures(self):
        # Library calls, no stepped WITH-loop of its own: the folded
        # form is the optimizer's work.
        text = mg_source_path().read_text()
        assert "rc = condense( 2, rr);" in text
        assert "rs = scatter( 2, rp);" in text
        assert "step" not in text

    def _def(self, prog, name, n):
        from repro.sac.codegen import trace_module

        return trace_module(prog, name, (np.zeros((n, n, n)),))[1]

    def test_restriction_relaxes_on_the_coarse_grid_only(self, prog):
        entry = self._def(prog, "Fine2Coarse", 34)
        shapes = {ins.shape for ins in entry.instrs
                  if ins.kind == "elementwise"}
        assert shapes == {(16, 16, 16)}
        # The relaxation no longer has a frame of its own to copy.
        assert ".copy()" not in entry.text

    def test_transfers_keep_their_3d_windows(self, prog):
        # Stride-2 windows (restriction) and stride-2 stores
        # (prolongation) are not lowered to flat ranges.
        for name, n in (("Fine2Coarse", 34), ("Coarse2Fine", 18)):
            text = self._def(prog, name, n).text
            assert "reshape(-1)" not in text and "np.ndarray(" not in text
        assert "_t1[1:32:2, 1:32:2, 1:32:2]" in self._def(
            prog, "Fine2Coarse", 34).text

    def test_relaxations_run_over_one_flat_range(self, prog):
        for name, result in (("Resid", "_t21"), ("Smooth", "_t13")):
            text = self._def(prog, name, 34).text
            assert text.count(".reshape(-1)") == 1
            # The partial sums are 1-D temporaries over [k0-1, k1+1),
            # read at x-1, x and x+1 over [k0, k1); the strides of the
            # store are those of the 34^3 frame.
            assert "= _t4[0:36922]" in text and "= _t4[2:36924]" in text
            assert text.count("[0:32, 0:32, 0:32]") == 0
            assert f"np.ndarray((32, 32, 32), np.float64, {result}, 0, " \
                   "(9248, 272, 8))" in text

    def test_prolongation_never_touches_a_zero(self, prog):
        entry = self._def(prog, "Coarse2Fine", 18)
        assert "np.zeros((36, 36, 36)" not in entry.text
        assert "np.zeros((34, 34, 34)" in entry.text
        assert "0.0 *" not in entry.text
        # The injection and the eight residue classes, one store each.
        assert sum(ins.kind == "store" for ins in entry.instrs) == 9
        assert {ins.shape for ins in entry.instrs
                if ins.kind == "elementwise"} == {(16, 16, 16)}

    def test_prolongation_has_no_unit_product(self, prog):
        # ``1.0 * x`` is x in IEEE 754: the injected points are stored
        # as read, one whole-range pass fewer, and the bytes are those
        # the product gave.
        import hashlib

        from repro.sac.codegen import compile_function

        x = np.random.default_rng(18).standard_normal((18, 18, 18))
        fn = compile_function(prog, "Coarse2Fine", (x,))
        assert "1.0 *" not in fn.source
        assert hashlib.sha256(fn(x).tobytes()).hexdigest() == (
            "4c13d35d01ee31d17be8d7467ec061a8"
            "85d0f6fe47e0658d3b9395d6ae3ec9e9")

    def test_element_operations_per_solve(self, prog):
        # A count, not a timing: the array elements one class-S solve
        # computes, per SAC operator (scripts/generated_lines.py prints
        # the same for CI).  Before the fold both transfer operators
        # stood at 4 492 800.
        from repro.core import zran3
        from repro.sac.codegen import element_operations, trace_module

        traced = trace_module(prog, "FinalResidual", (zran3(32), 4))
        ops = element_operations(*traced)
        # The relaxations run over flat ranges that span the ghost rows
        # and columns between interior ones, and share their partial
        # sums (8 199 822 and 3 611 832 before they did).
        assert ops["Resid"] == 4_991_448 and ops["Smooth"] == 2_580_000
        assert ops["Fine2Coarse"] == 561_600
        assert ops["Coarse2Fine"] == 486_720
        assert sum(ops.values()) <= 10_000_000
        # ... and copies: the 36 frames an argument read again costs
        # (2 911 936 elements while every SetupAxis and every
        # relaxation copied its frame: 260 of them).
        assert +element_operations(*traced, "copy") == {"SetupAxis": 528_032}
        assert 528_032 == 4 * (34 ** 3 * 3 + 18 ** 3 * 2 + 10 ** 3 * 2
                               + 6 ** 3 * 2)
