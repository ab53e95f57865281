"""Tests for the shape-specializing codegen backend."""

import numpy as np
import pytest

from repro.sac import CompileOptions, SacProgram
from repro.sac.codegen import CodegenUnsupported, compile_function
from repro.sac.errors import SacRuntimeError


def compile_and_check(src, fname, *args, options=None):
    """Compile; result must equal the interpreter's bit for bit."""
    prog = SacProgram.from_source(src, options=options)
    fn = compile_function(prog, fname, args)
    got = fn(*args)
    want = prog.call(fname, *args)
    if isinstance(want, np.ndarray):
        np.testing.assert_array_equal(got, want)
    else:
        assert got == want
    return fn


class TestBasics:
    def test_scalar_arithmetic_baked(self):
        fn = compile_and_check("int f(int x) { return x * 2 + 1; }", "f", 5)
        assert fn.baked == {"x": 5}

    def test_elementwise(self):
        a = np.arange(6.0).reshape(2, 3)
        compile_and_check(
            "double[+] f(double[+] a) { return 2.0 * a - 1.0; }", "f", a
        )

    def test_genarray_identity(self):
        a = np.arange(8.0)
        compile_and_check(
            "double[+] f(double[+] a) { return with (. <= iv <= .) "
            "genarray(shape(a), a[iv]); }",
            "f", a,
        )

    def test_strided_and_shifted(self):
        a = np.arange(16.0)
        compile_and_check(
            "double[+] f(double[+] a) { return with (. <= iv <= .) "
            "genarray(shape(a) / 2, a[2 * iv + 1]); }",
            "f", a,
        )

    def test_step_generator(self):
        a = np.arange(4.0)
        compile_and_check(
            "double[+] f(double[+] a) { return with (. <= iv <= . step 2) "
            "genarray(2 * shape(a), a[iv / 2]); }",
            "f", a,
        )

    def test_modarray(self):
        a = np.zeros((5, 5))
        compile_and_check(
            "double[+] f(double[+] a) { return with (1 <= iv < 4) "
            "modarray(a, 7.0); }",
            "f", a,
        )

    def test_fold_sum(self):
        a = np.arange(10.0)
        compile_and_check(
            "double f(double[+] a) { return with (0*shape(a) <= iv < "
            "shape(a)) fold(+, 0.0, a[iv] * a[iv]); }",
            "f", a,
        )

    def test_fold_max(self):
        a = np.array([3.0, 9.0, 1.0])
        compile_and_check(
            "double f(double[.] a) { return with ([0] <= i < shape(a)) "
            "fold(max, a[[0]], a[i]); }",
            "f", a,
        )

    def test_control_flow_unrolled(self):
        src = ("double f(double[.] a, int n) { s = 0.0; "
               "for (i = 0; i < n; i += 1) { s = s + a[[i]]; } return s; }")
        fn = compile_and_check(src, "f", np.arange(4.0), 3)
        # The loop unrolled: no Python 'for' in the generated body.
        assert "for " not in fn.source.split("def f")[1]

    def test_counted_loop_is_rolled(self):
        # Nothing in the body can tell one trip from another: one loop
        # body, called from a Python ``for``, however many trips.
        src = ("double f(double[.] a) { s = 0.0; "
               "for (i = 0; i < 500; i += 1) { s = s + a[[0]]; } return s; }")
        fn = compile_and_check(src, "f", np.array([0.1]))
        assert len(fn.source.split("def f_loop")[1].splitlines()) < 25
        assert "for _ in range(_n):" in fn.source
        # The first trip turns the baked 0.0 into a traced value; the
        # other 499 are one call.
        body = fn.source.split("def f(a):")[1]
        assert "f_loop__1(a, 1)" in body
        assert "f_loop__s_1(_t1, a, 499)" in body

    def test_counted_while_is_rolled(self):
        src = ("double[.] f(double[.] a, int n) { b = a; k = 0; "
               "while (k < n) { b = b + a; k = k + 1; } return b; }")
        fn = compile_and_check(src, "f", np.arange(3.0), 7)
        assert "_t1 = f_loop__3_3(a, a, 7)" in fn.source
        assert "(b + a)" in fn.source and "out=b" not in fn.source

    def test_recursion_inlined(self):
        src = (
            "double total(double[+] a) {\n"
            "  if (shape(a)[[0]] > 1) {\n"
            "    h = with (. <= iv <= .) genarray(shape(a)/2, "
            "a[2*iv] + a[2*iv+1]);\n"
            "    return total(h);\n"
            "  }\n"
            "  return a[[0]];\n"
            "}"
        )
        a = np.arange(8.0)
        fn = compile_and_check(src, "total", a)
        # One specialization per halved shape, each calling the next.
        defs = [ln for ln in fn.source.splitlines() if ln.startswith("def ")]
        assert [d.split("(")[0] for d in defs[-4:]] == [
            "def total__1", "def total__2", "def total__4", "def total"]
        assert "= total__4(_t" in fn.source.split("def total(a)")[1]

    def test_int_division_semantics(self):
        src = "int[.] f(int[.] a, int b) { return a / b; }"
        prog = SacProgram.from_source(src)
        a = np.array([-7, 7, -8])
        fn = compile_function(prog, "f", (a, 2))
        np.testing.assert_array_equal(fn(a, 2), [-3, 3, -4])


class TestSpecializationContract:
    def test_wrong_shape_is_new_specialization(self):
        prog = SacProgram.from_source(
            "double f(double[+] a) { return sum(a); }"
        )
        fn = compile_function(prog, "f", (np.zeros(4),))
        # Arrays stay symbolic — any values of the shape compiled for;
        # the documented contract is one compilation per shape.
        fn4 = fn(np.arange(4.0))
        assert fn4 == 6.0
        with pytest.raises(ValueError, match="recompile"):
            fn(np.arange(5.0))

    RELAX = ("double[+] f(double[+] u) { return with (0*shape(u)+1 <= iv < "
             "shape(u)-1) modarray(u, u[iv-1] + u[iv+1]); }")

    def test_array_shape_validated(self):
        # The slices are the compiled shape's: a larger array used to
        # come back with only that much of it computed, silently.
        fn = compile_function(SacProgram.from_source(self.RELAX), "f",
                              (np.zeros((10, 10, 10)),))
        assert fn.arrays == {"u": ((10, 10, 10), np.dtype(np.float64))}
        with pytest.raises(ValueError, match=(
                r"'u' was specialized to float64\[10,10,10\]; "
                r"recompile for float64\[12,12,12\]")):
            fn(np.zeros((12, 12, 12)))

    def test_array_dtype_validated(self):
        fn = compile_function(SacProgram.from_source(self.RELAX), "f",
                              (np.zeros((10, 10, 10)),))
        with pytest.raises(ValueError, match=(
                r"specialized to float64\[10,10,10\]; "
                r"recompile for float32\[10,10,10\]")):
            fn(np.zeros((10, 10, 10), dtype=np.float32))
        with pytest.raises(ValueError, match="recompile for None"):
            fn([[0.0]])

    def test_cached_artifact_still_validates(self, tmp_path):
        # The check travels with the pickled artifact, not the trace.
        from repro.sac.codegen import load_artifact
        from repro.sac.driver import KernelCache
        from repro.sac.driver.cache import kernel_key, shape_signature

        a = np.zeros((10, 10, 10))
        prog = SacProgram.from_source(self.RELAX)
        key = kernel_key("digest", "f(double[+])", shape_signature([a]))
        KernelCache(tmp_path).put_kernel(
            key, compile_function(prog, "f", (a,)).artifact)
        # (conftest keeps get_kernel from serving anything here.)
        fn = load_artifact(KernelCache(tmp_path).get_artifact(key))
        assert fn(a).tobytes() == prog.call("f", a).tobytes()
        with pytest.raises(ValueError, match="recompile"):
            fn(np.zeros((12, 12, 12)))
        with pytest.raises(ValueError, match="recompile"):
            fn(a.astype(np.float32))

    TWICE = ("double[+] twice(double[+] a) { return with (. <= iv <= .) "
             "modarray(a, 2.0 * a[iv]); }")

    @pytest.mark.parametrize("shapes", [((8,), (8,)), ((4,), (6,), (2, 3))],
                             ids=["repeated-calls", "one-per-shape"])
    def test_specializations_of_one_program(self, shapes):
        # Calling a specialization again changes nothing, and compiling
        # another shape leaves the first one working.
        prog = SacProgram.from_source(self.TWICE)
        fns = [compile_function(prog, "twice", (np.zeros(shape),))
               for shape in shapes]
        for _ in range(3):
            for shape, fn in zip(shapes, fns):
                a = np.arange(float(np.prod(shape))).reshape(shape)
                assert fn.arrays == {"a": (shape, np.dtype(np.float64))}
                assert fn(a).tobytes() == prog.call("twice", a).tobytes()

    def test_baked_int_validated(self):
        prog = SacProgram.from_source(
            "double f(double[.] a, int k) { return a[[k]]; }"
        )
        fn = compile_function(prog, "f", (np.arange(4.0), 2))
        assert fn(np.arange(4.0), 2) == 2.0
        with pytest.raises(ValueError, match="specialized"):
            fn(np.arange(4.0), 3)

    def test_wrong_arity(self):
        prog = SacProgram.from_source("int f(int x) { return x; }")
        fn = compile_function(prog, "f", (1,))
        with pytest.raises(TypeError):
            fn(1, 2)

    def test_source_is_standalone(self):
        prog = SacProgram.from_source(
            "double[+] f(double[+] a) { return a + a; }"
        )
        fn = compile_function(prog, "f", (np.ones(3),))
        ns: dict = {}
        exec(fn.source, ns)  # no imports beyond numpy
        np.testing.assert_array_equal(ns["f"](np.ones(3)), 2 * np.ones(3))


class TestUnsupported:
    def test_data_dependent_branch(self):
        src = ("double f(double[.] a) { if (a[[0]] > 0.0) { return 1.0; } "
               "return 0.0; }")
        prog = SacProgram.from_source(src)
        with pytest.raises(CodegenUnsupported):
            compile_function(prog, "f", (np.ones(3),))

    def test_width_filters(self):
        src = ("double[+] f(double[.] a) { return with "
               "([0] <= iv < [6] step 3 width 2) genarray([6], 1.0); }")
        prog = SacProgram.from_source(src)
        with pytest.raises(CodegenUnsupported):
            compile_function(prog, "f", (np.zeros(6),))

    def test_out_of_bounds_at_compile_time(self):
        src = ("double[+] f(double[.] a) { return with (. <= iv <= .) "
               "genarray(shape(a), a[iv + 1]); }")
        prog = SacProgram.from_source(src)
        with pytest.raises(SacRuntimeError):
            compile_function(prog, "f", (np.zeros(4),))

    def test_statement_budget(self):
        # The counter is an index, so the 500 trips must unroll.
        src = ("double f(double[.] a) { s = 0.0; "
               "for (i = 0; i < 500; i += 1) { s = s + a[[i]]; } return s; }")
        prog = SacProgram.from_source(src)
        with pytest.raises(CodegenUnsupported, match="statement budget"):
            compile_function(prog, "f", (np.ones(500),), max_statements=100)

    def test_statement_budget_bounds_the_module_not_one_def(self):
        # 4 x 15 instructions in the specializations of g, 7 in f: no
        # single def is over 30, the module is.
        src = (
            "double[.] g(double[.] a, int k) { for (i = 0; i < 5; i += 1) "
            "{ a = a + tod(i) * a[[k]]; } return a; }\n"
            "double[.] f(double[.] a) { return g(a, 0) + g(a, 1) + g(a, 2) "
            "+ g(a, 3); }")
        prog = SacProgram.from_source(
            src, options=CompileOptions(optimize=False))
        compile_function(prog, "f", (np.ones(4),), max_statements=70)
        with pytest.raises(CodegenUnsupported, match="statement budget"):
            compile_function(prog, "f", (np.ones(4),), max_statements=30)


OWNERSHIP = """
double[+] id(double[+] a) { return a; }
double[.] row(double[+] m) { return m[[0]]; }
double[+] fresh(double[+] a) { return a + 1.0; }
double[+] twice(double[+] a) { return id(a) + id(a); }
double[.] rows(double[+] m) { return row(m) + row(m); }
double[+] framed(double[+] a) {
    lo = id(a);
    hi = with ([1] <= iv < shape(lo) - 1) modarray(lo, lo[iv] * 2.0);
    return hi;
}
double[.] framed_row(double[+] m) {
    lo = row(m);
    hi = with ([1] <= iv < shape(lo) - 1) modarray(lo, lo[iv] * 2.0);
    return hi;
}
double[+] framed_fresh(double[+] a) {
    lo = fresh(a);
    hi = with ([1] <= iv < shape(lo) - 1) modarray(lo, lo[iv] * 2.0);
    return hi;
}
"""


class TestCallResultOwnership:
    """A call result is the caller's to write into only when the callee
    allocated it; one that is the argument, or a view of it, is not."""

    @pytest.fixture(scope="class")
    def prog(self):
        from repro.sac.parser import parse_program

        # Unoptimized: the calls stay calls.
        return parse_program(OWNERSHIP)

    @pytest.mark.parametrize("fname, arg", [
        ("twice", np.arange(4.0)),
        ("rows", np.arange(8.0).reshape(2, 4)),
        ("framed", np.arange(4.0)),
        ("framed_row", np.arange(8.0).reshape(2, 4)),
    ])
    def test_pass_through_result_is_never_written(self, prog, fname, arg):
        fn = compile_function(prog, fname, (arg,))
        entry = fn.source.split(f"def {fname}(")[1]
        assert "id__" in entry or "row__" in entry  # still a call
        assert "out=_t1" not in entry
        snapshot = arg.copy()
        result = fn(arg)
        assert np.array_equal(arg, snapshot)
        assert not np.shares_memory(result, arg)
        if fname.startswith("framed"):
            assert entry.count(".copy()") == 1

    def test_fresh_result_is_the_callers(self, prog):
        a = np.arange(4.0)
        fn = compile_function(prog, "framed_fresh", (a,))
        entry = fn.source.split("def framed_fresh(")[1]
        assert "_t1 = fresh__4(a)" in entry and ".copy()" not in entry
        assert "_t1[1:3] = " in entry
        fn(a)
        assert np.array_equal(a, np.arange(4.0))


class TestMGCompiled:
    def test_relax_kernel(self):
        from repro.core import comm3, make_grid, relax_naive
        from repro.core.stencils import S_COEFFS_A
        from repro.mg_sac import load_mg_program

        rng = np.random.default_rng(3)
        u = make_grid(8)
        u[1:-1, 1:-1, 1:-1] = rng.standard_normal((8, 8, 8))
        comm3(u)
        c = np.asarray(S_COEFFS_A)
        prog = load_mg_program(True, True)
        fn = compile_function(prog, "RelaxKernel", (u, c))
        got = fn(u, c)
        want = relax_naive(u, S_COEFFS_A)
        np.testing.assert_allclose(
            got[1:-1, 1:-1, 1:-1], want[1:-1, 1:-1, 1:-1],
            rtol=1e-12, atol=1e-14,
        )

    def test_full_mg_class_t_bit_equal_to_interpreter(self):
        from repro.core import zran3
        from repro.mg_sac import load_mg_program

        prog = load_mg_program(True, True)
        v = zran3(16)
        fn = compile_function(prog, "FinalResidual", (v, 2))
        got = fn(v, 2)
        want = prog.call("FinalResidual", v, 2)
        np.testing.assert_array_equal(got, want)

    def test_full_mg_class_s_verifies(self):
        from repro.core import get_class, zran3
        from repro.mg_sac import load_mg_program

        sc = get_class("S")
        prog = load_mg_program(True, True)
        v = zran3(sc.nx)
        fn = compile_function(prog, "FinalResidual", (v, sc.nit))
        r = fn(v, sc.nit)
        rnm2 = float(np.sqrt(np.mean(r[1:-1, 1:-1, 1:-1] ** 2)))
        ref = sc.verify_value
        assert abs(rnm2 - ref) / ref < 1e-6


class TestPlannedFinalResidual:
    """What buffer planning must not cost the class-S kernel: purity,
    reentrancy, the interpreter's bytes, and the memory it was for."""

    @pytest.fixture(scope="class")
    def mg(self):
        from repro.core import zran3
        from repro.mg_sac import load_mg_program

        prog = load_mg_program(True, True)
        v = zran3(32)
        return prog, v, compile_function(prog, "FinalResidual", (v, 4))

    def test_argument_untouched_and_results_unshared(self, mg):
        _prog, v, fn = mg
        snapshot = v.copy()
        first, second = fn(v, 4), fn(v, 4)
        assert np.array_equal(v, snapshot)
        assert not np.shares_memory(first, v)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == second.tobytes()

    def test_one_specialization_called_from_four_threads(self, mg):
        from concurrent.futures import ThreadPoolExecutor

        _prog, v, fn = mg
        want = fn(v, 4).tobytes()
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(fn, v, 4) for _ in range(8)]
            assert all(f.result(timeout=60).tobytes() == want
                       for f in futures)

    def test_intermediates_are_freed_before_return(self, mg):
        import tracemalloc

        _prog, v, fn = mg
        fn(v, 4)  # warm
        tracemalloc.start()
        try:
            fn(v, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Every intermediate bound until return was ~165 MB.
        assert peak < 40e6

    def test_fresh_call_results_are_accumulated_into(self, mg):
        source = mg[2].source
        assert "np.subtract(v, _t2, out=_t2)" in source.split(
            "def FinalResidual(")[1]
        # MGrid's zeros die at the call, so the loop is given them: u is
        # its own on every trip, v every trip reads and is nobody's.
        assert "MGrid_loop__34x34x34_34x34x34_d1(v, _t1, 4)" in source
        assert "def MGrid_loop__34x34x34_34x34x34(" not in source
        loop = source.split("def MGrid_loop__34x34x34_34x34x34_d1(")[1]
        loop = loop.split("\ndef ")[0]
        assert "for _ in range(_n):" in loop
        assert "np.subtract(v, _t1, out=_t1)" in loop
        assert "np.add(u, _t3, out=u)" in loop and "out=v" not in loop
        assert "Resid__34x34x34(u)" in loop  # u is read after it: no _d

    def test_a_solve_copies_a_grid_36_times(self, mg):
        # A whole-grid copy is left where value semantics needs one: an
        # argument the caller reads again (u of the iteration's Resid,
        # Fine2Coarse's r, the V-cycle's Resid(z) — 9 an iteration), in
        # the first SetupAxis of its border; the text holds that one
        # `.copy()` per grid size.  It was 260 executed and 24 in the
        # text while SetupAxis copied its parameter whoever held it and
        # every relaxation its bordered frame.
        _prog, v, fn = mg
        assert fn.source.count(".copy()") == 4
        assert fn.source.count(".copy()") == sum(
            ".copy()" in body and body.startswith("SetupAxis__")
            for body in fn.source.split("\ndef "))
        ticks = []
        ns = {"_tick": lambda: ticks.append(1) or "C"}
        exec(fn.source.replace(".copy()", ".copy(order=_tick())"), ns)
        assert ns["FinalResidual"](v).tobytes() == fn(v, 4).tobytes()
        assert len(ticks) == 36

    def test_donated_variants_say_so_in_the_header(self, mg):
        header = mg[2].source.split('"""')[1]
        assert ("  SetupAxis__34x34x34_d(a: double[34,34,34] donated, "
                "d = 0)  x1\n") in header
        assert "  Resid__34x34x34(u: double[34,34,34])  x2\n" in header
        assert "  Resid__34x34x34_d(u: double[34,34,34] donated)  x1\n" \
            in header
        assert ("  MGrid_loop__34x34x34_34x34x34_d1(v: double[34,34,34], "
                "u: double[34,34,34] donated)  x1\n") in header
        # Listed means called: no def nobody reaches.
        listed = [ln.split("(")[0].strip() for ln in header.splitlines()
                  if ln.startswith("  ") and "  x" in ln]
        defined = [ln[4:].split("(")[0] for ln in mg[2].source.splitlines()
                   if ln.startswith("def ") and not ln.startswith("def _sac")]
        assert listed + ["FinalResidual"] == defined
        assert all(not ln.endswith(" x0") for ln in header.splitlines())

    def test_entry_parameters_are_never_donated(self, mg):
        # Whatever its callees do with what they are handed, the entry
        # point writes into nothing it was given: the benchmark hands
        # every sample the same v, the JIT live interpreter arrays.
        import re

        entry = mg[2].source.split("def FinalResidual(v):")[1]
        assert "out=v" not in entry and "v[" not in entry
        assert not re.search(r"_d\d*\(v\b", entry)
        assert "MGrid__34x34x34(v)" in entry

    def test_no_view_is_emitted_twice_in_a_row(self, mg):
        # A WITH-loop body is traced once: evaluating it a second time
        # left a dead duplicate of its first view in every genarray.
        import re

        lines = [re.sub(r"^\s*_t\d+ = ", "", ln)
                 for ln in mg[2].source.splitlines()]
        views = re.compile(r"^\w+\[[^\]]*\]$")
        assert not [a for a, b in zip(lines, lines[1:])
                    if a == b and views.match(a)]

    def test_source_is_one_numpy_module_without_mutable_state(self, mg):
        import ast

        tree = ast.parse(mg[2].source)
        imports = [n for n in ast.walk(tree)
                   if isinstance(n, (ast.Import, ast.ImportFrom))]
        assert [a.name for n in imports for a in n.names] == ["numpy"]
        for node in tree.body:  # docstring, import, helpers, constants
            if isinstance(node, ast.Assign):
                assert node.targets[0].id.startswith("_C")
                assert ast.unparse(node.value.func) == "np.array"
        assert "global " not in mg[2].source

    def test_zero_coefficient_groups_emit_nothing(self, mg):
        prog, v, _fn = mg
        assert "0.0 *" not in compile_function(
            prog, "FinalResidual", (v, 1)).source
        assert "(0.0," not in mg[2].source

    def test_planner_alone_changes_no_bit(self):
        # With coeffgroup off the optimized program is the parent's, so
        # interpreter == planned code isolates the planner.
        from repro.core import zran3
        from repro.mg_sac import load_mg_program

        prog = load_mg_program(True, True, (("coeffgroup", False),))
        v = zran3(32)
        fn = compile_function(prog, "FinalResidual", (v, 4))
        assert "0.0 *" in fn.source or "(0.0," in fn.source
        assert fn(v, 4).tobytes() == \
            prog.call("FinalResidual", v, 4).tobytes()
