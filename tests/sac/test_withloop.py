"""Tests for WITH-loop evaluation — genarray/modarray/fold semantics,
dots, steps, widths, and the vectorized/scalar path equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sac import CompileOptions, SacProgram
from repro.sac.errors import SacRuntimeError, SacTypeError


def run(src, fname, *args, vectorize=True):
    options = CompileOptions(vectorize=vectorize, optimize=False)
    return SacProgram.from_source(src, options=options).call(fname, *args)


def both_paths(src, fname, *args):
    """Evaluate via the vectorized and the scalar path; they must agree."""
    v = run(src, fname, *args, vectorize=True)
    s = run(src, fname, *args, vectorize=False)
    if isinstance(v, np.ndarray):
        np.testing.assert_array_equal(v, s)
    else:
        assert v == s
    return v


class TestGenarray:
    def test_constant_fill(self):
        out = both_paths(
            "double[+] f() { return with (. <= iv <= .) "
            "genarray([2, 3], 1.5); }", "f")
        assert out.shape == (2, 3)
        assert (out == 1.5).all()

    def test_identity_copy(self):
        src = ("double[+] f(double[+] a) { return with (. <= iv <= .) "
               "genarray(shape(a), a[iv]); }")
        a = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(both_paths(src, "f", a), a)

    def test_partial_region_defaults_zero(self):
        src = ("double[+] f() { return with ([1] <= iv < [3]) "
               "genarray([5], 2.0); }")
        np.testing.assert_array_equal(both_paths(src, "f"), [0, 2, 2, 0, 0])

    def test_index_expression_body(self):
        src = ("int[+] f() { return with (. <= iv <= .) "
               "genarray([4], iv[[0]] * iv[[0]]); }")
        np.testing.assert_array_equal(both_paths(src, "f"), [0, 1, 4, 9])

    def test_shifted_selection(self):
        src = ("double[+] f(double[.] a) { return with ([0] <= iv < [3]) "
               "genarray([3], a[iv + 1]); }")
        a = np.arange(5.0)
        np.testing.assert_array_equal(both_paths(src, "f", a), [1, 2, 3])

    def test_strided_selection(self):
        src = ("double[+] f(double[.] a) { return with (. <= iv <= .) "
               "genarray(shape(a) / 2, a[2 * iv]); }")
        a = np.arange(8.0)
        np.testing.assert_array_equal(both_paths(src, "f", a), [0, 2, 4, 6])

    def test_step_generator(self):
        src = ("double[+] f(double[.] a) { return with "
               "(. <= iv <= . step 2) genarray(2 * shape(a), a[iv / 2]); }")
        a = np.array([1.0, 2.0])
        np.testing.assert_array_equal(both_paths(src, "f", a), [1, 0, 2, 0])

    def test_width_filter(self):
        # step 3 width 2: positions 0,1, 3,4, 6,7 get 1.0.
        src = ("double[+] f() { return with ([0] <= iv < [9] step 3 width 2) "
               "genarray([9], 1.0); }")
        np.testing.assert_array_equal(
            both_paths(src, "f"), [1, 1, 0, 1, 1, 0, 1, 1, 0])

    def test_scalar_bound_replication(self):
        # Scalars in generators replicate to the frame rank (paper §4).
        src = ("double[+] f() { return with (1 <= iv < 3) "
               "genarray([4, 4], 5.0); }")
        out = both_paths(src, "f")
        assert out[1, 1] == 5.0 and out[2, 2] == 5.0
        assert out[0, 0] == 0.0 and out[1, 3] == 0.0

    def test_non_scalar_cells(self):
        src = ("double[+] f() { return with ([0] <= iv < [3]) "
               "genarray([3], [1.0, 2.0]); }")
        out = both_paths(src, "f")
        assert out.shape == (3, 2)
        np.testing.assert_array_equal(out[1], [1.0, 2.0])

    def test_out_of_frame_region_rejected(self):
        src = ("double[+] f() { return with ([0] <= iv < [9]) "
               "genarray([4], 1.0); }")
        with pytest.raises(SacRuntimeError):
            run(src, "f")

    def test_generator_rank_must_match_the_shape_both_paths(self):
        # A rank-1 generator over a rank-2 shape: no cell to put the
        # scalar body in.
        src = ("double[+] f() { return with ([0] <= iv < [2]) "
               "genarray([3, 3], 1.0); }")
        for vec in (True, False):
            with pytest.raises(SacTypeError, match="generator rank"):
                run(src, "f", vectorize=vec)

    def test_selection_out_of_bounds_rejected_both_paths(self):
        src = ("double[+] f(double[.] a) { return with (. <= iv <= .) "
               "genarray(shape(a), a[iv + 1]); }")
        for vec in (True, False):
            with pytest.raises(SacRuntimeError):
                run(src, "f", np.arange(4.0), vectorize=vec)


class TestModarray:
    def test_inner_update(self):
        src = ("double[+] f(double[+] a) { return with "
               "(0*shape(a)+1 <= iv < shape(a)-1) modarray(a, 9.0); }")
        a = np.zeros((4, 4))
        out = both_paths(src, "f", a)
        assert out[1, 1] == 9.0 and out[0, 0] == 0.0
        assert (a == 0.0).all()  # frame untouched

    def test_empty_region_copies(self):
        src = ("double[+] f(double[+] a) { return with "
               "([2] <= iv < [2]) modarray(a, 9.0); }")
        a = np.arange(4.0)
        np.testing.assert_array_equal(both_paths(src, "f", a), a)

    def test_body_reads_frame(self):
        src = ("double[+] f(double[.] a) { return with "
               "([1] <= iv < shape(a)-1) modarray(a, a[iv-1] + a[iv+1]); }")
        a = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(both_paths(src, "f", a), [1, 4, 6, 4])


class TestFold:
    def test_sum(self):
        src = ("double f(double[.] a) { return with ([0] <= iv < shape(a)) "
               "fold(+, 0.0, a[iv]); }")
        assert both_paths(src, "f", np.arange(5.0)) == 10.0

    def test_product(self):
        src = ("int f(int n) { return with ([1] <= iv <= [n]) "
               "fold(*, 1, iv[[0]]); }")
        assert both_paths(src, "f", 5) == 120

    def test_fold_max_builtin(self):
        src = ("double f(double[.] a) { return with ([0] <= iv < shape(a)) "
               "fold(max, 0.0, a[iv]); }")
        assert both_paths(src, "f", np.array([1.0, 7.0, 3.0])) == 7.0

    def test_fold_user_function(self):
        src = ("double combine(double a, double b) { return a + 2.0 * b; }\n"
               "double f(double[.] a) { return with ([0] <= iv < shape(a)) "
               "fold(combine, 0.0, a[iv]); }")
        # combine is not associative: both paths apply it per point, in
        # order.
        out = both_paths(src, "f", np.array([1.0, 1.0]))
        assert out == (0.0 + 2 * 1.0) + 2 * 1.0

    def test_empty_fold_is_neutral(self):
        src = ("double f() { return with ([3] <= iv < [3]) "
               "fold(+, 42.0, 1.0); }")
        assert both_paths(src, "f") == 42.0

    def test_nested_fold_stencil(self):
        # The MG stencil pattern: outer genarray, inner fold over offsets.
        src = (
            "double[+] f(double[.] a) {\n"
            "  return with ([1] <= iv < shape(a)-1)\n"
            "    modarray(a, with ([0] <= ov < [3])\n"
            "      fold(+, 0.0, a[iv + ov - 1]));\n"
            "}"
        )
        a = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(both_paths(src, "f", a), [1, 6, 9, 4])
        # Three interior points and three offsets: the inner space must
        # cross the outer one, not pair with it point by point.
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        np.testing.assert_array_equal(both_paths(src, "f", a),
                                      [1, 6, 9, 12, 5])

    def test_inner_bounds_that_depend_on_the_outer_index(self):
        # A per-point bound has no whole-space form: the vectorized path
        # must hand the outer loop to the scalar one, not raise.
        src = (
            "double[+] f(double[.] a) {\n"
            "  return with ([0] <= iv < [4])\n"
            "    genarray([4], with (iv <= jv < iv + 2)\n"
            "      fold(+, 0.0, a[jv]));\n"
            "}"
        )
        np.testing.assert_array_equal(
            both_paths(src, "f", np.arange(6.0)), [1, 3, 5, 7])


class TestDotBounds:
    def test_dot_needs_frame_static(self):
        from repro.sac.errors import SacTypeError
        from repro.sac import CompileOptions, SacProgram

        src = "double f() { return with (. <= iv <= .) fold(+, 0.0, 1.0); }"
        with pytest.raises(SacTypeError):
            SacProgram.from_source(src)

    def test_dot_needs_frame_runtime(self):
        from repro.sac import CompileOptions, SacProgram

        src = "double f() { return with (. <= iv <= .) fold(+, 0.0, 1.0); }"
        prog = SacProgram.from_source(
            src, options=CompileOptions(optimize=False, typecheck=False)
        )
        with pytest.raises(SacRuntimeError):
            prog.call("f")

    def test_dots_cover_whole_frame(self):
        src = ("double[+] f(double[+] a) { return with (. <= iv <= .) "
               "modarray(a, a[iv] + 1.0); }")
        a = np.zeros((2, 3))
        np.testing.assert_array_equal(both_paths(src, "f", a), np.ones((2, 3)))


class TestVectorizedEquivalence:
    """Property: the vectorized evaluator must match the scalar loops."""

    @given(
        n=st.integers(3, 10),
        off=st.integers(-1, 1),
        seed=st.integers(0, 2 ** 31),
    )
    @settings(max_examples=25, deadline=None)
    def test_shifted_reads(self, n, off, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(n)
        src = ("double[+] f(double[.] a, int o) { return with "
               "([1] <= iv < shape(a)-1) genarray(shape(a), a[iv + o]); }")
        v = run(src, "f", a, off, vectorize=True)
        s = run(src, "f", a, off, vectorize=False)
        np.testing.assert_array_equal(v, s)

    @given(st.integers(2, 5), st.integers(0, 2 ** 31))
    @settings(max_examples=20, deadline=None)
    def test_2d_transpose_gather(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n))
        # Transposition needs a materialized gather (components swap axes).
        src = ("double[+] f(double[.,.] a) { return with (. <= iv <= .) "
               "genarray(shape(a), a[[iv[[1]], iv[[0]]]]); }")
        v = run(src, "f", a, vectorize=True)
        s = run(src, "f", a, vectorize=False)
        np.testing.assert_array_equal(v, s)
        np.testing.assert_array_equal(v, a.T)
