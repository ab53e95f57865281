"""Tests for the SAC interpreter: scalars, arrays, control flow,
overloading, selection semantics and error behaviour."""

import sys

import numpy as np
import pytest

from repro.mg_sac.loader import load_mg_program
from repro.sac import CompileOptions, SacProgram, compile_function
from repro.sac.interp import FunctionTable, Interpreter
from repro.sac.errors import (
    SacArityError,
    SacNameError,
    SacRuntimeError,
    SacTypeError,
)


def run(src, fname, *args, **opts):
    options = CompileOptions(**opts) if opts else None
    return SacProgram.from_source(src, options=options).call(fname, *args)


class TestScalars:
    def test_arithmetic(self):
        assert run("int f() { return 2 + 3 * 4; }", "f") == 14

    def test_int_division_truncates(self):
        assert run("int f() { return 7 / 2; }", "f") == 3
        assert run("int f() { return -7 / 2; }", "f") == -3  # C semantics

    def test_int_mod_c_semantics(self):
        assert run("int f() { return -7 % 2; }", "f") == -1

    def test_double_division(self):
        assert run("double f() { return 7.0 / 2.0; }", "f") == 3.5

    def test_division_by_zero(self):
        with pytest.raises(SacRuntimeError):
            run("int f(int x) { return 1 / x; }", "f", 0)

    def test_comparison(self):
        assert run("bool f(int a, int b) { return a < b; }", "f", 1, 2) is True

    def test_logical_short_circuit(self):
        # The right operand would divide by zero; && must not evaluate it.
        src = "bool f(int x) { return x > 0 && 10 / x > 1; }"
        assert run(src, "f", 0) is False

    def test_unary(self):
        assert run("int f(int x) { return -x; }", "f", 5) == -5
        assert run("bool f(bool b) { return !b; }", "f", True) is False


class TestControlFlow:
    def test_if_else(self):
        src = "int f(int x) { if (x > 0) { r = 1; } else { r = -1; } return r; }"
        assert run(src, "f", 3) == 1
        assert run(src, "f", -3) == -1

    def test_for_loop(self):
        src = "int f(int n) { s = 0; for (i = 1; i <= n; i += 1) { s += i; } return s; }"
        assert run(src, "f", 10) == 55

    def test_while_loop(self):
        src = "int f(int n) { i = 0; while (i * i < n) { i += 1; } return i; }"
        assert run(src, "f", 17) == 5

    def test_recursion(self):
        src = "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }"
        assert run(src, "fact", 10) == 3628800

    def test_runaway_recursion_guarded(self):
        src = "int f(int n) { return f(n + 1); }"
        with pytest.raises(SacRuntimeError):
            run(src, "f", 0)

    def test_recursion_limit_left_as_found(self):
        limit = sys.getrecursionlimit()
        load_mg_program()
        Interpreter(FunctionTable())
        assert sys.getrecursionlimit() == limit
        # Raised for an evaluation only, deep enough for the depth guard.
        prog = SacProgram.from_source("double f(double[.] a) { return f(a); }")
        a = np.zeros(3)
        with pytest.raises(SacRuntimeError, match="call depth exceeded"):
            prog.call("f", a)
        with pytest.raises(SacRuntimeError, match="call depth exceeded"):
            compile_function(prog, "f", (a,))
        # Constfold calls ``g`` at build time, and it recurses too deep.
        src = ("int f(int n) { if (n == 0) { r = 0; } else { r = 1 + f(n - 1); }"
               " return r; }\nint g() { return f(300); }\nint h() { return g(); }")
        with pytest.raises(SacRuntimeError, match="call depth exceeded"):
            run(src, "h")
        assert sys.getrecursionlimit() == limit

    def test_non_bool_condition_rejected(self):
        with pytest.raises(SacTypeError):
            run("int f(int x) { if (x) { return 1; } return 0; }", "f", 1)

    def test_missing_return_caught_statically(self):
        with pytest.raises(SacTypeError):
            run("int f(bool b) { if (b) { return 1; } }", "f", False)

    def test_missing_return_at_runtime(self):
        # With the static checker off, the interpreter still catches it.
        with pytest.raises(SacRuntimeError):
            run("int f(bool b) { if (b) { return 1; } }", "f", False,
                typecheck=False)


class TestArrays:
    def test_vector_literal(self):
        v = run("int[.] f() { return [1, 2, 3]; }", "f")
        np.testing.assert_array_equal(v, [1, 2, 3])

    def test_nested_literal_is_matrix(self):
        m = run("int[.,.] f() { return [[1, 2], [3, 4]]; }", "f")
        assert m.shape == (2, 2)

    def test_ragged_literal_rejected(self):
        with pytest.raises(SacTypeError):
            run("int[.,.] f() { return [[1, 2], [3]]; }", "f")

    def test_shape_and_dim(self):
        src = "int f(double[+] a) { return dim(a) + shape(a)[[0]]; }"
        assert run(src, "f", np.zeros((4, 5))) == 2 + 4

    def test_full_selection_gives_scalar(self):
        src = "double f(double[+] a) { return a[[1, 2]]; }"
        a = np.arange(12.0).reshape(3, 4)
        assert run(src, "f", a) == 6.0

    def test_partial_selection_gives_subarray(self):
        src = "double[.] f(double[.,.] a) { return a[[1]]; }"
        a = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(run(src, "f", a), [3.0, 4.0, 5.0])

    def test_scalar_index_shorthand(self):
        src = "double f(double[.] a, int i) { return a[i]; }"
        assert run(src, "f", np.array([1.0, 2.0, 3.0]), 2) == 3.0

    def test_out_of_bounds(self):
        src = "double f(double[.] a, int i) { return a[i]; }"
        with pytest.raises(SacRuntimeError):
            run(src, "f", np.array([1.0]), 5)
        with pytest.raises(SacRuntimeError):
            run(src, "f", np.array([1.0]), -1)  # no Python wrap-around

    def test_elementwise_operators(self):
        src = "double[+] f(double[+] a, double[+] b) { return a * b + a; }"
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0])
        np.testing.assert_array_equal(run(src, "f", a, b), [4.0, 10.0])

    def test_scalar_array_mixing(self):
        src = "double[+] f(double[+] a) { return 2.0 * a - 1.0; }"
        np.testing.assert_array_equal(
            run(src, "f", np.array([1.0, 2.0])), [1.0, 3.0]
        )

    def test_shape_mismatch_rejected(self):
        src = "double[+] f(double[+] a, double[+] b) { return a + b; }"
        with pytest.raises(SacTypeError):
            run(src, "f", np.zeros(3), np.zeros(4))

    def test_value_semantics(self):
        # Passing an array into SAC never mutates the caller's copy.
        src = ("double[+] f(double[+] a) "
               "{ b = with (. <= iv <= .) modarray(a, 9.9); return b; }")
        a = np.zeros(4)
        out = run(src, "f", a)
        assert (out == 9.9).all()
        assert (a == 0.0).all()


class TestOverloading:
    SRC = """
    int pick(int x)       { return 1; }
    int pick(double x)    { return 2; }
    int pick(int[.] v)    { return 3; }
    int pick(double[+] a) { return 4; }
    int pick(double[*] a) { return 5; }
    """

    def test_dispatch(self):
        p = SacProgram.from_source(self.SRC)
        assert p.call("pick", 1) == 1
        assert p.call("pick", 1.0) == 2
        assert p.call("pick", np.array([1, 2])) == 3
        assert p.call("pick", np.zeros((2, 2))) == 4

    def test_most_specific_wins(self):
        # double[+] is more specific than double[*] for arrays; the scalar
        # double goes to the scalar overload, not [*].
        p = SacProgram.from_source(self.SRC)
        assert p.call("pick", np.zeros(3)) == 4
        assert p.call("pick", 0.5) == 2

    def test_no_match(self):
        p = SacProgram.from_source("int f(int x) { return x; }")
        with pytest.raises(SacArityError):
            p.call("f", 1, 2)

    def test_undefined_function(self):
        p = SacProgram.from_source("")
        with pytest.raises(SacNameError):
            p.call("nosuch", 1)

    def test_undefined_variable_caught_statically(self):
        with pytest.raises(SacTypeError):
            run("int f() { return y; }", "f")

    def test_undefined_variable_at_runtime(self):
        with pytest.raises(SacNameError):
            run("int f() { return y; }", "f", typecheck=False)


class TestBuiltins:
    def test_abs_min_max(self):
        assert run("int f(int x) { return abs(x); }", "f", -4) == 4
        assert run("int f(int a, int b) { return min(a, b); }", "f", 2, 5) == 2
        assert run("int f(int a, int b) { return max(a, b); }", "f", 2, 5) == 5

    def test_sqrt_tod_toi(self):
        assert run("double f(int x) { return sqrt(tod(x)); }", "f", 9) == 3.0
        assert run("int f(double x) { return toi(x); }", "f", 3.9) == 3

    def test_sum_prod(self):
        assert run("int f(int[.] v) { return sum(v); }", "f",
                   np.array([1, 2, 3])) == 6
        assert run("int f(int[.] v) { return prod(v); }", "f",
                   np.array([2, 3, 4])) == 24

    def test_user_overload_shadows_builtin(self):
        src = "int shape(int x) { return 42; } int f() { return shape(7); }"
        assert run(src, "f") == 42

    def test_builtin_still_reachable_for_other_types(self):
        src = ("int shape(int x) { return 42; } "
               "int f(double[+] a) { return shape(a)[[0]]; }")
        assert run(src, "f", np.zeros((5, 6))) == 5
