"""Tests for the static semantic checker."""

import numpy as np
import pytest

from repro.mg_sac import mg_source_path
from repro.sac.errors import SacTypeError
from repro.sac.parser import parse_program
from repro.sac.stdlib import load_prelude
from repro.sac.typecheck import check_program, collect_diagnostics


def diags(src):
    return collect_diagnostics(parse_program(src))


def messages(src):
    return [d.message for d in diags(src)]


class TestCleanPrograms:
    def test_prelude_is_clean(self):
        assert collect_diagnostics(load_prelude()) == []

    def test_mg_program_with_prelude_is_clean(self):
        from repro.sac.ast_nodes import Program

        combined = Program(
            load_prelude().functions
            + parse_program(mg_source_path().read_text()).functions
        )
        assert collect_diagnostics(combined) == []

    def test_check_program_passes_silently(self):
        check_program(parse_program("int f(int x) { return x; }"))


class TestUndefinedVariables:
    def test_simple(self):
        assert any("undefined variable 'y'" in m for m in messages(
            "int f() { return y; }"))

    def test_params_are_defined(self):
        assert diags("int f(int x) { return x; }") == []

    def test_assignment_defines(self):
        assert diags("int f() { x = 1; return x; }") == []

    def test_use_before_assignment(self):
        assert any("undefined variable 'x'" in m for m in messages(
            "int f() { y = x; x = 1; return y; }"))

    def test_branch_definition_accepted(self):
        # Assigned in one branch only: maybe-defined, accepted statically.
        src = ("int f(bool b) { if (b) { x = 1; } return x; }")
        assert diags(src) == []

    def test_loop_body_definitions_visible_after(self):
        src = ("int f(int n) { for (i = 0; i < n; i += 1) { s = i; } "
               "return s; }")
        assert diags(src) == []

    def test_withloop_index_visible_in_body_only(self):
        src = ("int f() { a = with ([0] <= iv < [3]) fold(+, 0, iv[[0]]); "
               "return iv[[0]]; }")
        msgs = messages(src)
        assert any("undefined variable 'iv'" in m for m in msgs)
        assert len(msgs) == 1


class TestCalls:
    def test_unknown_function(self):
        assert any("undefined function 'g'" in m for m in messages(
            "int f() { return g(1); }"))

    def test_builtins_accepted(self):
        assert diags("int f(double[+] a) { return dim(a) + sum(shape(a)); }") == []

    def test_wrong_arity(self):
        msgs = messages("int g(int a, int b) { return a; } "
                        "int f() { return g(1); }")
        assert any("takes 1 argument" in m for m in msgs)

    def test_any_matching_arity_accepted(self):
        src = ("int g(int a) { return a; } int g(int a, int b) { return a; } "
               "int f() { return g(1) + g(1, 2); }")
        assert diags(src) == []

    @pytest.mark.parametrize("run", ["interpreter", "compile_function"])
    def test_builtin_wrong_arity_is_sac004(self, run):
        # The builtin's arity is its runtime function's: the build stops
        # before either evaluator can call _bi_sum with two arguments.
        from repro.sac import SacProgram
        from repro.sac.codegen import compile_function

        with pytest.raises(SacTypeError, match="SAC004 no overload of "
                           "'sum' takes 2 argument"):
            prog = SacProgram.from_source(
                "int f(int a) { return sum(a, a); }")
            if run == "interpreter":
                prog.call("f", 1)
            else:
                compile_function(prog, "f", (1,))

    def test_builtin_arities(self):
        assert messages("double f(double a) { return min(a); }") == [
            "no overload of 'min' takes 1 argument(s); defined "
            "arities: [2]"]
        assert diags("double f(double a) { return min(a, abs(a)) "
                     "+ tod(toi(sqrt(a))); }") == []

    def test_user_overload_of_a_builtin_adds_an_arity(self):
        # The interpreter falls back to the builtin when no user
        # overload matches, so both arities are callable.
        src = ("int max(int a, int b, int c) { return a; } "
               "int f() { return max(1, 2) + max(1, 2, 3); }")
        assert diags(src) == []
        assert messages(src.replace("max(1, 2) +", "max(1) +")) == [
            "no overload of 'max' takes 1 argument(s); defined "
            "arities: [2, 3]"]

    def test_fold_function_checked(self):
        msgs = messages(
            "double f(double[.] a) { return with ([0] <= i < shape(a)) "
            "fold(combine, 0.0, a[i]); }"
        )
        assert any("fold names undefined function 'combine'" in m for m in msgs)

    def test_fold_operators_accepted(self):
        src = ("double f(double[.] a) { return with ([0] <= i < shape(a)) "
               "fold(+, 0.0, a[i]); }")
        assert diags(src) == []

    @staticmethod
    def fold_over(fun: str) -> str:
        return ("double g(double x) { return x; }\n"
                "double h(double x, double y) { return x + y; }\n"
                "double f(double[.] a) { return with ([0] <= i < shape(a)) "
                f"fold({fun}, 0.0, a[i]); }}")

    @pytest.mark.parametrize("run", ["interpreter", "compile_function"])
    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("fun", ["sqrt", "sum", "shape", "g"])
    def test_fold_function_of_one_argument_is_sac004(self, fun, optimize,
                                                     run):
        # The builtin's arity is its record's, the user function's its
        # overloads': no evaluator gets to call either with two.
        from repro.sac import CompileOptions, SacProgram
        from repro.sac.codegen import compile_function

        src = self.fold_over(fun)
        (d,) = diags(src)
        assert (d.code, d.pos.line, d.pos.col) == (
            "SAC004", 3, src.splitlines()[2].index("fold") + 1)
        a = np.arange(4.0)
        with pytest.raises(SacTypeError, match=f"SAC004 no overload of "
                           f"'{fun}' takes 2 argument"):
            prog = SacProgram.from_source(
                src, options=CompileOptions(optimize=optimize))
            if run == "interpreter":
                prog.call("f", a)
            else:
                compile_function(prog, "f", (a,))

    @pytest.mark.parametrize("fun", ["min", "max", "h"])
    def test_fold_function_of_two_arguments_accepted(self, fun):
        assert diags(self.fold_over(fun)) == []


#: Programs that got past every diagnostic before builtins had one record
#: each: a builtin call with a wrong arity, a ragged vector literal, a
#: builtin fold function of one argument.
ILL_FORMED = {
    "sum-of-two": ("int f(int a) { return sum(a, a); }", "SAC004"),
    "ragged-literal": ("int f() { return max([[1, 2], 3], 0); }", "SAC011"),
    "fold-sqrt": ("double f(double[.] a) { return with ([0] <= i < "
                  "shape(a)) fold(sqrt, 0.0, a[i]); }", "SAC004"),
}


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("name", ILL_FORMED)
def test_ill_formed_program_is_a_coded_error_at_build(name, optimize):
    # The build stops, so neither the interpreter nor compile_function
    # ever gets the program.
    from repro.sac import CompileOptions, SacProgram

    src, code = ILL_FORMED[name]
    with pytest.raises(SacTypeError) as exc:
        SacProgram.from_source(src, options=CompileOptions(optimize=optimize))
    assert [d.code for d in exc.value.diagnostics] == [code]


class TestStructure:
    def test_duplicate_params(self):
        assert any("duplicate parameter" in m for m in messages(
            "int f(int x, int x) { return x; }"))

    def test_duplicate_signature(self):
        msgs = messages("int f(int x) { return x; } int f(int y) { return y; }")
        assert any("duplicate definition" in m for m in msgs)

    def test_distinct_overloads_ok(self):
        assert diags("int f(int x) { return x; } "
                     "int f(double x) { return 1; }") == []

    def test_missing_return(self):
        assert any("without returning" in m for m in messages(
            "int f(bool b) { if (b) { return 1; } }"))

    def test_if_else_both_return_ok(self):
        src = ("int f(bool b) { if (b) { return 1; } else { return 2; } }")
        assert diags(src) == []

    def test_void_may_fall_off(self):
        assert diags("void f(int x) { y = x; }") == []

    def test_dot_outside_generator(self):
        src = "double f() { return with (. <= iv <= .) fold(+, 0.0, 1.0); }"
        assert any("genarray/modarray frame" in m for m in messages(src))

    def test_error_listing_collects_all(self):
        src = "int f() { return y + z; }"
        with pytest.raises(SacTypeError) as err:
            check_program(parse_program(src))
        assert "2 static error(s)" in str(err.value)
        assert len(err.value.diagnostics) == 2
