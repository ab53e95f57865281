"""Tests for the SAC parser."""

import pytest

from repro.sac.ast_nodes import (
    Assign,
    BinOp,
    Call,
    Dot,
    DoubleLit,
    FoldOp,
    For,
    GenarrayOp,
    If,
    IntLit,
    ModarrayOp,
    Return,
    Select,
    UnOp,
    VectorLit,
    While,
    WithLoop,
)
from repro.sac.errors import SacSyntaxError
from repro.sac.parser import parse_expression, parse_program
from repro.sac.sactypes import BaseType, ShapeKind


class TestExpressions:
    def test_precedence(self):
        e = parse_expression("1 + 2 * 3")
        assert isinstance(e, BinOp) and e.op == "+"
        assert isinstance(e.right, BinOp) and e.right.op == "*"

    def test_parens(self):
        e = parse_expression("(1 + 2) * 3")
        assert e.op == "*"
        assert isinstance(e.left, BinOp) and e.left.op == "+"

    def test_comparison_non_associative(self):
        with pytest.raises(SacSyntaxError):
            parse_expression("a < b < c")

    def test_logical(self):
        e = parse_expression("a && b || !c")
        assert e.op == "||"
        assert isinstance(e.right, UnOp)

    def test_unary_minus(self):
        e = parse_expression("-x * y")
        assert e.op == "*"
        assert isinstance(e.left, UnOp)

    def test_vector_literal(self):
        e = parse_expression("[1, 2, 3]")
        assert isinstance(e, VectorLit)
        assert len(e.elements) == 3

    def test_nested_vector_literal(self):
        e = parse_expression("[[1, 2], [3, 4]]")
        assert isinstance(e, VectorLit)
        assert all(isinstance(x, VectorLit) for x in e.elements)

    def test_selection_chain(self):
        e = parse_expression("a[iv][0]")
        assert isinstance(e, Select)
        assert isinstance(e.array, Select)

    def test_double_bracket_selection(self):
        e = parse_expression("shape(r)[[0]]")
        assert isinstance(e, Select)
        assert isinstance(e.index, VectorLit)
        assert isinstance(e.array, Call)

    def test_call(self):
        e = parse_expression("f(a, 1 + 2)")
        assert isinstance(e, Call)
        assert e.name == "f"
        assert len(e.args) == 2

    def test_genarray_as_library_call(self):
        e = parse_expression("genarray(shape(v), 0.0)")
        assert isinstance(e, Call) and e.name == "genarray"


class TestWithLoops:
    def test_genarray_withloop(self):
        e = parse_expression("with (. <= iv <= .) genarray(shp, a[iv])")
        assert isinstance(e, WithLoop)
        assert isinstance(e.operation, GenarrayOp)
        g = e.generator
        assert isinstance(g.lower, Dot) and isinstance(g.upper, Dot)
        assert g.lower_inclusive and g.upper_inclusive
        assert g.var == "iv"

    def test_exclusive_bounds(self):
        e = parse_expression("with (0*shape(u)+1 <= iv < shape(u)-1) "
                             "modarray(u, 0.0)")
        g = e.generator
        assert g.lower_inclusive and not g.upper_inclusive
        assert isinstance(e.operation, ModarrayOp)

    def test_step_and_width(self):
        e = parse_expression("with (. <= iv <= . step 2 width 1) "
                             "genarray(s, 0.0)")
        assert isinstance(e.generator.step, IntLit)
        assert isinstance(e.generator.width, IntLit)

    def test_step_only(self):
        e = parse_expression("with (. <= iv <= . step str) genarray(s, a[iv/str])")
        assert e.generator.step is not None
        assert e.generator.width is None

    def test_fold(self):
        e = parse_expression("with ([0,0,0] <= ov < [3,3,3]) "
                             "fold(+, 0.0, u[iv+ov-1])")
        assert isinstance(e.operation, FoldOp)
        assert e.operation.fun == "+"
        assert isinstance(e.operation.neutral, DoubleLit)

    def test_fold_named_function(self):
        e = parse_expression("with ([0] <= i < [3]) fold(max, 0.0, a[i])")
        assert e.operation.fun == "max"

    def test_generator_bounds_do_not_eat_relops(self):
        # shape(u)-1 must parse as the bound; '<' separates it from iv.
        e = parse_expression("with (a+1 <= iv < b-1) genarray(s, 0.0)")
        assert isinstance(e.generator.lower, BinOp)
        assert isinstance(e.generator.upper, BinOp)

    def test_bad_relop(self):
        with pytest.raises(SacSyntaxError):
            parse_expression("with (a > iv < b) genarray(s, 0.0)")


class TestTypes:
    def _fun(self, src):
        return parse_program(src).functions[0]

    def test_scalar_types(self):
        f = self._fun("int f(double x, bool b) { return 1; }")
        assert f.return_type.base is BaseType.INT
        assert f.params[0].type.base is BaseType.DOUBLE
        assert f.params[1].type.base is BaseType.BOOL

    def test_aud_plus(self):
        f = self._fun("double[+] f(double[+] a) { return a; }")
        assert f.return_type.kind is ShapeKind.AUDGZ

    def test_aud_star(self):
        f = self._fun("double[*] f(double[*] a) { return a; }")
        assert f.return_type.kind is ShapeKind.AUD

    def test_akd(self):
        f = self._fun("int[.] f(int[.,.] m) { return [1]; }")
        assert f.return_type.kind is ShapeKind.AKD
        assert f.return_type.rank == 1
        assert f.params[0].type.rank == 2

    def test_aks(self):
        f = self._fun("double[4] f(double[3,3] m) { return [1.0]; }")
        assert f.return_type.shape == (4,)
        assert f.params[0].type.shape == (3, 3)

    def test_inline_flag(self):
        f = self._fun("inline int f() { return 1; }")
        assert f.inline


class TestStatements:
    def _body(self, stmts):
        return parse_program(f"int f() {{ {stmts} }}").functions[0].body

    def test_assignment(self):
        b = self._body("x = 1; return x;")
        assert isinstance(b.statements[0], Assign)

    def test_augmented_assignment(self):
        b = self._body("x = 1; x += 2; return x;")
        aug = b.statements[1]
        assert isinstance(aug.value, BinOp) and aug.value.op == "+"

    def test_if_else(self):
        b = self._body("if (a < b) { x = 1; } else { x = 2; } return x;")
        assert isinstance(b.statements[0], If)
        assert b.statements[0].orelse is not None

    def test_if_without_braces(self):
        b = self._body("if (a < b) x = 1; return x;")
        assert isinstance(b.statements[0], If)

    def test_else_if_chain(self):
        b = self._body(
            "if (a < b) { x = 1; } else if (a == b) { x = 2; } "
            "else { x = 3; } return x;"
        )
        outer = b.statements[0]
        assert isinstance(outer.orelse.statements[0], If)

    def test_for_loop(self):
        b = self._body("for (i = 0; i < 10; i += 1) { x = i; } return x;")
        f = b.statements[0]
        assert isinstance(f, For)
        assert f.init.target == "i"

    def test_while_loop(self):
        b = self._body("while (x < 10) { x += 1; } return x;")
        assert isinstance(b.statements[0], While)

    def test_return_with_parens(self):
        b = self._body("return( x);")
        assert isinstance(b.statements[0], Return)

    def test_missing_semicolon(self):
        with pytest.raises(SacSyntaxError):
            self._body("x = 1 return x;")


class TestPrograms:
    def test_multiple_functions(self):
        p = parse_program("int f() { return 1; } int g() { return f(); }")
        assert [f.name for f in p.functions] == ["f", "g"]

    def test_genarray_as_function_name(self):
        p = parse_program(
            "double[+] genarray(int[.] shp, double v) "
            "{ a = with (. <= iv <= .) genarray(shp, v); return a; }"
        )
        assert p.functions[0].name == "genarray"

    def test_trailing_garbage(self):
        with pytest.raises(SacSyntaxError):
            parse_program("int f() { return 1; } $$")

    def test_mg_program_parses(self):
        from repro.mg_sac import mg_source_path

        p = parse_program(mg_source_path().read_text())
        names = {f.name for f in p.functions}
        assert {"MGrid", "VCycle", "Resid", "Smooth", "Fine2Coarse",
                "Coarse2Fine", "SetupPeriodicBorder"} <= names
