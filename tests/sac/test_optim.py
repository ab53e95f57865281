"""Tests for the optimizer passes: each pass must preserve semantics and
actually perform its transformation."""

import numpy as np
import pytest

from repro.sac import CompileOptions, SacProgram
from repro.sac.analysis import analyze_source
from repro.sac.ast_nodes import (
    Assign,
    BinOp,
    Call,
    DoubleLit,
    Select,
    Var,
    WithLoop,
)
from repro.sac.ast_visit import walk_exprs
from repro.sac.driver.passes import PASSES, PassManager, schedule_for
from repro.sac.optim import (
    coeffgroup_pass,
    constfold_pass,
    dce_pass,
    inline_pass,
    unroll_pass,
    wlfold_pass,
)
from repro.sac.optim.rewrite import ast_equal, ast_key, substitute
from repro.sac.parser import parse_expression, parse_program
from repro.sac.pprint import pprint_expr
from repro.sac.stdlib import load_prelude


def opt_and_run(src, fname, *args, passes=None):
    """Run a function with and without optimization; results must agree."""
    plain = SacProgram.from_source(src, options=CompileOptions(optimize=False))
    overrides = tuple((passes or {}).items())
    opted = SacProgram.from_source(
        src, options=CompileOptions(optimize=True, pass_overrides=overrides)
    )
    a = plain.call(fname, *args)
    b = opted.call(fname, *args)
    if isinstance(a, np.ndarray):
        np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-14)
    else:
        assert b == pytest.approx(a, rel=1e-12)
    return opted


class TestRewriteUtils:
    def test_ast_equal_ignores_positions(self):
        a = parse_expression("x + 1")
        b = parse_expression("x  +  1")
        assert ast_equal(a, b)
        assert ast_key(a) == ast_key(b)

    def test_ast_equal_distinguishes(self):
        assert not ast_equal(parse_expression("x + 1"), parse_expression("x + 2"))

    def test_affine_form(self):
        from repro.sac.optim.rewrite import affine_form

        def form(text):
            t = affine_form(parse_expression(text), "iv")
            return t if t is None else (t[0], np.asarray(t[1]).tolist())

        assert form("iv") == (1, 0)
        assert form("iv + [0, 0, 2] - 1") == (1, [-1, -1, 1])
        assert form("2 * (iv - 0 * (shape(r) / 2))") == (2, 0)
        assert form("3 - iv") == (-1, 3)
        assert form("[1, 2] * 3 + 0 * x") == (0, [3, 6])
        # Not affine in iv, not literal, mismatched lengths.
        assert form("iv * iv") is None and form("iv / 2") is None
        assert form("iv + n") is None and form("jv") is None
        assert form("[1, 2] + [1, 2, 3]") is None and form("iv + 1.5") is None

    def test_substitute_simple(self):
        e = substitute(parse_expression("x + y"), {"x": parse_expression("2 * z")})
        assert ast_equal(e, parse_expression("2 * z + y"))

    def test_substitute_respects_withloop_binding(self):
        e = parse_expression("with (. <= iv <= .) genarray(s, iv[[0]])")
        out = substitute(e, {"iv": parse_expression("other")})
        # The bound iv must not be replaced.
        body = out.operation.body
        assert isinstance(body, Select)
        assert isinstance(body.array, Var) and body.array.name == "iv"


class TestInline:
    def test_simple_inline(self):
        src = (
            "inline int add1(int x) { return x + 1; }\n"
            "int f(int y) { return add1(add1(y)); }"
        )
        p = inline_pass(parse_program(src))
        f = [fn for fn in p.functions if fn.name == "f"][0]
        calls = [e for e in walk_exprs(f.body) if isinstance(e, Call)]
        assert not calls

    def test_inline_with_locals(self):
        src = (
            "inline int twice(int x) { t = x + x; return t; }\n"
            "int f(int y) { return twice(y + 1); }"
        )
        assert opt_and_run(src, "f", 5).call("f", 5) == 12

    def test_non_inline_kept(self):
        src = (
            "int helper(int x) { return x; }\n"
            "int f(int y) { return helper(y); }"
        )
        p = inline_pass(parse_program(src))
        f = [fn for fn in p.functions if fn.name == "f"][0]
        assert any(isinstance(e, Call) for e in walk_exprs(f.body))

    def test_recursive_not_inlined(self):
        src = "inline int f(int n) { return f(n); }"
        p = inline_pass(parse_program(src))
        body_calls = [
            e for e in walk_exprs(p.functions[0].body) if isinstance(e, Call)
        ]
        assert body_calls  # still calls itself

    def test_inline_inside_withloop_body(self):
        # The regression that motivated expression-substitution inlining:
        # an inline call whose body contains a WITH-loop, used inside
        # another WITH-loop's body.
        src = (
            "inline double s3(double[.] a, int[.] iv) {\n"
            "  s = with ([0] <= ov < [3]) fold(+, 0.0, a[iv + ov - 1]);\n"
            "  return s;\n"
            "}\n"
            "double[+] f(double[.] a) {\n"
            "  return with ([1] <= iv < shape(a)-1) modarray(a, s3(a, iv));\n"
            "}"
        )
        a = np.array([1.0, 2.0, 3.0, 4.0])
        opt = opt_and_run(src, "f", a)
        f = [fn for fn in opt.program.functions if fn.name == "f"][0]
        assert not any(
            isinstance(e, Call) and e.name == "s3" for e in walk_exprs(f.body)
        )

    def test_multiuse_expensive_arg_blocks_inline(self):
        src = (
            "inline double both(double x) { return x + x; }\n"
            "double g(double[.] a) { return sum(a); }\n"
            "double f(double[.] a) { return both(g(a)); }"
        )
        p = inline_pass(parse_program(src))
        f = [fn for fn in p.functions if fn.name == "f"][0]
        assert any(
            isinstance(e, Call) and e.name == "both" for e in walk_exprs(f.body)
        )


class TestConstfold:
    def _fold_expr(self, expr_src, extra=""):
        src = f"{extra}\ndouble f() {{ return {expr_src}; }}"
        p = constfold_pass(parse_program(src))
        f = [fn for fn in p.functions if fn.name == "f"][0]
        return f.body.statements[-1].value

    def test_arith(self):
        from repro.sac.ast_nodes import DoubleLit

        e = self._fold_expr("2.0 * 3.0 + 1.0")
        assert isinstance(e, DoubleLit) and e.value == 7.0

    def test_negative_literals(self):
        from repro.sac.ast_nodes import DoubleLit

        e = self._fold_expr("-8.0/3.0")
        assert isinstance(e, DoubleLit)
        assert e.value == -8.0 / 3.0

    def test_vector_select(self):
        from repro.sac.ast_nodes import DoubleLit

        e = self._fold_expr("[1.0, 2.0, 3.0][[1]]")
        assert isinstance(e, DoubleLit) and e.value == 2.0

    def test_pure_call_evaluated(self):
        from repro.sac.ast_nodes import DoubleLit

        e = self._fold_expr(
            "square(3.0)", extra="double square(double x) { return x * x; }"
        )
        assert isinstance(e, DoubleLit) and e.value == 9.0

    def test_identity_cleanup(self):
        e = self._fold_expr("0 + xvar()", extra="double xvar() { return 1.0; }")
        # The call is pure with no args: it gets evaluated outright.
        from repro.sac.ast_nodes import DoubleLit

        assert isinstance(e, DoubleLit)

    @pytest.mark.parametrize("optimize", [True, False])
    def test_ragged_vector_is_the_interpreters_error(self, optimize):
        # A ragged vector is no literal: the folder leaves it alone, the
        # build succeeds either way, and the call fails as the
        # interpreter says.  (The typechecker, off here so that the
        # folder sees the literal, reports it as SAC011.)
        from repro.sac.errors import SacTypeError
        from repro.sac.optim.constfold import literal_value

        assert literal_value(parse_expression("[[1, 2], 3]")) is None
        prog = SacProgram(
            parse_program("int f() { return max([[1, 2], 3], 0); }"),
            CompileOptions(optimize=optimize, typecheck=False))
        with pytest.raises(SacTypeError, match="ragged array literal"):
            prog.call("f")

    def test_zero_times_shape_kept(self):
        # 0 * shape(a) must NOT fold to scalar 0 (it is a vector).
        src = "int[.] f(double[+] a) { return 0 * shape(a); }"
        p = constfold_pass(parse_program(src))
        f = p.functions[0]
        e = f.body.statements[-1].value
        assert isinstance(e, BinOp)

    def test_semantics_preserved(self):
        src = "double f(double x) { return x * (2.0 + 1.0) - [4.0, 5.0][[0]]; }"
        opt_and_run(src, "f", 2.0)


class TestUnroll:
    SRC = (
        "double f(double[.] a, int i) {\n"
        "  s = with ([0] <= ov < [3]) fold(+, 0.0, a[[i + ov[[0]] - 1]]);\n"
        "  return s;\n"
        "}"
    )

    def test_fold_unrolled(self):
        p = unroll_pass(constfold_pass(parse_program(self.SRC)))
        f = p.functions[0]
        wls = [e for e in walk_exprs(f.body) if isinstance(e, WithLoop)]
        assert not wls

    def test_semantics(self):
        a = np.array([1.0, 2.0, 4.0, 8.0])
        opt_and_run(self.SRC, "f", a, 2)

    def test_large_folds_not_unrolled(self):
        src = ("double f(double[.] a) { return with ([0] <= iv < [1000]) "
               "fold(+, 0.0, a[iv % [4]]); }")
        p = unroll_pass(parse_program(src))
        wls = [e for e in walk_exprs(p.functions[0].body) if isinstance(e, WithLoop)]
        assert wls  # too big: kept as a loop


class TestCoeffGroup:
    def test_grouping_reduces_multiplies(self):
        src = (
            "double f(double[4] c, double[.] u) {\n"
            "  return c[[0]]*u[[0]] + c[[1]]*u[[1]] + c[[1]]*u[[2]]\n"
            "       + c[[1]]*u[[3]] + c[[0]]*u[[4]];\n"
            "}"
        )
        p = coeffgroup_pass(parse_program(src))
        f = p.functions[0]
        muls = [
            e for e in walk_exprs(f.body) if isinstance(e, BinOp) and e.op == "*"
        ]
        assert len(muls) == 2  # one per distinct coefficient

    def test_semantics(self):
        src = (
            "double f(double[4] c, double[.] u) {\n"
            "  return c[[0]]*u[[0]] + c[[1]]*u[[1]] + c[[1]]*u[[2]]\n"
            "       + c[[1]]*u[[3]] + c[[0]]*u[[4]];\n"
            "}"
        )
        c = np.array([2.0, 3.0, 0.0, 0.0])
        u = np.arange(5.0)
        opt_and_run(src, "f", c, u)

    ZERO = (
        "double[.] f(double[.] u) {\n"
        "  return with ([1] <= iv < shape(u) - 1) modarray(u,\n"
        "    0.5*u[iv+[-1]] + 0.0*u[iv+[0]] + 0.5*u[iv+[1]] + 0.0*u[iv+[0]]);\n"
        "}"
    )

    def test_zero_coefficient_group_is_dropped(self):
        p = coeffgroup_pass(parse_program(self.ZERO))
        lits = [e.value for e in walk_exprs(p.functions[0].body)
                if isinstance(e, DoubleLit)]
        assert lits == [0.5]
        opt_and_run(self.ZERO, "f", np.arange(6.0))

    def test_trailing_zero_term_is_dropped_too(self):
        src = ("double f(double[.] u) { return 0.5*u[[0]] + 0.5*u[[1]] "
               "+ 0.0*u[[2]]; }")
        p = coeffgroup_pass(parse_program(src))
        assert not [e for e in walk_exprs(p.functions[0].body)
                    if isinstance(e, DoubleLit) and e.value == 0.0]
        opt_and_run(src, "f", np.arange(3.0))

    def test_zero_group_of_another_form_is_kept(self):
        # Dropping 0.0*(m[[0]] + m[[1]]) would turn a vector result
        # into a scalar: the terms are not of a kept term's form.
        src = ("double[.] f(double[+] m, double[.] u) { return "
               "0.0*m[[0]] + 0.5*u[[0]] + 0.0*m[[1]] + 0.5*u[[1]]; }")
        p = coeffgroup_pass(parse_program(src))
        assert [e for e in walk_exprs(p.functions[0].body)
                if isinstance(e, DoubleLit) and e.value == 0.0]
        opt_and_run(src, "f", np.arange(6.0).reshape(2, 3), np.arange(2.0))

    def test_zero_group_of_a_call_is_kept(self):
        src = ("double f(double[.] u) { return 0.5*sum(u) + 0.0*sum(u) "
               "+ 0.5*sum(u) + 0.0*sum(u); }")
        p = coeffgroup_pass(parse_program(src))
        assert [e for e in walk_exprs(p.functions[0].body)
                if isinstance(e, DoubleLit) and e.value == 0.0]

    def test_ungroupable_sum_untouched(self):
        src = "double f(double a, double b, double c, double d) { return a + b + c + d; }"
        p = coeffgroup_pass(parse_program(src))
        opt_and_run(src, "f", 1.0, 2.0, 3.0, 4.0)
        # No multiplicative structure: expression unchanged.
        f0 = parse_program(src).functions[0].body.statements[-1].value
        f1 = p.functions[0].body.statements[-1].value
        assert ast_equal(f0, f1)


class TestWlfold:
    SRC = (
        "double[+] f(double[.] a) {\n"
        "  t = with (. <= iv <= .) genarray(shape(a), a[iv] * 2.0);\n"
        "  r = with (. <= jv <= .) genarray(shape(a), t[jv] + 1.0);\n"
        "  return r;\n"
        "}"
    )

    def test_producer_folded_away(self):
        p = dce_pass(wlfold_pass(parse_program(self.SRC)))
        f = p.functions[0]
        assigns = [s for s in f.body.statements if isinstance(s, Assign)]
        assert [s.target for s in assigns] == ["r"]

    def test_semantics(self):
        a = np.arange(4.0)
        opt_and_run(self.SRC, "f", a)

    def test_partial_producer_not_folded(self):
        src = (
            "double[+] f(double[.] a) {\n"
            "  t = with ([1] <= iv < shape(a)-1) genarray(shape(a), a[iv]);\n"
            "  r = with (. <= jv <= .) genarray(shape(a), t[jv] + 1.0);\n"
            "  return r;\n"
            "}"
        )
        # A partial producer is its body on its generator and its default
        # elsewhere: the reader is split into the default piece over its
        # whole range and the body piece over the intersection.
        p = dce_pass(wlfold_pass(parse_program(src)))
        first, second = [s for s in p.functions[0].body.statements
                         if isinstance(s, Assign)]
        assert second.target == "r" and first.target != "t"
        assert ast_equal(first.value, parse_expression(
            "with (. <= jv <= .) genarray(shape(a), 0.0 + 1.0)"))
        assert ast_equal(second.value, parse_expression(
            f"with (max(0, [1]) <= jv < min(shape(a), shape(a)-1)) "
            f"modarray({first.target}, a[jv] + 1.0)"))
        a = np.arange(5.0)
        np.testing.assert_array_equal(
            opt_and_run(src, "f", a).call("f", a), [1.0, 2.0, 3.0, 4.0, 1.0])

    def test_strided_read_of_partial_modarray_producer(self):
        # Rule A as Fine2Coarse needs it: the default is the frame, the
        # bounds of the body piece are ceil-divided by the stride.
        src = (
            "double[.] f(double[.] a) {\n"
            "  t = with ([1] <= iv < shape(a)-1) modarray(a, a[iv-1] + a[iv+1]);\n"
            "  r = with ([0] <= jv < shape(a)/2) genarray(shape(a)/2, t[2*jv]);\n"
            "  return r;\n"
            "}"
        )
        p = dce_pass(wlfold_pass(parse_program(src)))
        first, second = [s for s in p.functions[0].body.statements
                         if isinstance(s, Assign)]
        assert ast_equal(first.value.operation.body, parse_expression("a[2*jv]"))
        assert ast_equal(second.value.generator.lower, parse_expression(
            "max([0], ([1] + 1) / 2)"))
        assert ast_equal(second.value.generator.upper, parse_expression(
            "min(shape(a)/2, (shape(a) - 1 + 1) / 2)"))
        assert ast_equal(second.value.operation.body, parse_expression(
            "a[2*jv - 1] + a[2*jv + 1]"))
        for n in (4, 7, 8):
            opt_and_run(src, "f", np.arange(float(n)) ** 2)

    STEPPED = (
        "double[.] f(double[.] a) {{\n"
        "  t = with (. <= iv <= . step 2) genarray(2*shape(a), {body});\n"
        "  r = with ([1] <= jv < 2*shape(a)-1) modarray({frame}, "
        "0.5*t[jv + [0] - 1] + 1.0*t[jv + [1] - 1] + 0.5*t[jv + [2] - 1]);\n"
        "  return r;\n"
        "}}"
    )

    def test_stepped_producer_splits_reader_into_residue_classes(self):
        # Rule B as Coarse2Fine needs it: the producer stays live (it is
        # the reader's frame) and is cheap; off-grid terms are dropped.
        src = self.STEPPED.format(body="a[iv/2]", frame="t")
        p = wlfold_pass(parse_program(src))
        t, even, odd = [s for s in p.functions[0].body.statements
                        if isinstance(s, Assign)]
        assert t.target == "t" and odd.target == "r"
        assert ast_equal(even.value, parse_expression(
            "with ([1] + [1] <= jv < 2*shape(a)-1 step 2) "
            "modarray(t, 1.0 * a[jv / 2])"))
        # (Printed: the parser reads ``[-1]`` as a negation, the pass
        # writes the literal.)
        assert pprint_expr(odd.value) == (
            f"with ([1] <= jv < 2 * shape(a) - 1 step 2) "
            f"modarray({even.target}, "
            f"0.5 * a[(jv + [-1]) / 2] + 0.5 * a[(jv + [1]) / 2])")
        a = np.arange(1.0, 5.0)
        got = opt_and_run(src, "f", a).call("f", a)
        np.testing.assert_array_equal(got, [1, 1.5, 2, 2.5, 3, 3.5, 4, 0])

    def test_live_producer_with_arithmetic_body_not_folded(self):
        src = self.STEPPED.format(body="2.0 * a[iv/2]", frame="t")
        prog = parse_program(src)
        assert ast_equal(wlfold_pass(prog), prog)
        opt_and_run(src, "f", np.arange(1.0, 5.0))

    def test_dying_producer_with_arithmetic_body_is(self):
        src = self.STEPPED.format(body="2.0 * a[iv/2]",
                                  frame="genarray(2*shape(a), 0.0)")
        p = dce_pass(wlfold_pass(parse_program(src)))
        assigns = [s.target for s in p.functions[0].body.statements
                   if isinstance(s, Assign)]
        assert "t" not in assigns and len(assigns) == 2
        opt_and_run(src, "f", np.arange(1.0, 5.0))

    def test_in_place_update_chain_is_left_alone(self):
        # SetupAxis: ``hi`` updates ``lo`` in place, so ``lo`` stays live
        # and splitting ``hi`` would add a pass and save nothing.
        src = (
            "double[.] f(double[.] a) {\n"
            "  lo = with ([0] <= iv < [1]) modarray(a, a[iv + 3]);\n"
            "  hi = with ([4] <= iv < [5]) modarray(lo, lo[iv - 3]);\n"
            "  return hi;\n"
            "}"
        )
        prog = parse_program(src)
        assert ast_equal(wlfold_pass(prog), prog)

    def test_unstable_default_blocks_fold(self):
        # The frame is rebound between producer and reader: ``a[e]``
        # there is no longer the producer's default.
        src = (
            "double[.] f(double[.] a) {\n"
            "  t = with ([1] <= iv < shape(a)-1) modarray(a, 2.0 * a[iv]);\n"
            "  a = a + 1.0;\n"
            "  r = with (. <= jv <= .) genarray(shape(a), t[jv]);\n"
            "  return r;\n"
            "}"
        )
        prog = parse_program(src)
        assert ast_equal(wlfold_pass(prog), prog)
        opt_and_run(src, "f", np.arange(5.0))

    def test_whole_array_use_blocks_fold(self):
        src = (
            "double[+] f(double[.] a) {\n"
            "  t = with (. <= iv <= .) genarray(shape(a), a[iv]);\n"
            "  r = with (. <= jv <= .) modarray(t, t[jv] + 1.0);\n"
            "  return r;\n"
            "}"
        )
        p = wlfold_pass(parse_program(src))
        assigns = [
            s.target for s in p.functions[0].body.statements
            if isinstance(s, Assign)
        ]
        assert "t" in assigns

    def test_shape_use_eliminated_then_folded(self):
        src = (
            "double[+] f(double[.] a) {\n"
            "  t = with (. <= iv <= .) genarray(shape(a), a[iv] * 2.0);\n"
            "  r = with ([0] <= jv < shape(t)) genarray(shape(t), t[jv] + 1.0);\n"
            "  return r;\n"
            "}"
        )
        p = dce_pass(wlfold_pass(parse_program(src)))
        assigns = [
            s.target for s in p.functions[0].body.statements
            if isinstance(s, Assign)
        ]
        assert assigns == ["r"]
        opt_and_run(src, "f", np.arange(4.0))


#: (what, producer, reader, folded) over ``f(double[.] a, double[.] g,
#: int k)``: every way a reader meets a several-piece producer, and
#: whether with-loop folding splits it.
_PAIRS = [
    ("one offset into a partial genarray",
     "with ([1] <= iv < shape(a)-1) genarray(shape(a), a[iv])",
     "with ([1] <= iv < shape(a)-1) modarray(g, t[iv - 1])", True),
    ("two offsets into a partial genarray",
     "with ([1] <= iv < shape(a)-1) genarray(shape(a), a[iv])",
     "with ([1] <= iv < shape(a)-1) modarray(g, t[iv - 1] + t[iv + 1])",
     False),
    ("a strided read of a partial modarray",
     "with ([1] <= iv < shape(a)-1) modarray(a, 2.0 * a[iv])",
     "with ([0] <= iv < shape(a)/2) genarray(shape(a)/2, t[2 * iv])", True),
    ("literal offsets into a stepped genarray",
     "with (. <= iv <= . step 2) genarray(shape(a), 2.0 * a[iv])",
     "with ([1] <= iv < shape(a)-1) modarray(g, t[iv + [-1]] + t[iv + [1]])",
     True),
    ("a width",
     "with ([0] <= iv < shape(a)-1 step 3 width 2) genarray(shape(a), a[iv])",
     "with ([1] <= iv < shape(a)-1) modarray(g, t[iv - 1])", False),
    ("a step that is no literal",
     "with (. <= iv <= . step [k]) genarray(shape(a), a[iv])",
     "with ([1] <= iv < shape(a)-1) modarray(g, t[iv + [-1]])", False),
    ("a stride into a stepped producer",
     "with (. <= iv <= . step 2) genarray(shape(a), a[iv])",
     "with ([0] <= iv < shape(a)/2) modarray(g, t[2 * iv])", False),
    ("a stepped producer on part of the range",
     "with ([2] <= iv < shape(a) step 2) genarray(shape(a), a[iv])",
     "with ([1] <= iv < shape(a)-1) modarray(g, t[iv + [-1]])", False),
    ("no vector to take the rank from",
     "with (. <= iv <= . step 2) genarray(shape(a), a[iv])",
     "with (0*shape(a)+1 <= iv < shape(a)-1) modarray(g, t[iv-1] + t[iv+1])",
     False),
    ("a live stepped producer with a bare selection for a body",
     "with (. <= iv <= . step 2) genarray(shape(a), a[iv])",
     "with ([1] <= iv < shape(a)-1) modarray(t, t[iv + [-1]] + t[iv + [1]])",
     True),
    ("a live stepped producer with an arithmetic body",
     "with (. <= iv <= . step 2) genarray(shape(a), 2.0 * a[iv])",
     "with ([1] <= iv < shape(a)-1) modarray(t, t[iv + [-1]] + t[iv + [1]])",
     False),
    ("an exclusive '.' bound on the producer",
     "with (. < iv <= .) modarray(a, 2.0 * a[iv])",
     "with ([0] <= iv < shape(a)) modarray(g, t[iv])", False),
    ("an exclusive '.' bound on a stepped producer",
     "with (. < iv <= . step 2) genarray(shape(a), a[iv])",
     "with ([1] <= iv < shape(a)-1) modarray(g, t[iv + [-1]] + t[iv + [1]])",
     False),
    ("an exclusive '.' bound on the reader",
     "with (. <= iv <= . step 2) genarray(shape(a), a[iv])",
     "with (. < iv < .) modarray(g, t[iv + [-1]] + t[iv + [1]])", False),
    ("a fold over a partial producer",
     "with ([1] <= iv < shape(a)-1) genarray(shape(a), a[iv])",
     "with ([0] <= iv < shape(a)) fold(+, 0.0, t[iv])", False),
]


class TestPartitionDependence:
    """SAC502 is with-loop folding's own refusal, issued by the analyzer:
    a pair is warned about exactly when the pass leaves it unfolded."""

    @staticmethod
    def _sac502(src):
        return [d.message for d in analyze_source(src).diagnostics
                if d.code == "SAC502"]

    def test_warned_exactly_when_left_unfolded(self):
        for what, producer, reader, folded in _PAIRS:
            ret = "double" if " fold(" in reader else "double[.]"
            src = (f"{ret} f(double[.] a, double[.] g, int k) {{\n"
                   f"  t = {producer};\n  s = {reader};\n  return s;\n}}")
            prog = parse_program(src)
            changed = ast_key(wlfold_pass(prog)) != ast_key(prog)
            assert changed == folded, what
            assert bool(self._sac502(src)) == (not folded), what

    def test_in_place_update_is_no_fusion_candidate(self):
        # mg.sac's SetupAxis: ``hi`` updates ``lo`` in place, so ``lo``
        # stays live whatever is folded — neither split nor warned about.
        src = """
        double[.] f(double[.] a) {
            lo = with ([0] <= iv < [1]) modarray(a, a[iv + 3]);
            hi = with ([4] <= iv < [5]) modarray(lo, lo[iv - 3]);
            return hi;
        }
        """
        assert self._sac502(src) == []

    def test_offset_read_of_partial_producer_warns(self):
        # At two offsets, that is: one index is folded (rule A) and no
        # longer warned about.
        src = """
        double[+] f(double[+] a) {
            t = with ([1] <= iv < shape(a) - 1)
                genarray(shape(a), a[iv]);
            s = with ([1] <= iv < shape(a) - 1)
                modarray(a, t[iv - 1] + t[iv + 1]);
            return s;
        }
        """
        (message,) = self._sac502(src)
        assert "'t'" in message and "more than one index" in message

    def test_point_read_of_partial_producer_is_fine(self):
        src = """
        double[+] f(double[+] a) {
            t = with ([1] <= iv < shape(a) - 1)
                genarray(shape(a), a[iv]);
            s = with ([1] <= iv < shape(a) - 1)
                modarray(a, t[iv]);
            return s;
        }
        """
        assert self._sac502(src) == []


class TestDce:
    def test_dead_assignment_removed(self):
        src = "int f() { x = 1; y = 2; return y; }"
        p = dce_pass(parse_program(src))
        assigns = [
            s for s in p.functions[0].body.statements if isinstance(s, Assign)
        ]
        assert [s.target for s in assigns] == ["y"]

    def test_chain_of_dead_removed(self):
        src = "int f() { a = 1; b = a + 1; return 7; }"
        p = dce_pass(parse_program(src))
        assigns = [
            s for s in p.functions[0].body.statements if isinstance(s, Assign)
        ]
        assert not assigns

    def test_loop_variables_kept(self):
        src = ("int f(int n) { s = 0; for (i = 0; i < n; i += 1) { s += i; } "
               "return s; }")
        dce_pass(parse_program(src))
        assert opt_and_run(src, "f", 5).call("f", 5) == 10


class TestFullPipeline:
    def test_pass_options_toggle(self):
        sched = schedule_for(
            CompileOptions(pass_overrides=(("coeffgroup", False),)))
        assert "coeffgroup" not in sched
        assert "inline" in sched

    def test_none_options(self):
        prog = load_prelude()
        none = CompileOptions(
            pass_overrides=tuple((name, False) for name in PASSES))
        assert schedule_for(none) == ()
        assert PassManager().run(prog, schedule_for(none)) is prog

    def test_mg_program_every_single_pass_off(self):
        # Flipping each pass off must not change the MG result.
        from repro.mg_sac import solve_sac_mg

        base = solve_sac_mg("T", nit=1)
        for name in ("inline", "constfold", "wlfold", "unroll", "coeffgroup",
                      "partialsum", "dce"):
            res = solve_sac_mg("T", nit=1, pass_overrides=((name, False),))
            assert res.rnm2 == pytest.approx(base.rnm2, rel=1e-10), name
