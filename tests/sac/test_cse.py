"""Tests for common subexpression elimination."""

import numpy as np
import pytest

from repro.sac import CompileOptions, SacProgram
from repro.sac.ast_nodes import Assign, Call
from repro.sac.optim.cse import cse_pass
from repro.sac.optim.rewrite import walk_exprs
from repro.sac.parser import parse_program


def _assigns(fun):
    return [s for s in fun.body.statements if isinstance(s, Assign)]


def _count_calls(fun, name):
    return sum(
        1 for e in walk_exprs(fun.body)
        if isinstance(e, Call) and e.name == name
    )


class TestSharing:
    def test_duplicate_call_shared(self):
        src = ("double f(double[+] a) "
               "{ return sum(shape(a)) + sum(shape(a)); }")
        p = cse_pass(parse_program(src))
        f = p.functions[0]
        assert _count_calls(f, "shape") == 1
        assert _count_calls(f, "sum") == 1

    def test_shared_across_statements(self):
        src = ("double f(double x) { a = x * x + 1.0; b = x * x + 2.0; "
               "return a + b; }")
        p = cse_pass(parse_program(src))
        f = p.functions[0]
        muls = sum(
            1 for e in walk_exprs(f.body)
            if getattr(e, "op", None) == "*"
        )
        assert muls == 1

    def test_semantics_preserved(self):
        src = ("double f(double x) { a = x * x + 1.0; b = x * x + 2.0; "
               "return a + b; }")
        plain = SacProgram.from_source(src, options=CompileOptions(optimize=False))
        opt = SacProgram.from_source(src)
        assert opt.call("f", 3.0) == plain.call("f", 3.0)

    def test_reassignment_invalidates(self):
        # After x changes, x + 1 is a different value; it must not share.
        src = ("int f(int x) { a = x + 1; x = a; b = x + 1; return a + b; }")
        plain = SacProgram.from_source(src, options=CompileOptions(optimize=False))
        opt = SacProgram.from_source(src)
        assert opt.call("f", 10) == plain.call("f", 10) == (11 + 12)

    def test_withloop_bodies_untouched(self):
        src = ("double[.] f(double[.] a) { return with (. <= iv <= .) "
               "modarray(a, a[iv] * a[iv]); }")
        p = cse_pass(parse_program(src))
        f = p.functions[0]
        # No hoisted temps: the duplicate a[iv] stays inside the loop.
        assert len(_assigns(f)) == 0

    def test_leaves_unshared_code_alone(self):
        src = "int f(int x, int y) { return x + y; }"
        p = cse_pass(parse_program(src))
        assert len(_assigns(p.functions[0])) == 0

    def test_control_flow_boundaries(self):
        # Sharing must not cross an if: the branches may not execute.
        src = ("int f(int x, bool b) { if (b) { a = x * x; } "
               "else { a = 0; } return a + x * x; }")
        plain = SacProgram.from_source(src, options=CompileOptions(optimize=False))
        opt = SacProgram.from_source(src)
        for bval in (True, False):
            assert opt.call("f", 5, bval) == plain.call("f", 5, bval)


class TestPipelineIntegration:
    def test_mg_verifies_with_and_without_cse(self):
        from repro.mg_sac import solve_sac_mg

        with_cse = solve_sac_mg("T", nit=1)
        without = solve_sac_mg("T", nit=1, pass_overrides=(("cse", False),))
        assert with_cse.rnm2 == pytest.approx(without.rnm2, rel=1e-12)

    def test_arrays_identical(self):
        src = ("double[.] f(double[.] a) { c = a * 2.0 + a * 2.0; "
               "return c; }")
        plain = SacProgram.from_source(src, options=CompileOptions(optimize=False))
        opt = SacProgram.from_source(src)
        x = np.arange(4.0)
        np.testing.assert_array_equal(opt.call("f", x), plain.call("f", x))
