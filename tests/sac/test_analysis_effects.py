"""Memory-effects summaries and the may-alias dataflow (SAC5xx layer 1+2)."""

from repro.sac.analysis.alias import AliasAnalysis
from repro.sac.analysis.effects import (
    EffectsAnalysis,
    ReadKind,
    alias_sources,
)
from repro.sac.ast_nodes import Program
from repro.sac.parser import parse_expression, parse_program
from repro.sac.stdlib import load_prelude


def program(src):
    return parse_program(src)


def summary(src, name=None):
    prog = program(src)
    eff = EffectsAnalysis(prog)
    fun = prog.functions[-1] if name is None else next(
        f for f in prog.functions if f.name == name)
    return eff.summary_of(fun)


class TestReadKind:
    def test_lattice_order(self):
        assert ReadKind.NONE < ReadKind.POINT < ReadKind.OFFSET \
            < ReadKind.WHOLE

    def test_join_is_max(self):
        assert ReadKind.POINT.join(ReadKind.OFFSET) is ReadKind.OFFSET
        assert ReadKind.WHOLE.join(ReadKind.NONE) is ReadKind.WHOLE


class TestSummaries:
    def test_point_read(self):
        s = summary(
            "double f(double[+] a, int[.] iv) { return a[iv]; }")
        assert s.read_kind(0) is ReadKind.POINT

    def test_offset_read(self):
        s = summary(
            "double f(double[+] a, int[.] iv) { return a[iv + 1]; }")
        assert s.read_kind(0) is ReadKind.OFFSET

    def test_whole_read(self):
        s = summary("double f(double[+] a) { return sum(a); }")
        assert s.read_kind(0) is ReadKind.WHOLE

    def test_unread_param_is_none(self):
        s = summary("double f(double[+] a, double[+] b) "
                    "{ return sum(a); }")
        assert s.read_kind(1) is ReadKind.NONE

    def test_structural_builtins_do_not_read_data(self):
        s = summary("int f(double[+] a) { return dim(a); }")
        assert s.read_kind(0) is ReadKind.NONE

    def test_interprocedural_point_composition(self):
        src = """
        double g(double[+] u, int[.] j) { return u[j]; }
        double f(double[+] a, int[.] iv) { return g(a, iv); }
        """
        assert summary(src, "f").read_kind(0) is ReadKind.POINT

    def test_interprocedural_offset_composition(self):
        src = """
        double g(double[+] u, int[.] j) { return u[j - 1]; }
        double f(double[+] a, int[.] iv) { return g(a, iv); }
        """
        assert summary(src, "f").read_kind(0) is ReadKind.OFFSET

    def test_recursion_reaches_fixpoint(self):
        src = """
        double f(double[+] a, int[.] iv, int n) {
            if (n == 0) { return a[iv]; }
            return f(a, iv, n - 1);
        }
        """
        assert summary(src, "f").read_kind(0) is ReadKind.POINT

    def test_may_return_params_identity(self):
        s = summary("double[+] f(double[+] a) { return a; }")
        assert s.may_return_params == frozenset({0})
        assert not s.returns_fresh

    def test_withloop_result_is_fresh(self):
        s = summary("double[+] f(double[+] a) { return "
                    "with (0 * shape(a) <= iv < shape(a)) "
                    "genarray(shape(a), a[iv]); }")
        assert s.may_return_params == frozenset()
        assert s.returns_fresh

    def test_conditional_return_unions(self):
        s = summary("double[+] f(double[+] a, double[+] b, bool p) "
                    "{ if (p) { return a; } return b; }")
        assert s.may_return_params == frozenset({0, 1})

    def test_mg_stencil_is_offset(self):
        prelude = load_prelude()
        user = parse_program(
            open("src/repro/mg_sac/mg.sac").read(), "mg.sac")
        prog = Program(tuple(prelude.functions) + tuple(user.functions))
        eff = EffectsAnalysis(prog)
        stencil = next(f for f in prog.functions
                       if f.name == "StencilSum")
        s = eff.summary_of(stencil)
        # u is read at iv + ov - 1: an offset of the loop index, the
        # halo pattern the whole reuse story is built to recognize.
        assert s.read_kind(0) is ReadKind.OFFSET


class TestAliasSources:
    def test_var_is_its_own_source(self):
        eff = EffectsAnalysis(program("int f() { return 1; }"))
        assert alias_sources(parse_expression("a"), eff) \
            == frozenset({"a"})

    def test_selection_is_a_view(self):
        eff = EffectsAnalysis(program("int f() { return 1; }"))
        assert alias_sources(parse_expression("a[[0]]"), eff) \
            == frozenset({"a"})

    def test_arithmetic_is_fresh(self):
        eff = EffectsAnalysis(program("int f() { return 1; }"))
        assert alias_sources(parse_expression("a + b"), eff) \
            == frozenset()

    def test_call_routes_through_summary(self):
        prog = program("double[+] g(double[+] x, double[+] y) "
                       "{ return y; }")
        eff = EffectsAnalysis(prog)
        assert alias_sources(parse_expression("g(a, b)"), eff) \
            == frozenset({"b"})


class TestAliasAnalysis:
    def _pairs_at_return(self, src):
        prog = program(src)
        fun = prog.functions[-1]
        eff = EffectsAnalysis(prog)
        aa = AliasAnalysis(fun, eff)
        for block in aa.cfg.blocks:
            for i, act in enumerate(block.actions):
                if act.defines is None and not act.is_cond:
                    return aa, aa.pairs_before(block.id, i)
        return aa, aa.pairs_before(aa.cfg.exit, 0)

    def test_params_alias_at_entry(self):
        aa, pairs = self._pairs_at_return(
            "double f(double[+] a, double[+] b) { return sum(a); }")
        assert aa.may_alias(pairs, "a", "b")

    def test_copy_aliases(self):
        aa, pairs = self._pairs_at_return(
            "double f(double[+] a) { b = a; return sum(b); }")
        assert aa.may_alias(pairs, "a", "b")

    def test_fresh_value_kills(self):
        aa, pairs = self._pairs_at_return(
            "double f(double[+] a) { b = a; b = a + a; "
            "return sum(b); }")
        assert not aa.may_alias(pairs, "a", "b")

    def test_partner_closure(self):
        aa, pairs = self._pairs_at_return(
            "double f(double[+] a) { b = a; c = b; return sum(c); }")
        assert aa.may_alias(pairs, "a", "c")

    def test_scalars_never_pair(self):
        aa, pairs = self._pairs_at_return(
            "double f(double[+] a, int n) { return sum(a); }")
        assert not aa.may_alias(pairs, "a", "n")
