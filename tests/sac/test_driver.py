"""The compiler driver: PassManager, schedules, CompilationSession."""

import dataclasses

import pytest

from repro.mg_sac.loader import mg_source_path
from repro.sac import CompileOptions, SacProgram, parse_program
from repro.sac.driver import CompilationSession, KernelCache, PassManager
from repro.sac.driver.passes import PASSES, schedule_for
from repro.sac.errors import SacOptionError
from repro.sac.optim.cse import cse_pass
from repro.sac.optim.rewrite import ast_key

SRC = """
inline int inc(int x) { return x + 1; }
int f(int x)
{
  a = inc(x);
  b = 2 + 3;
  return a + b;
}
"""

MG_LIKE = """
double[+] g(double[+] u)
{
  s = with (0*shape(u)+1 <= iv < shape(u)-1)
      modarray(u, 2.0 * u[iv]);
  return s;
}
"""


def _mem_session(source, options=None):
    return CompilationSession(source, options=options or CompileOptions(),
                              cache=KernelCache())


class TestCompileOptions:
    def test_the_five_fields(self):
        # The only options record of repro.sac.
        assert [f.name for f in dataclasses.fields(CompileOptions)] == [
            "typecheck", "analyze", "optimize", "vectorize", "pass_overrides"]

    def test_overrides_valid(self):
        sched = schedule_for(CompileOptions(
            pass_overrides=(("cse", False), ("dce", True))))
        assert "cse" not in sched and "dce" in sched

    def test_unknown_override_is_a_coded_error_at_construction(self):
        with pytest.raises(SacOptionError) as exc:
            CompileOptions(pass_overrides=(("consfold", False),))
        msg = str(exc.value)
        assert "SAC010" in msg
        assert "'consfold'" in msg
        for name in PASSES:
            assert name in msg
        assert exc.value.code == "SAC010"

    def test_bad_override_surfaces_through_sacprogram(self):
        with pytest.raises(SacOptionError, match="SAC010"):
            SacProgram.from_source(SRC, options=CompileOptions(
                pass_overrides=(("nosuch", True),)))


class TestPassManager:
    def test_registry_covers_pass_names(self):
        # The table is the registry: the default schedule runs every
        # pass in it, each once, except the documented second constfold
        # and wlfold after unroll.
        sched = schedule_for(CompileOptions())
        assert set(sched) == set(PASSES)
        assert {n for n in PASSES if sched.count(n) != 1} \
            == {"constfold", "wlfold"}
        assert sched.count("constfold") == sched.count("wlfold") == 2

    def test_unknown_pass_in_schedule(self):
        pm = PassManager()
        with pytest.raises(SacOptionError, match="unknown pass"):
            pm.run(parse_program(SRC), ("optimise-harder",))

    def test_instrumentation_counts(self):
        pm = PassManager()
        program = parse_program(SRC)
        out = pm.run(program, ("inline", "constfold", "dce"))
        rep = pm.report
        assert rep.runs() == 3
        assert rep.runs("inline") == 1
        assert rep.rewrites("inline") >= 1  # the call was inlined
        assert rep.total_seconds() > 0
        assert out is not program

    def test_no_change_preserves_identity(self):
        pm = PassManager()
        program = parse_program("int f() { return 1; }")
        out = pm.run(program, ("cse",))
        assert out is program
        assert pm.report.rewrites("cse") == 0

    def test_mg_sac_rewrites_are_pinned(self):
        # A pass hands back what it did not change as the same object
        # (cse too), so identity alone counts the bodies a run rewrote.
        session = _mem_session(mg_source_path().read_text())
        assert [(e.name, e.rewrites) for e in session.pass_report.executions] \
            == [("inline", 7), ("constfold", 5), ("wlfold", 2), ("unroll", 6),
                ("constfold", 6), ("wlfold", 2), ("coeffgroup", 6),
                ("partialsum", 4), ("cse", 0), ("dce", 2)]
        assert cse_pass(session.program) is session.program

    def test_report_table_lists_passes(self):
        pm = PassManager()
        pm.run(parse_program(SRC), ("inline", "constfold"))
        table = pm.report.format_table()
        assert "inline" in table and "constfold" in table
        assert "rewrites" in table and "total" in table

    def test_default_schedule_matches_legacy_order(self):
        sched = schedule_for(CompileOptions())
        # The legacy order, and wlfold a second time next to unroll's
        # constfold: a stepped producer's readers are split by the
        # literal offsets only those two expose; partialsum reads the
        # groups coeffgroup makes.
        assert sched == ("inline", "constfold", "wlfold", "unroll",
                         "constfold", "wlfold", "coeffgroup", "partialsum",
                         "cse", "dce")

    def test_schedule_respects_toggles(self):
        sched = schedule_for(CompileOptions(
            pass_overrides=(("unroll", False), ("cse", False))))
        assert "unroll" not in sched
        assert "cse" not in sched
        # Without unroll the second constfold and wlfold disappear too.
        assert sched.count("constfold") == 1
        assert sched.count("wlfold") == 1


class TestCompilationSession:
    def test_cold_build_runs_all_stages(self):
        s = _mem_session(SRC)
        assert s.stage("parse").ran and not s.stage("parse").cached
        assert s.stage("typecheck").ran
        assert s.stage("optimize").ran
        assert not s.from_cache()
        assert s.pass_report.runs() > 0

    def test_warm_build_skips_everything(self):
        cache = KernelCache()
        CompilationSession(SRC, cache=cache)
        warm = CompilationSession(SRC, cache=cache)
        assert warm.from_cache()
        for name in ("parse", "link", "typecheck", "optimize"):
            assert warm.stage(name).cached
            assert not warm.stage(name).ran
        # Zero optimization work on the warm path.
        assert warm.pass_report.runs() == 0

    def test_warm_build_same_program(self):
        cache = KernelCache()
        cold = CompilationSession(SRC, cache=cache)
        warm = CompilationSession(SRC, cache=cache)
        assert ast_key(cold.program) == ast_key(warm.program)
        assert warm.interpreter.call("f", 1) == cold.interpreter.call("f", 1)

    def test_source_edit_misses_cache(self):
        cache = KernelCache()
        CompilationSession(SRC, cache=cache)
        edited = CompilationSession(SRC + "\nint g() { return 2; }\n",
                                    cache=cache)
        assert not edited.from_cache()

    def test_option_flip_misses_cache(self):
        cache = KernelCache()
        CompilationSession(SRC, cache=cache)
        other = CompilationSession(
            SRC, options=CompileOptions(optimize=False), cache=cache)
        assert not other.from_cache()
        assert not other.stage("optimize").ran

    def test_analyze_report_restored_from_cache(self):
        cache = KernelCache()
        opts = CompileOptions(analyze=True)
        cold = CompilationSession(MG_LIKE, options=opts, cache=cache)
        warm = CompilationSession(MG_LIKE, options=opts, cache=cache)
        assert warm.from_cache()
        assert warm.analysis_report is not None
        assert (warm.analysis_report.spmd_safe
                == cold.analysis_report.spmd_safe)

    def test_stage_summary_renders(self):
        s = _mem_session(SRC)
        text = s.stage_summary()
        for name in ("parse", "link", "typecheck", "analyze", "optimize",
                     "backend"):
            assert name in text


class TestSacProgramFacade:
    def test_facade_exposes_session_artifacts(self):
        prog = SacProgram.from_source(SRC)
        assert prog.session is not None
        assert prog.call("f", 1) == 7
        assert prog.pass_report is prog.session.pass_report
        assert prog.program is prog.session.program

    def test_from_parsed_ast_still_works(self):
        prog = SacProgram(parse_program(SRC))
        assert prog.call("f", 1) == 7
