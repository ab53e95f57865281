"""SPMD race certification: SAC3xx diagnostics and certificates."""

import pytest

from repro.sac.analysis import SAFE_FOLD_FUNCTIONS, analyze_source
from repro.sac.diagnostics import Severity
from repro.sac.errors import SacAnalysisError


def report(src, filename="<test>"):
    return analyze_source(src, filename)


class TestOverlappingWrites:
    SRC = ("int[10] f() { return with ([0] <= iv <= [8] step [2] "
           "width [3]) genarray([10], 1); }")

    def test_sac301_emitted(self):
        r = report(self.SRC, "races.sac")
        found = [d for d in r.diagnostics if d.code == "SAC301"]
        assert found
        d = found[0]
        assert d.severity is Severity.ERROR
        assert d.pos is not None and d.pos.filename == "races.sac"

    def test_certificate_unsafe(self):
        r = report(self.SRC)
        assert not r.spmd_safe
        unsafe = [c for c in r.certificates if not c.safe]
        assert unsafe and unsafe[0].kind == "genarray"
        assert "width 3 > step 2" in str(unsafe[0])

    def test_disjoint_blocks_safe(self):
        src = ("int[10] f() { return with ([0] <= iv < [10] step [2] "
               "width [2]) genarray([10], 1); }")
        r = report(src)
        assert r.spmd_safe
        assert all(c.safe for c in r.certificates)


class TestFoldSafety:
    def test_operator_folds_certified(self):
        assert SAFE_FOLD_FUNCTIONS == {"+", "*", "min", "max"}
        src = ("double f(double[.] a) { return with ([0] <= i < shape(a)) "
               "fold(+, 0.0, a[i]); }")
        r = report(src)
        assert r.spmd_safe
        assert not any(d.code == "SAC302" for d in r.diagnostics)

    def test_user_fold_flagged(self):
        src = ("double g(double a, double b) { return a - b; } "
               "double f(double[.] a) { return with ([0] <= i < shape(a)) "
               "fold(g, 0.0, a[i]); }")
        r = report(src)
        found = [d for d in r.diagnostics if d.code == "SAC302"]
        assert found
        assert found[0].severity is Severity.WARNING
        assert "'g'" in found[0].message
        assert not r.spmd_safe

    def test_min_max_folds_certified(self):
        src = ("double f(double[.] a) { return with ([0] <= i < shape(a)) "
               "fold(max, 0.0, a[i]); }")
        assert report(src).spmd_safe


class TestMgCertification:
    def test_mg_program_certified_race_free(self):
        from repro.mg_sac import mg_source_path

        r = analyze_source(mg_source_path().read_text(),
                           str(mg_source_path()))
        assert r.errors == []
        assert r.warnings == []
        assert r.certificates, "expected WITH-loop certificates"
        assert r.spmd_safe

    def test_loader_gate_enabled_by_default(self):
        from repro.mg_sac.loader import load_mg_program

        program = load_mg_program()
        assert program.analysis_report is not None
        assert program.analysis_report.ok
        assert program.analysis_report.spmd_safe

    def test_loader_gate_can_be_disabled(self):
        from repro.mg_sac.loader import load_mg_program

        program = load_mg_program(analyze=False)
        assert program.analysis_report is None


    def test_spmd_gate_refuses_an_uncertified_loop(self, tmp_path):
        # A user-defined fold is only a warning (SAC302), so the build
        # itself succeeds; the SPMD gate on top of it must not.
        from repro.sac import CompileOptions, SacProgram
        from repro.sac.module import load_spmd_certified

        path = tmp_path / "userfold.sac"
        path.write_text(
            "double g(double a, double b) { return a - b; } "
            "double f(double[.] a) { return with ([0] <= i < shape(a)) "
            "fold(g, 0.0, a[i]); }")
        options = CompileOptions(analyze=True)
        assert SacProgram.from_file(path, options).analysis_report.ok
        with pytest.raises(SacAnalysisError, match="SPMD certification"):
            load_spmd_certified(path, options)


class TestPipelineGate:
    def test_gate_raises_on_errors(self):
        from repro.sac import CompileOptions, SacProgram

        bad = ("int[10] f() { return with ([0] <= iv <= [8] step [2] "
               "width [3]) genarray([10], 1); }")
        with pytest.raises(SacAnalysisError) as exc:
            SacProgram.from_source(bad, options=CompileOptions(analyze=True))
        assert exc.value.diagnostics
        assert any(d.code == "SAC301" for d in exc.value.diagnostics)

    def test_gate_off_by_default(self):
        from repro.sac import CompileOptions

        assert CompileOptions().analyze is False

    def test_module_gate(self):
        from repro.sac import CompileOptions, SacProgram

        src = ("int[10] f() { return with ([0] <= iv <= [8] step [2] "
               "width [3]) genarray([10], 1); }")
        with pytest.raises(SacAnalysisError):
            SacProgram.from_source(
                src, options=CompileOptions(analyze=True, optimize=False))
