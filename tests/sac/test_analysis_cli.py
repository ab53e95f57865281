"""The analyzer CLI, output formats, and the SAC0xx migration."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"


def run_cli(*args, cwd=REPO):
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, "-m", "repro.sac.analysis", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


@pytest.fixture()
def overlap_file(tmp_path):
    path = tmp_path / "overlap.sac"
    path.write_text(
        "int[10] f() {\n"
        "  return with ([0] <= iv <= [8] step [2] width [3]) "
        "genarray([10], 1);\n"
        "}\n"
    )
    return path


class TestExamplesClean:
    @pytest.mark.parametrize("example", ["game_of_life.sac",
                                         "generic_relax.sac"])
    def test_example_passes_json(self, example):
        proc = run_cli(str(REPO / "examples" / "sac" / example),
                       "--format", "json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["errors"] == 0

    def test_mg_program_clean(self):
        proc = run_cli(str(SRC / "repro" / "mg_sac" / "mg.sac"))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 error(s), 0 warning(s)" in proc.stdout


class TestFindings:
    def test_overlap_nonzero_exit_with_position(self, overlap_file):
        proc = run_cli(str(overlap_file))
        assert proc.returncode == 1
        # file:line:col of the offending WITH-loop
        assert f"{overlap_file}:2:10" in proc.stdout
        assert "SAC201" in proc.stdout
        assert "SAC301" in proc.stdout

    def test_json_format(self, overlap_file):
        proc = run_cli(str(overlap_file), "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        codes = {d["code"] for d in payload["diagnostics"]}
        assert {"SAC201", "SAC301"} <= codes
        d = next(x for x in payload["diagnostics"]
                 if x["code"] == "SAC201")
        assert d["line"] == 2 and d["col"] == 10

    def test_sarif_format(self, overlap_file):
        proc = run_cli(str(overlap_file), "--format", "sarif")
        sarif = json.loads(proc.stdout)
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "SAC201" in rule_ids
        result = run["results"][0]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 2

    def test_fail_on_warning(self, tmp_path):
        path = tmp_path / "warn.sac"
        path.write_text("int f() { x = 1; y = 2; return y; }\n")
        assert run_cli(str(path)).returncode == 0
        assert run_cli(str(path), "--fail-on", "warning").returncode == 1

    def test_syntax_error_is_sac001(self, tmp_path):
        path = tmp_path / "broken.sac"
        path.write_text("int f( {\n")
        proc = run_cli(str(path))
        assert proc.returncode == 1
        assert "SAC001" in proc.stdout

    def test_certificates_flag(self):
        proc = run_cli(str(SRC / "repro" / "mg_sac" / "mg.sac"),
                       "--certificates")
        summary, blank, *certs = proc.stdout.splitlines()
        assert summary == "0 error(s), 0 warning(s)" and blank == ""
        assert certs and all(c.endswith(": SPMD-safe") for c in certs)

    def test_missing_file_exit_2(self):
        proc = run_cli("no/such/file.sac")
        assert proc.returncode == 2


class TestCodeFilters:
    def test_select_keeps_only_family(self, overlap_file):
        proc = run_cli(str(overlap_file), "--select", "SAC2")
        assert "SAC201" in proc.stdout
        assert "SAC301" not in proc.stdout

    def test_ignore_drops_code(self, overlap_file):
        proc = run_cli(str(overlap_file), "--ignore", "SAC201")
        assert "SAC201" not in proc.stdout
        assert "SAC301" in proc.stdout

    def test_ignore_wins_over_select(self, overlap_file):
        proc = run_cli(str(overlap_file), "--select", "SAC2",
                       "--ignore", "SAC201")
        assert "SAC201" not in proc.stdout
        assert "SAC301" not in proc.stdout

    def test_filters_apply_before_fail_on(self, overlap_file):
        # Both error findings filtered out: the run must pass.
        proc = run_cli(str(overlap_file), "--select", "SAC4")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_select_sac5_on_mg(self, tmp_path):
        # mg.sac has no SAC5 findings; on a pair with-loop folding
        # refuses, --select SAC5 keeps SAC502 and drops the lint.
        proc = run_cli(str(SRC / "repro" / "mg_sac" / "mg.sac"),
                       "--select", "SAC5")
        assert proc.returncode == 0
        assert "SAC" not in proc.stdout
        refused = tmp_path / "refused.sac"
        refused.write_text(
            "double[+] f(double[+] a) {\n"
            "  unused = 1;\n"
            "  t = with ([1] <= iv < shape(a) - 1) genarray(shape(a), a[iv]);\n"
            "  s = with ([1] <= iv < shape(a) - 1)\n"
            "      modarray(a, t[iv - 1] + t[iv + 1]);\n"
            "  return s;\n"
            "}\n")
        assert "SAC401" in run_cli(str(refused)).stdout
        proc = run_cli(str(refused), "--select", "SAC5")
        assert proc.returncode == 0
        assert "SAC502" in proc.stdout and "SAC401" not in proc.stdout

    def test_unknown_prefix_exit_2(self, overlap_file):
        proc = run_cli(str(overlap_file), "--select", "BOGUS")
        assert proc.returncode == 2
        assert "matches no known diagnostic code" in proc.stderr

    def test_filters_reach_json_and_sarif(self, overlap_file):
        proc = run_cli(str(overlap_file), "--format", "json",
                       "--ignore", "SAC201,SAC301")
        payload = json.loads(proc.stdout)
        codes = {d["code"] for d in payload["diagnostics"]}
        assert not ({"SAC201", "SAC301"} & codes)

    def test_fail_on_never_still_reports(self, overlap_file):
        # The CI SARIF artifact pass: findings present, exit 0 — an
        # analyzer crash is the only thing that can fail the step.
        proc = run_cli(str(overlap_file), "--format", "sarif",
                       "--fail-on", "never")
        assert proc.returncode == 0
        sarif = json.loads(proc.stdout)
        assert sarif["runs"][0]["results"]


class TestTypecheckMigration:
    """collect_diagnostics now emits coded Diagnostic objects."""

    def expect_code(self, src, code):
        from repro.sac.parser import parse_program
        from repro.sac.typecheck import collect_diagnostics

        diags = collect_diagnostics(parse_program(src))
        assert code in [d.code for d in diags], diags

    def test_undefined_variable_sac002(self):
        self.expect_code("int f() { return y; }", "SAC002")

    def test_undefined_function_sac003(self):
        self.expect_code("int f() { return g(1); }", "SAC003")

    def test_arity_sac004(self):
        self.expect_code(
            "int g(int a, int b) { return a; } int f() { return g(1); }",
            "SAC004")

    def test_duplicate_param_sac005(self):
        self.expect_code("int f(int x, int x) { return x; }", "SAC005")

    def test_duplicate_definition_sac006(self):
        self.expect_code(
            "int f(int x) { return x; } int f(int y) { return y; }",
            "SAC006")

    def test_missing_return_sac007(self):
        self.expect_code("int f(bool b) { if (b) { return 1; } }",
                         "SAC007")

    def test_dot_misuse_sac008(self):
        self.expect_code("int f() { return with (. <= iv <= .) "
                         "fold(+, 0, 1); }", "SAC008")

    def test_fold_unknown_sac009(self):
        self.expect_code(
            "double f(double[.] a) { return with ([0] <= i < shape(a)) "
            "fold(combine, 0.0, a[i]); }", "SAC009")

    def test_check_program_still_raises(self):
        from repro.sac.errors import SacTypeError
        from repro.sac.parser import parse_program
        from repro.sac.typecheck import check_program

        with pytest.raises(SacTypeError, match="static error"):
            check_program(parse_program("int f() { return y; }"))

    def test_diagnostics_have_function_attribution(self):
        from repro.sac.parser import parse_program
        from repro.sac.typecheck import collect_diagnostics

        diags = collect_diagnostics(
            parse_program("int f() { return y; }"))
        assert diags[0].function == "f"

    def test_severity_is_error(self):
        from repro.sac.diagnostics import Severity
        from repro.sac.parser import parse_program
        from repro.sac.typecheck import collect_diagnostics

        diags = collect_diagnostics(
            parse_program("int f() { return y; }"))
        assert all(d.severity is Severity.ERROR for d in diags)
